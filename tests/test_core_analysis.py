"""Calibration, validation, ideal-scaling, and what-if analyses."""

import pytest

from repro.compression import PowerSGDScheme, SignSGDScheme, SyncSGDScheme
from repro.core import (
    PerfModelInputs,
    bandwidth_sweep,
    calibrate,
    communicable_bytes,
    compute_sweep,
    encode_tradeoff_grid,
    find_crossover_gbps,
    headroom_curve,
    required_compression,
    validate_schemes,
)
from repro.errors import ConfigurationError
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.units import gbps_to_bytes_per_s

BW10 = gbps_to_bytes_per_s(10)


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


class TestCalibration:
    def test_report_fields_sane(self, rn50):
        report = calibrate(rn50, cluster_for_gpus(16), batch_size=64)
        assert 0 < report.min_bandwidth_bytes_per_s <= 1.25e9
        assert report.alpha_s > 0
        assert report.measured_gamma >= 1.0
        assert report.standalone_backward_s * 1e3 == pytest.approx(
            122, rel=0.05)

    def test_inputs_carry_world_size(self, rn50):
        report = calibrate(rn50, cluster_for_gpus(32), batch_size=64)
        assert report.inputs.world_size == 32
        assert report.inputs.batch_size == 64

    def test_describe_readable(self, rn50):
        text = calibrate(rn50, cluster_for_gpus(8)).describe()
        assert "Gbit/s" in text and "gamma" in text


class TestValidation:
    def test_allreducible_schemes_validate_tightly(self, rn50):
        clusters = [cluster_for_gpus(g) for g in (8, 32, 96)]
        schemes = (SyncSGDScheme(), PowerSGDScheme(4))
        curves = validate_schemes(rn50, schemes, clusters, batch_size=64,
                                  iterations=20, warmup=4)
        for scheme, curve in zip(schemes, curves):
            assert curve.median_error < 0.08, scheme

    def test_signsgd_error_larger_from_incast(self, rn50):
        clusters = [cluster_for_gpus(g) for g in (8, 32, 96)]
        sign, sync = validate_schemes(
            rn50, (SignSGDScheme(), SyncSGDScheme()), clusters,
            batch_size=64, iterations=20, warmup=4)
        assert sign.max_error > 2 * sync.max_error

    def test_oom_points_skipped(self):
        bert = get_model("bert-base")
        clusters = [cluster_for_gpus(g) for g in (8, 96)]
        [curve] = validate_schemes(bert, (SignSGDScheme(),), clusters,
                                   batch_size=12, iterations=8, warmup=2)
        assert [p.world_size for p in curve.points] == [8]

    def test_one_calibration_per_cluster(self, rn50, monkeypatch):
        # Calibration never reads the scheme, so sharing it across the
        # schemes of a cluster changes no curve.
        from repro.core import validation
        schemes = (SyncSGDScheme(), PowerSGDScheme(4), SignSGDScheme())
        clusters = [cluster_for_gpus(g) for g in (8, 32)]
        alone = [validate_schemes(rn50, (scheme,), clusters, batch_size=64,
                                  iterations=8, warmup=2)[0]
                 for scheme in schemes]
        calls = []
        real = validation.calibrate
        monkeypatch.setattr(validation, "calibrate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        shared = validate_schemes(rn50, schemes, clusters, batch_size=64,
                                  iterations=8, warmup=2)
        assert shared == alone
        assert len(calls) == len(clusters)


class TestIdealAnalysis:
    def test_communicable_bytes_inverts_ring_formula(self):
        from repro.collectives import ring_allreduce_time
        g = communicable_bytes(0.1, 64, BW10, alpha_s=25e-6)
        assert ring_allreduce_time(g, 64, BW10, 25e-6) == pytest.approx(0.1)

    def test_latency_dominated_returns_zero(self):
        assert communicable_bytes(1e-6, 96, BW10, alpha_s=1e-3) == 0.0

    def test_single_worker_is_infinite(self):
        assert communicable_bytes(0.1, 1, BW10) == float("inf")

    def test_required_ratio_small_at_10gbps(self, rn50):
        # The paper's Figure 9 finding: modest ratios suffice.
        rc = required_compression(rn50, 16, 64, BW10)
        assert 1.0 <= rc.required_ratio < 7.0

    def test_required_ratio_shrinks_with_batch(self, rn50):
        r16 = required_compression(rn50, 16, 64, BW10).required_ratio
        r64 = required_compression(rn50, 64, 64, BW10).required_ratio
        assert r64 < r16

    def test_bert_needs_under_2x_at_default_batch(self):
        bert = get_model("bert-base")
        rc = required_compression(bert, 12, 64, BW10)
        assert rc.required_ratio < 2.0

    def test_high_bandwidth_needs_no_compression(self, rn50):
        rc = required_compression(rn50, 64, 64, gbps_to_bytes_per_s(100))
        assert rc.required_ratio == 1.0

    def test_headroom_grows_with_model_size(self):
        sizes = {}
        for name, bs in (("resnet50", 64), ("resnet101", 64),
                         ("bert-base", 12)):
            pts = headroom_curve(get_model(name), [152], BW10,
                                 batch_size=bs)
            sizes[name] = pts[0].headroom_s
        assert sizes["resnet50"] < sizes["resnet101"] < sizes["bert-base"]

    def test_headroom_magnitudes_match_fig10(self):
        # ~50 / ~100 / ~200+ ms at large scale, 10 Gbit/s.
        pts = headroom_curve(get_model("resnet50"), [152], BW10,
                             batch_size=64)
        assert 0.03 < pts[0].headroom_s < 0.12
        pts = headroom_curve(get_model("bert-base"), [152], BW10,
                             batch_size=12)
        assert 0.15 < pts[0].headroom_s < 0.40

    def test_headroom_never_negative(self, rn50):
        for pt in headroom_curve(rn50, [8, 64, 152], BW10, batch_size=64):
            assert pt.headroom_s >= 0


class TestWhatIf:
    def test_bandwidth_sweep_speedup_decreases(self, rn50):
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = bandwidth_sweep(rn50, PowerSGDScheme(4),
                              [1, 5, 10, 20, 30], inp)
        speedups = [p.speedup for p in pts]
        assert speedups == sorted(speedups, reverse=True)

    def test_resnet50_crossover_near_paper(self, rn50):
        # Paper: ~9 Gbit/s; we assert the 6-14 band.
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = bandwidth_sweep(rn50, PowerSGDScheme(4),
                              list(range(1, 31)), inp)
        crossover = find_crossover_gbps(pts)
        assert crossover is not None
        assert 6 < crossover < 14

    def test_no_crossover_returns_none(self):
        bert = get_model("bert-base")
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=12)
        pts = bandwidth_sweep(bert, PowerSGDScheme(4), [1, 2, 3], inp)
        assert find_crossover_gbps(pts) is None

    def test_compute_sweep_saturates_syncsgd(self, rn50):
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = compute_sweep(rn50, PowerSGDScheme(4), [1, 2, 4], inp)
        # syncSGD becomes comm-bound: under 15% gain from 2x->4x compute.
        assert pts[2].syncsgd_s > 0.85 * pts[1].syncsgd_s
        # compression keeps improving.
        assert pts[2].compressed_s < 0.6 * pts[0].compressed_s

    def test_compute_sweep_speedup_monotonic(self, rn50):
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = compute_sweep(rn50, PowerSGDScheme(4),
                            [1, 1.5, 2, 3, 4], inp)
        speedups = [p.speedup for p in pts]
        assert speedups == sorted(speedups)

    def test_compute_sweep_rejects_nonpositive(self, rn50):
        inp = PerfModelInputs(world_size=8, bandwidth_bytes_per_s=BW10)
        with pytest.raises(ConfigurationError):
            compute_sweep(rn50, PowerSGDScheme(4), [0.0], inp)

    def test_tradeoff_any_encode_cut_helps(self, rn50):
        # The Figure 13 conclusion: k=2,3,4 all beat k=1 at every l.
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = encode_tradeoff_grid(rn50, PowerSGDScheme(4),
                                   [1, 2, 3, 4], [1, 2, 3], inp)
        by_kl = {(p.k, p.l): p.predicted_s for p in pts}
        for l in (1.0, 2.0, 3.0):
            for k in (2.0, 3.0, 4.0):
                assert by_kl[(k, l)] < by_kl[(1.0, l)]

    def test_tradeoff_wire_capped_at_dense(self, rn50):
        # Extreme l*k cannot exceed uncompressed communication.
        inp = PerfModelInputs(world_size=64, bandwidth_bytes_per_s=BW10,
                              batch_size=64)
        pts = encode_tradeoff_grid(rn50, PowerSGDScheme(4),
                                   [4], [1000], inp)
        sync = pts[0].syncsgd_s
        # Even fully decompressed, sequential comm is bounded by the
        # dense all-reduce plus compute; sanity: within 3x of syncSGD.
        assert pts[0].predicted_s < 3 * sync

    def test_tradeoff_validates_k_and_l(self, rn50):
        inp = PerfModelInputs(world_size=8, bandwidth_bytes_per_s=BW10)
        with pytest.raises(ConfigurationError):
            encode_tradeoff_grid(rn50, PowerSGDScheme(4), [0.5], [1], inp)
        with pytest.raises(ConfigurationError):
            encode_tradeoff_grid(rn50, PowerSGDScheme(4), [1], [0.5], inp)
