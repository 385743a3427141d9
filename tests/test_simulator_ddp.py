"""DDP simulator: mechanisms and paper-shape behaviours."""

import numpy as np
import pytest

from repro.compression import (
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.simulator import COMM_STREAM, DDPConfig, DDPSimulator


def quiet_config(**kwargs):
    return DDPConfig(compute_jitter=0.0, comm_jitter=0.0, **kwargs)


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


class TestBaselineIteration:
    def test_single_worker_has_no_comm(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(4).with_nodes(1),
                           config=quiet_config())
        # One node: intra-node NVLink is effectively free at this scale,
        # but a truly single worker is the cleanest check.
        from repro.hardware import ClusterConfig, P3_2XLARGE
        solo = DDPSimulator(rn50, ClusterConfig(P3_2XLARGE, num_nodes=1),
                            config=quiet_config())
        trace = solo.simulate_iteration(64, np.random.default_rng(0))
        assert trace.stream_busy_time(COMM_STREAM) == 0.0

    def test_buckets_appear_on_comm_stream(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8), config=quiet_config())
        trace = sim.simulate_iteration(64, np.random.default_rng(0))
        comm = trace.stream_spans(COMM_STREAM)
        assert len(comm) == len(rn50.bucket_sizes_bytes())

    def test_comm_overlaps_backward(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8), config=quiet_config())
        trace = sim.simulate_iteration(64, np.random.default_rng(0))
        assert trace.compute_comm_overlap() > 0.0

    def test_disabling_overlap_slows_iteration(self, rn50):
        cluster = cluster_for_gpus(16)
        on = DDPSimulator(rn50, cluster, config=quiet_config()).run(
            64, iterations=12, warmup=2)
        off = DDPSimulator(
            rn50, cluster,
            config=quiet_config(overlap_communication=False)).run(
            64, iterations=12, warmup=2)
        assert off.mean > on.mean

    def test_gamma_stretches_backward(self, rn50):
        cluster = cluster_for_gpus(8)
        lo = DDPSimulator(rn50, cluster, config=quiet_config(gamma=1.0))
        hi = DDPSimulator(rn50, cluster, config=quiet_config(gamma=1.3))
        t_lo = lo.simulate_iteration(64, np.random.default_rng(0))
        t_hi = hi.simulate_iteration(64, np.random.default_rng(0))
        assert (t_hi.backward_end - t_hi.forward_end) == pytest.approx(
            1.3 * (t_lo.backward_end - t_lo.forward_end))

    def test_double_tree_differs_from_ring(self, rn50):
        cluster = cluster_for_gpus(64)
        ring = DDPSimulator(rn50, cluster, config=quiet_config()).run(
            64, iterations=12, warmup=2)
        tree = DDPSimulator(
            rn50, cluster,
            config=quiet_config(allreduce_algorithm="double_tree")).run(
            64, iterations=12, warmup=2)
        assert ring.mean != tree.mean

    def test_jitter_produces_variance(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        result = sim.run(64, iterations=30, warmup=5)
        assert result.std > 0.0

    def test_no_jitter_deterministic(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8),
                           config=quiet_config())
        result = sim.run(64, iterations=12, warmup=2)
        assert result.std == pytest.approx(0.0)

    def test_default_batch_from_model(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        result = sim.run(iterations=12, warmup=2)
        assert result.batch_size == rn50.default_batch_size

    def test_bad_iteration_counts(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        with pytest.raises(ConfigurationError):
            sim.run(64, iterations=5, warmup=5)


class TestCompressedIteration:
    def test_encode_decode_on_critical_path(self, rn50):
        cluster = cluster_for_gpus(8)
        base = DDPSimulator(
            rn50, cluster, scheme=PowerSGDScheme(4),
            config=quiet_config()).run(64, iterations=12, warmup=2)
        cost = PowerSGDScheme(4).cost(rn50, 8)
        # Compressed run must include at least backward + encode/decode.
        compute = DDPSimulator(rn50, cluster).compute
        assert base.mean >= compute.backward_time(64) + cost.encode_decode_s

    def test_signsgd_comm_linear_in_p(self, rn50):
        t32 = DDPSimulator(rn50, cluster_for_gpus(32),
                           scheme=SignSGDScheme(),
                           config=quiet_config()).run(
            64, iterations=12, warmup=2).mean
        t96 = DDPSimulator(rn50, cluster_for_gpus(96),
                           scheme=SignSGDScheme(),
                           config=quiet_config()).run(
            64, iterations=12, warmup=2).mean
        assert t96 > 1.5 * t32

    def test_powersgd_nearly_flat_in_p(self, rn50):
        t8 = DDPSimulator(rn50, cluster_for_gpus(8),
                          scheme=PowerSGDScheme(4),
                          config=quiet_config()).run(
            64, iterations=12, warmup=2).mean
        t96 = DDPSimulator(rn50, cluster_for_gpus(96),
                           scheme=PowerSGDScheme(4),
                           config=quiet_config()).run(
            64, iterations=12, warmup=2).mean
        assert t96 < 1.15 * t8

    def test_overlapped_compression_slower_for_all_fig3_methods(self, rn50):
        # The §3.1 finding, also asserted per-method in the fig3 bench.
        cluster = cluster_for_gpus(16)
        for scheme in (PowerSGDScheme(4), TopKScheme(0.01),
                       SignSGDScheme()):
            seq = DDPSimulator(rn50, cluster, scheme=scheme,
                               config=quiet_config()).run(
                64, iterations=10, warmup=2).mean
            ovl = DDPSimulator(
                rn50, cluster, scheme=scheme,
                config=quiet_config(overlap_compression=True)).run(
                64, iterations=10, warmup=2).mean
            assert ovl > seq, scheme.label


class TestIterationRngDefaults:
    """Regression: ``simulate_iteration`` used to default to
    ``default_rng(0)`` on *every* call, so repeated direct calls drew
    identical jitter and their variance collapsed to zero."""

    def test_repeated_direct_calls_vary(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))  # jitter on
        times = {sim.simulate_iteration(64).sync_time() for _ in range(4)}
        assert len(times) > 1

    def test_seed_argument_is_deterministic(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        a = sim.simulate_iteration(64, seed=7).sync_time()
        b = sim.simulate_iteration(64, seed=7).sync_time()
        c = sim.simulate_iteration(64, seed=8).sync_time()
        assert a == b
        assert a != c

    def test_explicit_rng_still_wins(self, rn50):
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        a = sim.simulate_iteration(64, np.random.default_rng(3)).sync_time()
        b = sim.simulate_iteration(64, np.random.default_rng(3),
                                   seed=99).sync_time()
        assert a == b

    def test_run_protocol_unchanged(self, rn50):
        # run() threads its own generator; same seed, same result.
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        r1 = sim.run(64, iterations=12, warmup=2, seed=0)
        r2 = DDPSimulator(rn50, cluster_for_gpus(8)).run(
            64, iterations=12, warmup=2, seed=0)
        assert r1.sync_times == r2.sync_times


class TestOverlappedSingleWorker:
    def test_no_phantom_wave_spans_at_p1(self, rn50):
        # Regression: the overlapped-compression path used to emit four
        # zero-length "wave*" comm spans even for a single worker,
        # polluting traces and compute_comm_overlap() inputs.
        from repro.hardware import ClusterConfig, P3_2XLARGE
        solo = DDPSimulator(
            rn50, ClusterConfig(P3_2XLARGE, num_nodes=1),
            scheme=TopKScheme(0.01),
            config=quiet_config(overlap_compression=True))
        trace = solo.simulate_iteration(64, np.random.default_rng(0))
        assert trace.stream_spans(COMM_STREAM) == []
        assert trace.compute_comm_overlap() == 0.0

    def test_multi_worker_waves_preserved(self, rn50):
        sim = DDPSimulator(
            rn50, cluster_for_gpus(8), scheme=TopKScheme(0.01),
            config=quiet_config(overlap_compression=True))
        trace = sim.simulate_iteration(64, np.random.default_rng(0))
        waves = [s for s in trace.stream_spans(COMM_STREAM)
                 if s.label.startswith("wave")]
        assert len(waves) == 4
        assert all(s.duration > 0 for s in waves)


class TestMemoryEnforcement:
    def test_bert_signsgd_ooms_beyond_32(self):
        bert = get_model("bert-base")
        sim = DDPSimulator(bert, cluster_for_gpus(48),
                           scheme=SignSGDScheme())
        with pytest.raises(OutOfMemoryError) as exc_info:
            sim.run(12, iterations=5, warmup=1)
        assert exc_info.value.required_bytes > exc_info.value.budget_bytes

    def test_bert_signsgd_runs_at_32(self):
        bert = get_model("bert-base")
        sim = DDPSimulator(bert, cluster_for_gpus(32),
                           scheme=SignSGDScheme())
        assert sim.run(12, iterations=5, warmup=1).mean > 0

    def test_resnet_signsgd_runs_at_96(self, rn50):
        # Layer-granularity gather: no OOM even at full scale.
        sim = DDPSimulator(rn50, cluster_for_gpus(96),
                           scheme=SignSGDScheme())
        assert sim.run(64, iterations=5, warmup=1).mean > 0

    def test_memory_check_can_be_disabled(self):
        bert = get_model("bert-base")
        sim = DDPSimulator(bert, cluster_for_gpus(48),
                           scheme=SignSGDScheme(),
                           config=quiet_config(check_memory=False))
        assert sim.run(12, iterations=5, warmup=1).mean > 0


class TestConfigValidation:
    def test_gamma_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DDPConfig(gamma=0.9)

    def test_contention_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DDPConfig(contention_penalty=0.5)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            DDPConfig(allreduce_algorithm="butterfly")

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            DDPConfig(compute_jitter=-0.1)


def _bits(value):
    return np.float64(value).view(np.uint64)


@pytest.mark.parametrize("seed", range(4))
def test_result_statistics_are_numpy_bit_for_bit(seed):
    """``mean``/``std``/``mean_iteration`` skip numpy's wrappers but
    must return exactly what ``np.mean``/``np.std`` return, over every
    length the protocol can produce and magnitudes far from 1."""
    from repro.simulator import TimingResult

    rng = np.random.default_rng(seed)
    for _ in range(250):
        n = int(rng.integers(1, 301))
        scale = 10.0 ** rng.integers(-300, 300)
        samples = rng.standard_normal(n) * scale
        if rng.random() < 0.3:  # a large offset, small spread
            samples = samples * 1e-9 + scale
        if rng.random() < 0.2:  # all equal
            samples = np.full(n, samples[0])
        sync = tuple(samples.tolist())
        iters = tuple(rng.permutation(samples).tolist())
        result = TimingResult(model="m", scheme="s", world_size=8,
                              batch_size=32, sync_times=sync,
                              iteration_times=iters)
        # Squared deviations near 1e300 overflow, alike on both sides.
        with np.errstate(over="ignore"):
            assert type(result.mean) is float and type(result.std) is float
            assert _bits(result.mean) == _bits(np.mean(sync))
            assert _bits(result.std) == _bits(np.std(sync))
            assert _bits(result.mean_iteration) == _bits(np.mean(iters))
