"""Analytic performance model (§4)."""

import numpy as np
import pytest

from repro.compression import (
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.compute import ComputeModel
from repro.core import (
    PerfModelInputs,
    PredictedTime,
    compressed_time,
    compressed_time_grid,
    predict,
    speedup_over_syncsgd,
    syncsgd_time,
    tradeoff_time_grid,
)
from repro.errors import ConfigurationError
from repro.hardware import V100
from repro.models import get_model
from repro.units import gbps_to_bytes_per_s

from . import oracle

BW10 = gbps_to_bytes_per_s(10)


def inputs(p=64, bw=BW10, bs=None, **kw):
    return PerfModelInputs(world_size=p, bandwidth_bytes_per_s=bw,
                           batch_size=bs, **kw)


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


class TestSyncSGDModel:
    def test_single_worker_is_pure_compute(self, rn50):
        pred = syncsgd_time(rn50, inputs(p=1, bs=64))
        compute = ComputeModel(rn50, V100)
        assert pred.total == pytest.approx(compute.backward_time(64))

    def test_compute_bound_regime(self, rn50):
        # Huge bandwidth: total = gamma * T_comp + last-bucket time.
        pred = syncsgd_time(rn50, inputs(bw=gbps_to_bytes_per_s(1000),
                                         bs=64, gamma=1.1))
        compute = ComputeModel(rn50, V100)
        assert pred.total == pytest.approx(
            1.1 * compute.backward_time(64), rel=0.03)

    def test_comm_bound_regime(self, rn50):
        # Tiny bandwidth: total ~ full-gradient all-reduce time.
        pred = syncsgd_time(rn50, inputs(bw=gbps_to_bytes_per_s(1), bs=64))
        expected_comm = 2 * rn50.grad_bytes * 63 / (
            64 * gbps_to_bytes_per_s(1))
        assert pred.total == pytest.approx(expected_comm, rel=0.1)

    def test_more_bandwidth_never_slower(self, rn50):
        times = [syncsgd_time(rn50, inputs(bw=gbps_to_bytes_per_s(g),
                                           bs=64)).total
                 for g in (1, 5, 10, 25, 100)]
        assert times == sorted(times, reverse=True)

    def test_larger_batch_longer_iteration_when_compute_bound(self, rn50):
        # At high bandwidth the backward pass dominates; batch matters.
        # (At 10 Gbit/s both batches are comm-bound and times coincide —
        # exactly the overlap effect behind Figure 7.)
        fast = gbps_to_bytes_per_s(100)
        t32 = syncsgd_time(rn50, inputs(bw=fast, bs=32)).total
        t64 = syncsgd_time(rn50, inputs(bw=fast, bs=64)).total
        assert t64 > t32

    def test_breakdown_components_consistent(self, rn50):
        pred = syncsgd_time(rn50, inputs(bs=64))
        assert pred.total >= pred.compute
        assert pred.encode_decode == 0.0

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            PerfModelInputs(world_size=0, bandwidth_bytes_per_s=1e9)
        with pytest.raises(ConfigurationError):
            PerfModelInputs(world_size=4, bandwidth_bytes_per_s=0)
        with pytest.raises(ConfigurationError):
            PerfModelInputs(world_size=4, bandwidth_bytes_per_s=1e9,
                            gamma=0.5)

    def test_with_helpers(self):
        base = inputs(p=8)
        assert base.with_world_size(32).world_size == 32
        assert base.with_bandwidth(5e9).bandwidth_bytes_per_s == 5e9
        # original unchanged (frozen)
        assert base.world_size == 8


class TestCompressedModel:
    def test_structure_is_additive(self, rn50):
        pred = compressed_time(rn50, PowerSGDScheme(4), inputs(bs=64))
        assert pred.total == pytest.approx(
            pred.compute + pred.encode_decode + pred.comm_exposed)

    def test_syncsgd_scheme_routes_to_baseline(self, rn50):
        via_predict = predict(rn50, SyncSGDScheme(), inputs(bs=64))
        direct = oracle.syncsgd_time(rn50, inputs(bs=64))
        assert via_predict.total == pytest.approx(direct.total)

    def test_signsgd_comm_linear_in_p(self, rn50):
        t16 = compressed_time(rn50, SignSGDScheme(), inputs(p=16, bs=64))
        t96 = compressed_time(rn50, SignSGDScheme(), inputs(p=96, bs=64))
        assert t96.comm_exposed > 5 * t16.comm_exposed

    def test_powersgd_total_flat_in_p(self, rn50):
        # Ring latency (alpha) grows linearly, but at PowerSGD's tiny
        # payloads the *total* stays essentially flat across a 12x scale
        # jump — the all-reduce scalability the paper highlights.
        t8 = compressed_time(rn50, PowerSGDScheme(4), inputs(p=8, bs=64))
        t96 = compressed_time(rn50, PowerSGDScheme(4), inputs(p=96, bs=64))
        assert t96.total < 1.10 * t8.total

    def test_single_worker_no_comm(self, rn50):
        pred = compressed_time(rn50, TopKScheme(0.01), inputs(p=1, bs=64))
        assert pred.comm_exposed == 0.0

    def test_model_uses_no_incast(self, rn50):
        # The deliberate omission behind the Figure 8 signSGD error: the
        # analytic all-gather term equals the cost-model value with
        # incast_factor == 1.
        pred = compressed_time(rn50, SignSGDScheme(), inputs(p=96, bs=64))
        cost = SignSGDScheme().cost(rn50, 96)
        expected = oracle.allgather_time(cost.wire_bytes, 96, BW10, 10e-6)
        assert pred.comm_exposed == pytest.approx(expected)


class TestPaperShapeClaims:
    def test_resnet_powersgd_slower_at_batch64(self, rn50):
        s = speedup_over_syncsgd(rn50, PowerSGDScheme(4),
                                 inputs(p=96, bs=64))
        assert s < 0.05  # no meaningful win, often negative

    def test_bert_powersgd_wins_at_96(self):
        bert = get_model("bert-base")
        s = speedup_over_syncsgd(bert, PowerSGDScheme(4),
                                 inputs(p=96, bs=12))
        assert 0.10 < s < 0.40

    def test_topk_never_wins(self, rn50):
        for p in (16, 64, 96):
            s = speedup_over_syncsgd(rn50, TopKScheme(0.01),
                                     inputs(p=p, bs=64))
            assert s < 0

    def test_small_batch_favours_compression(self):
        rn101 = get_model("resnet101")
        s16 = speedup_over_syncsgd(rn101, PowerSGDScheme(4),
                                   inputs(p=64, bs=16))
        s64 = speedup_over_syncsgd(rn101, PowerSGDScheme(4),
                                   inputs(p=64, bs=64))
        assert s16 > s64
        assert s16 > 0.2


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputs:
    """NaN passes every ``<`` guard: these used to price to NaN (or, for
    ``gamma``, to a NaN syncSGD time beside a finite PowerSGD one)."""

    @pytest.mark.parametrize("field,label", [
        ("world_size", "world_size"),
        ("bandwidth_bytes_per_s", "bandwidth"),
        ("alpha_s", "alpha"),
        ("gamma", "gamma"),
        ("bucket_cap_bytes", "bucket_cap_bytes"),
    ])
    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_inputs_rejected(self, field, label, bad):
        kwargs = {"world_size": 8, "bandwidth_bytes_per_s": BW10,
                  field: bad}
        with pytest.raises(ConfigurationError, match=label):
            PerfModelInputs(**kwargs)

    @pytest.mark.parametrize("axis,label", [
        ("bandwidth_bytes_per_s", "bandwidth"),
        ("compute_factor", "compute factors"),
    ])
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    @pytest.mark.parametrize("scheme", [SyncSGDScheme(), PowerSGDScheme(4)],
                             ids=lambda s: s.label)
    def test_grid_axes_rejected(self, rn50, scheme, axis, label, bad):
        with pytest.raises(ConfigurationError, match=label):
            compressed_time_grid(rn50, scheme, inputs(bs=64),
                                 **{axis: np.array([2.0, bad])})

    @pytest.mark.parametrize("k,l", [(NAN, 1.0), (1.0, NAN), (INF, 1.0)])
    def test_tradeoff_axes_rejected(self, rn50, k, l):
        with pytest.raises(ConfigurationError, match="must be"):
            tradeoff_time_grid(rn50, PowerSGDScheme(4), np.array([k]),
                               np.array([l]), inputs(bs=64))

    @pytest.mark.parametrize("field", ["total", "compute", "encode_decode",
                                       "comm_exposed"])
    @pytest.mark.parametrize("bad", [NAN, INF, -1.0])
    def test_predicted_time_rejects_non_finite(self, field, bad):
        values = dict(total=1.0, compute=1.0, encode_decode=0.0,
                      comm_exposed=0.0)
        values[field] = bad
        with pytest.raises(ConfigurationError, match=field):
            PredictedTime(**values)


class TestOneKernel:
    def test_scalars_give_python_floats(self, rn50):
        for scheme in (SyncSGDScheme(), PowerSGDScheme(4), TopKScheme(0.01)):
            pred = predict(rn50, scheme, inputs(bs=64))
            assert all(type(value) is float for value in (
                pred.total, pred.compute, pred.comm_exposed))

    def test_batch_size_validated(self, rn50):
        with pytest.raises(ConfigurationError, match="batch_size"):
            syncsgd_time(rn50, inputs(bs=-4))
