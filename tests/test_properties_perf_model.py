"""Property-based tests for the performance model and schemes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
    make_scheme,
)
from repro.core import PerfModelInputs, predict, syncsgd_time
from repro.models import get_model
from repro.units import gbps_to_bytes_per_s

MODELS = ("resnet50", "resnet101", "bert-base")

world_sizes = st.sampled_from([1, 4, 8, 16, 32, 64, 96, 128])
bandwidths = st.floats(min_value=0.5, max_value=100.0)
batches = st.sampled_from([1, 8, 16, 32, 64])
model_names = st.sampled_from(MODELS)


def make_inputs(p, gbps, bs):
    return PerfModelInputs(world_size=p,
                           bandwidth_bytes_per_s=gbps_to_bytes_per_s(gbps),
                           batch_size=bs)


@given(model_names, world_sizes, bandwidths, batches)
@settings(max_examples=60, deadline=None)
def test_prediction_always_positive_and_bounded_below_by_compute(
        name, p, gbps, bs):
    from repro.compute import ComputeModel
    from repro.hardware import V100
    model = get_model(name)
    pred = syncsgd_time(model, make_inputs(p, gbps, bs))
    t_comp = ComputeModel(model, V100).backward_time(bs)
    assert pred.total >= t_comp - 1e-12
    assert pred.total > 0


@given(model_names, world_sizes, batches,
       st.floats(min_value=1.0, max_value=20.0),
       st.floats(min_value=1.05, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_more_bandwidth_never_slower(name, p, bs, gbps, factor):
    model = get_model(name)
    slow = syncsgd_time(model, make_inputs(p, gbps, bs)).total
    fast = syncsgd_time(model, make_inputs(p, gbps * factor, bs)).total
    assert fast <= slow + 1e-12


@given(model_names, world_sizes, bandwidths, batches)
@settings(max_examples=60, deadline=None)
def test_compressed_prediction_decomposes(name, p, gbps, bs):
    model = get_model(name)
    pred = predict(model, PowerSGDScheme(4), make_inputs(p, gbps, bs))
    assert pred.total == pytest.approx(
        pred.compute + pred.encode_decode + pred.comm_exposed, rel=1e-9)


@given(model_names, bandwidths, batches,
       st.sampled_from([(4, 8), (8, 16), (16, 96), (32, 64)]))
@settings(max_examples=60, deadline=None)
def test_gather_schemes_never_get_faster_with_scale(name, gbps, bs, pair):
    small_p, large_p = pair
    model = get_model(name)
    scheme = SignSGDScheme()
    small = predict(model, scheme, make_inputs(small_p, gbps, bs)).total
    large = predict(model, scheme, make_inputs(large_p, gbps, bs)).total
    assert large >= small - 1e-12


@given(st.sampled_from(["topk", "randomk", "dgc"]),
       st.floats(min_value=0.001, max_value=0.4),
       st.floats(min_value=1.5, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_sparser_is_smaller_on_wire(scheme_name, fraction, factor):
    model = get_model("resnet50")
    sparse = make_scheme(scheme_name, fraction=fraction).cost(model, 16)
    denser = make_scheme(scheme_name,
                         fraction=min(1.0, fraction * factor)).cost(model, 16)
    assert sparse.wire_bytes <= denser.wire_bytes + 1e-9


@given(st.integers(min_value=1, max_value=32))
@settings(max_examples=30, deadline=None)
def test_powersgd_wire_monotone_in_rank(rank):
    model = get_model("resnet50")
    a = PowerSGDScheme(rank).cost(model, 16).wire_bytes
    b = PowerSGDScheme(rank + 1).cost(model, 16).wire_bytes
    assert a <= b


@given(model_names, world_sizes)
@settings(max_examples=40, deadline=None)
def test_every_scheme_cost_is_sane(name, p):
    from repro.compression import available_schemes
    model = get_model(name)
    for scheme_name in available_schemes():
        cost = make_scheme(scheme_name).cost(model, p)
        assert cost.wire_bytes > 0
        assert cost.encode_decode_s >= 0
        assert cost.messages >= 1
        assert cost.gather_stack_bytes >= 0
        if cost.all_reducible:
            assert cost.gather_stack_bytes == 0


@given(model_names, st.sampled_from([2, 8, 32, 96]), bandwidths, batches)
@settings(max_examples=40, deadline=None)
def test_speedup_definition_consistent(name, p, gbps, bs):
    from repro.core import speedup_over_syncsgd
    model = get_model(name)
    inputs = make_inputs(p, gbps, bs)
    scheme = TopKScheme(0.01)
    s = speedup_over_syncsgd(model, scheme, inputs)
    base = syncsgd_time(model, inputs).total
    cand = predict(model, scheme, inputs).total
    assert s == pytest.approx((base - cand) / base, rel=1e-9)
