"""One cost kernel for scalars and grids, against the scalar oracles.

The §4 model and its α+β collectives are written once, array-generic:
the one-point functions (``syncsgd_time``, ``compressed_time``,
``predict``) run the kernel on Python scalars, the grid functions on
broadcast arrays.  ``tests/oracle.py`` keeps the one-point scalar code
they replaced.  Two contracts are checked here:

* seeded properties — one-point calls, grid cells and tradeoff cells
  equal the oracles bit for bit, over every model and every scheme of
  the advisor's candidate grid (world size 1 included); so do
  ``T_comp``, every all-reduce algorithm priced over a payload array,
  and the strong-scaling sweep's one grid call;
* telemetry — one public call advances the collective counters by what
  the oracle loop records (calls exactly; bytes up to summation order,
  exactly for whole-byte payloads).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import candidate_grid
from repro.collectives import (
    allgather_time,
    double_tree_allreduce_time,
    hierarchical_allreduce_time,
    parameter_server_time,
    ring_allreduce_time,
)
from repro.compression import FP16Scheme, PowerSGDScheme, TopKScheme
from repro.compression.kernel_cost import v100_kernel_profile
from repro.compute import ComputeModel
from repro.core import (
    PerfModelInputs,
    backward_time_grid,
    compressed_time,
    compressed_time_grid,
    predict,
    strong_scaling_sweep,
    syncsgd_time,
    syncsgd_time_grid,
    tradeoff_time_grid,
)
from repro.core.advisor import default_candidates
from repro.hardware import P100, T4, V100
from repro.models import available_models, get_model
from repro.telemetry import metrics as telemetry_metrics
from repro.units import MIB

from . import oracle


@pytest.fixture(autouse=True)
def _isolate_registry():
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)


def fields(pred):
    return (pred.total, pred.compute, pred.encode_decode, pred.comm_exposed)


def random_inputs(rng):
    """A random base point: α is sometimes exactly 0 and the bucket cap
    sometimes holds the whole gradient in one bucket."""
    return PerfModelInputs(
        world_size=8, bandwidth_bytes_per_s=1e9,
        alpha_s=float(rng.choice([0.0, rng.uniform(0.0, 1e-4)])),
        gamma=float(rng.uniform(1.0, 1.3)),
        batch_size=int(rng.integers(1, 129)),
        bucket_cap_bytes=float(rng.choice([25 * MIB, 4e9,
                                           rng.uniform(1, 64) * MIB])))


@pytest.mark.parametrize("model_name", available_models())
def test_kernel_matches_oracles_bit_for_bit(model_name):
    rng = np.random.default_rng([24, available_models().index(model_name)])
    model = get_model(model_name)
    prof = v100_kernel_profile()
    base = random_inputs(rng)
    sizes = np.unique(np.concatenate((
        [1], rng.integers(2, 129, size=int(rng.integers(1, 3))))))
    bw = rng.uniform(1e8, 4e9, size=2)
    factors = rng.uniform(0.5, 4.0, size=2)
    ks = rng.uniform(1.0, 8.0, size=2)
    ls = rng.uniform(1.0, 8.0, size=2)

    base_grid = syncsgd_time_grid(model, base, world_size=sizes[:, None],
                                  bandwidth_bytes_per_s=bw[None, :])
    for i, p in enumerate(sizes):
        for j, b in enumerate(bw):
            point = replace(base, world_size=int(p),
                            bandwidth_bytes_per_s=float(b))
            expected = fields(oracle.syncsgd_time(model, point))
            assert fields(syncsgd_time(model, point)) == expected
            assert fields(base_grid.at((i, j))) == expected

    for scheme in candidate_grid():
        grid = compressed_time_grid(model, scheme, base,
                                    world_size=sizes[:, None],
                                    bandwidth_bytes_per_s=bw[None, :])
        for i, p in enumerate(sizes):
            for j, b in enumerate(bw):
                point = replace(base, world_size=int(p),
                                bandwidth_bytes_per_s=float(b))
                expected = fields(oracle.compressed_time(model, scheme,
                                                         point))
                assert fields(grid.at((i, j))) == expected
                assert fields(compressed_time(model, scheme,
                                              point)) == expected
                assert fields(predict(model, scheme, point)) == expected

        grid = compressed_time_grid(model, scheme, base,
                                    compute_factor=factors)
        for i, f in enumerate(factors):
            expected = oracle.compressed_time(
                model, scheme, base, V100.scaled(float(f)),
                prof.scaled(float(f)))
            assert fields(grid.at(i)) == fields(expected)

        for p in (1, int(sizes[-1])):
            point = replace(base, world_size=p)
            grid = tradeoff_time_grid(model, scheme, ks[:, None],
                                      ls[None, :], point)
            for i, k in enumerate(ks):
                for j, l in enumerate(ls):
                    assert grid.total[i, j] == oracle.tradeoff_time(
                        model, scheme, float(k), float(l), point)


@pytest.mark.parametrize("gpu", [V100, T4, P100], ids=lambda g: g.name)
def test_t_comp_is_the_compute_model_formula(gpu):
    """``ComputeModel.backward_time`` and the kernel's ``T_comp`` grid
    equal ``ComputeModel``'s old formula, for every zoo model."""
    rng = np.random.default_rng([30, [V100, T4, P100].index(gpu)])
    batches = np.concatenate(([1, 2, 1022], rng.integers(1, 1023, size=40)))
    for name in available_models():
        model = get_model(name)
        compute = ComputeModel(model, gpu)
        grid = backward_time_grid(model, gpu, batches, np.asarray(1.0))
        for bs, cell in zip(batches.tolist(), grid.tolist()):
            expected = oracle.backward_time(model, gpu, bs)
            got = compute.backward_time(bs)
            assert type(got) is float
            assert got == expected == cell, (name, bs)


def _draw_payloads(rng):
    """Whole-byte payloads (zero included), as the simulator's buckets
    are, so the summed bytes counter is exact in any order."""
    n = int(rng.integers(1, 12))
    payloads = np.floor(rng.uniform(0, 2e8, size=n))
    payloads[rng.random(n) < 0.2] = 0.0
    return payloads


def _world(rng, high):
    """A world size in ``[1, high)``, exactly 1 in a tenth of draws."""
    return 1 if rng.random() < 0.1 else int(rng.integers(1, high))


ALLREDUCE_CASES = {
    "double_tree": lambda rng: (
        double_tree_allreduce_time, oracle.double_tree_allreduce_time,
        (_world(rng, 257), float(rng.uniform(1e8, 4e10)),
         float(rng.choice([0.0, rng.uniform(0, 1e-4)])))),
    "parameter_server": lambda rng: (
        parameter_server_time, oracle.parameter_server_time,
        (_world(rng, 257), float(rng.uniform(1e8, 4e10)),
         float(rng.choice([0.0, rng.uniform(0, 1e-4)])),
         float(rng.choice([1.0, rng.uniform(1.0, 3.0)])))),
    "hierarchical": lambda rng: (
        hierarchical_allreduce_time, oracle.hierarchical_allreduce_time,
        (_world(rng, 33), _world(rng, 9),
         float(rng.uniform(1e8, 4e10)), float(rng.uniform(1e10, 3e11)),
         float(rng.choice([0.0, rng.uniform(0, 1e-4)])))),
}


@pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_CASES))
def test_allreduce_payload_array_matches_scalar_loop(algorithm):
    """An array of payloads prices each one exactly as the old scalar
    formula did, returns Python floats for scalars, and advances the
    collective counters by what the scalar loop records."""
    rng = np.random.default_rng([30, sorted(ALLREDUCE_CASES).index(
        algorithm)])
    for _ in range(200):
        fn, scalar, args = ALLREDUCE_CASES[algorithm](rng)
        payloads = _draw_payloads(rng)
        priced = {}
        got = collective_counters(
            lambda: priced.setdefault("array", fn(payloads, *args)))
        want = collective_counters(lambda: priced.setdefault(
            "loop", [scalar(float(n), *args) for n in payloads]))
        assert priced["array"].tolist() == priced["loop"]
        assert got == want
        one = fn(float(payloads[0]), *args)
        assert type(one) is float and one == priced["loop"][0]


def test_strong_scaling_sweep_is_one_grid_call_equal_to_the_predict_loop():
    rng = np.random.default_rng(30)
    global_batch = 384
    divisors = [d for d in range(1, global_batch + 1)
                if global_batch % d == 0]
    for name in ("resnet50", "resnet101", "vgg16", "bert-base"):
        model = get_model(name)
        for scheme in default_candidates():
            base = random_inputs(rng)
            sizes = rng.choice(divisors, size=8, replace=False).tolist()
            points = strong_scaling_sweep(model, scheme, base, global_batch,
                                          sizes)
            expected = oracle.strong_scaling_sweep(model, scheme, base,
                                                   global_batch, sizes)
            assert [(pt.world_size, pt.per_gpu_batch, pt.iteration_s)
                    for pt in points] == expected
            assert [pt.speedup_vs_min_world for pt in points] == [
                expected[0][2] / t for _, _, t in expected]


# ----- telemetry contract ----------------------------------------------------


def collective_counters(call):
    """The collective counters ``call`` advances, on a fresh registry."""
    registry = telemetry_metrics.enable()
    call()
    return {key: value
            for key, value in registry.snapshot()["counters"].items()
            if key.startswith("collective_")}


def assert_same_counters(got, expected):
    assert sorted(got) == sorted(expected)
    for key, value in expected.items():
        if key.startswith("collective_bytes_total"):
            assert got[key] == pytest.approx(value, rel=1e-12)
        else:
            assert got[key] == value


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def inputs_at(p=16, **kw):
    return PerfModelInputs(world_size=p, bandwidth_bytes_per_s=1.25e9,
                           batch_size=32, **kw)


@pytest.mark.parametrize("p", [1, 16])
def test_syncsgd_point_records_what_the_oracle_does(rn50, p):
    point = inputs_at(p)
    got = collective_counters(lambda: syncsgd_time(rn50, point))
    expected = collective_counters(lambda: oracle.syncsgd_time(rn50, point))
    assert_same_counters(got, expected)
    if p > 1:
        buckets = len(rn50.bucket_sizes_bytes(point.bucket_cap_bytes))
        assert got['collective_calls_total{algorithm="ring_allreduce"}'] \
            == buckets


@pytest.mark.parametrize("scheme", [PowerSGDScheme(rank=4), FP16Scheme(),
                                    TopKScheme(0.01)],
                         ids=lambda s: s.label)
def test_compressed_grid_records_the_oracle_loop(rn50, scheme):
    """World size 1 cells price no collective, exactly like the loop;
    the batch axis multiplies the cells like any other axis."""
    base = inputs_at()
    sizes = np.array([1, 4, 16])
    bw = np.array([1e9, 2.5e9])
    batches = np.array([16, 64])
    got = collective_counters(lambda: compressed_time_grid(
        rn50, scheme, base, world_size=sizes[:, None, None],
        bandwidth_bytes_per_s=bw[None, :, None],
        batch_size=batches[None, None, :]))

    def loop():
        for p in sizes:
            for b in bw:
                for bs in batches:
                    oracle.compressed_time(rn50, scheme, replace(
                        base, world_size=int(p),
                        bandwidth_bytes_per_s=float(b),
                        batch_size=int(bs)))
    assert_same_counters(got, collective_counters(loop))


@pytest.mark.parametrize("incast_factor", [1.0, 1.5])
def test_allgather_array_call_records_one_call_per_cell(incast_factor):
    payloads = np.array([1e3, 2.5e6, 1e9])
    sizes = np.array([[1], [8], [96]])
    got = collective_counters(lambda: allgather_time(
        payloads, sizes, 1.25e9, 25e-6, incast_factor=incast_factor))

    def loop():
        for p in sizes[:, 0]:
            for n in payloads:
                oracle.allgather_time(float(n), int(p), 1.25e9, 25e-6,
                                      incast_factor)
    expected = collective_counters(loop)
    assert_same_counters(got, expected)
    assert got['collective_calls_total{algorithm="allgather"}'] == 9


@pytest.mark.parametrize("incast_factor", [1.0, 1.5])
@pytest.mark.parametrize("p", [1, 8])
def test_payload_array_call_records_one_call_per_payload(p, incast_factor):
    """Only the payloads vary, as in the batch kernel's bucket pricing."""
    payloads = np.array([1e3, 2.5e6, 1e9, 7.0])
    got = collective_counters(lambda: (
        allgather_time(payloads, p, 1.25e9, 25e-6,
                       incast_factor=incast_factor),
        ring_allreduce_time(payloads, p, 1.25e9, 25e-6),
        ring_allreduce_time(payloads[:0], p, 1.25e9, 25e-6)))

    def loop():
        for n in payloads:
            oracle.allgather_time(float(n), p, 1.25e9, 25e-6, incast_factor)
            oracle.ring_allreduce_time(float(n), p, 1.25e9, 25e-6)
    assert_same_counters(got, collective_counters(loop))


def test_ring_scalar_call_records_like_the_oracle():
    got = collective_counters(
        lambda: ring_allreduce_time(2**20, 8, 1.25e9, 25e-6))
    expected = collective_counters(
        lambda: oracle.ring_allreduce_time(2**20, 8, 1.25e9, 25e-6))
    assert got == expected
