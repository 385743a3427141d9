"""Grid kernel bit-identity and the exact crossover solver.

The contract under test: every cell of a :class:`TimingGrid` is
bit-identical (``==`` on float64, not approx) to the one-point scalar
oracle in ``tests/oracle.py`` called with the same operands, across
every axis and scheme family; and the
Brent-polished crossover solver agrees with the historical dense-sweep
interpolation to within one sweep grid step.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.compression import (
    FP16Scheme,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.compression.kernel_cost import v100_kernel_profile
from repro.core import (
    PerfModelInputs,
    TimingGrid,
    TradeoffPoint,
    WhatIfPoint,
    bandwidth_sweep,
    compressed_time_grid,
    compute_sweep,
    encode_tradeoff_grid,
    find_crossover_gbps,
    solve_crossover,
    sweep_crossings,
    syncsgd_time_grid,
    tradeoff_time_grid,
)
from repro.analysis import candidate_grid
from repro.core.grid import _timing_grid
from repro.errors import ConfigurationError
from repro.hardware import V100
from repro.models import available_models, get_model
from repro.units import gbps_to_bytes_per_s

from .oracle import compressed_time, syncsgd_time, tradeoff_time

#: One scheme per cost-model family: dense baseline, fp16 DDP-overlap
#: bucket compression, low-rank all-reducible, sparse gather-based, and
#: sign compression (gather).
SCHEMES = [
    SyncSGDScheme(),
    FP16Scheme(),
    PowerSGDScheme(rank=4),
    TopKScheme(0.01),
    SignSGDScheme(),
]


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def inputs_at(gbps=10.0, p=16, bs=32, **kw):
    return PerfModelInputs(world_size=p,
                           bandwidth_bytes_per_s=gbps_to_bytes_per_s(gbps),
                           batch_size=bs, **kw)


def assert_cell_equal(cell, scalar):
    """Exact (bitwise) equality of a grid cell and a scalar prediction."""
    assert cell.total == scalar.total
    assert cell.compute == scalar.compute
    assert cell.encode_decode == scalar.encode_decode
    assert cell.comm_exposed == scalar.comm_exposed


class TestTimingGridAPI:
    def test_at_returns_scalar_predicted_time(self, rn50):
        grid = syncsgd_time_grid(
            rn50, inputs_at(),
            bandwidth_bytes_per_s=np.asarray([1e9, 2e9]))
        assert grid.shape == (2,)
        assert grid.size == 2
        cell = grid.at(1)
        assert isinstance(cell.total, float) and cell.total > 0

    def test_zero_d_grid(self, rn50):
        grid = syncsgd_time_grid(rn50, inputs_at())
        assert grid.shape == ()
        assert_cell_equal(grid.at(()), syncsgd_time(rn50, inputs_at()))

    def test_component_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            TimingGrid(total=np.zeros(3), compute=np.zeros(2),
                       encode_decode=np.zeros(3), comm_exposed=np.zeros(3))


def draw_terms(rng, shape):
    """Four kernel terms of every kind ``_timing_grid`` may receive,
    and the axis inputs some of them are."""
    full = rng.random(shape)
    inputs = (full, rng.random(shape[-1:]))
    terms = []
    for _ in range(4):
        kind = int(rng.integers(7))
        if kind == 0:
            term = float(rng.random())
        elif kind == 1:
            term = rng.random(tuple(1 if rng.random() < 0.5 else n
                                    for n in shape))
        elif kind == 2:
            term = rng.random(shape)  # fresh: may be kept as it is
        elif kind == 3:
            term = rng.random((2, *shape))[1]  # a view
        elif kind == 4:
            term = rng.random(shape)
            term.flags.writeable = False
        elif kind == 5:
            term = inputs[int(rng.integers(2))]
        else:
            term = terms[-1] if terms else full  # a repeat
        terms.append(term)
    return terms, inputs


class TestTimingGridTerms:
    @pytest.mark.parametrize("seed", range(12))
    def test_terms_are_owned_writable_and_unaliased(self, seed):
        rng = np.random.default_rng([13, seed])
        shape = tuple(int(n) for n in rng.integers(1, 5, size=2))
        terms, inputs = draw_terms(rng, shape)
        want = [np.broadcast_to(term, shape).copy() for term in terms]
        grid = _timing_grid(terms, shape, inputs)
        arrays = (grid.total, grid.compute, grid.encode_decode,
                  grid.comm_exposed)
        for k, (got, expected) in enumerate(zip(arrays, want)):
            assert got.shape == shape
            assert got.tobytes() == expected.tobytes()
            assert got.flags.writeable and got.flags.owndata
            assert not any(np.shares_memory(got, other)
                           for other in (*inputs, *arrays[:k]))

    def test_grid_components_do_not_share_memory(self, rn50):
        bw = np.linspace(1e9, 4e9, 8)[None, :].repeat(3, axis=0)
        sizes = np.asarray([1, 8, 64])[:, None]
        for scheme in (None, *SCHEMES):
            if scheme is None:
                grid = syncsgd_time_grid(rn50, inputs_at(),
                                         bandwidth_bytes_per_s=bw,
                                         world_size=sizes)
            else:
                grid = compressed_time_grid(rn50, scheme, inputs_at(),
                                            bandwidth_bytes_per_s=bw,
                                            world_size=sizes)
            arrays = (grid.total, grid.compute, grid.encode_decode,
                      grid.comm_exposed)
            for k, got in enumerate(arrays):
                assert got.flags.writeable and got.flags.owndata
                assert not any(np.shares_memory(got, other)
                               for other in (bw, sizes, *arrays[:k]))


class TestAxisValidation:
    def test_nonpositive_bandwidth(self, rn50):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            syncsgd_time_grid(rn50, inputs_at(),
                              bandwidth_bytes_per_s=np.asarray([1e9, 0.0]))

    def test_world_size_below_one(self, rn50):
        with pytest.raises(ConfigurationError, match="world_size"):
            syncsgd_time_grid(rn50, inputs_at(),
                              world_size=np.asarray([0, 4]))

    def test_nonpositive_compute_factor(self, rn50):
        with pytest.raises(ConfigurationError, match="compute factors"):
            syncsgd_time_grid(rn50, inputs_at(),
                              compute_factor=np.asarray([-1.0]))

    def test_batch_size_below_one(self, rn50):
        with pytest.raises(ConfigurationError, match="batch_size"):
            syncsgd_time_grid(rn50, inputs_at(),
                              batch_size=np.asarray([0]))


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
    def test_bandwidth_axis(self, rn50, scheme):
        base = inputs_at()
        bw = np.asarray([gbps_to_bytes_per_s(g)
                         for g in (1.0, 5.0, 10.0, 25.0)])
        grid = compressed_time_grid(rn50, scheme, base,
                                    bandwidth_bytes_per_s=bw)
        for i, b in enumerate(bw):
            swept = base.with_bandwidth(float(b))
            assert_cell_equal(grid.at(i),
                              compressed_time(rn50, scheme, swept))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
    def test_world_size_axis_including_single(self, rn50, scheme):
        base = inputs_at()
        sizes = np.asarray([1, 2, 8, 64])
        grid = compressed_time_grid(rn50, scheme, base, world_size=sizes)
        for i, p in enumerate(sizes):
            swept = PerfModelInputs(
                world_size=int(p),
                bandwidth_bytes_per_s=base.bandwidth_bytes_per_s,
                batch_size=base.batch_size)
            assert_cell_equal(grid.at(i),
                              compressed_time(rn50, scheme, swept))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.label)
    def test_compute_factor_axis(self, rn50, scheme):
        base = inputs_at()
        factors = np.asarray([1.0, 1.5, 2.0, 4.0])
        grid = compressed_time_grid(rn50, scheme, base,
                                    compute_factor=factors)
        prof = v100_kernel_profile()
        for i, f in enumerate(factors):
            scalar = compressed_time(rn50, scheme, base,
                                     V100.scaled(float(f)),
                                     prof.scaled(float(f)))
            assert_cell_equal(grid.at(i), scalar)

    def test_batch_size_axis(self, rn50):
        base = inputs_at()
        batches = np.asarray([8, 16, 32, 64])
        grid = syncsgd_time_grid(rn50, base, batch_size=batches)
        for i, bs in enumerate(batches):
            swept = PerfModelInputs(
                world_size=base.world_size,
                bandwidth_bytes_per_s=base.bandwidth_bytes_per_s,
                batch_size=int(bs))
            assert_cell_equal(grid.at(i), syncsgd_time(rn50, swept))

    def test_outer_product_grid(self, rn50):
        """2-D bandwidth x compute-factor grid matches the nested
        scalar loop cell by cell."""
        base = inputs_at()
        bw = np.asarray([gbps_to_bytes_per_s(g) for g in (2.0, 10.0, 25.0)])
        factors = np.asarray([1.0, 2.0])
        scheme = PowerSGDScheme(rank=4)
        grid = compressed_time_grid(
            rn50, scheme, base,
            bandwidth_bytes_per_s=bw[:, None],
            compute_factor=factors[None, :])
        assert grid.shape == (3, 2)
        prof = v100_kernel_profile()
        for i, b in enumerate(bw):
            for j, f in enumerate(factors):
                scalar = compressed_time(
                    rn50, scheme, base.with_bandwidth(float(b)),
                    V100.scaled(float(f)), prof.scaled(float(f)))
                assert_cell_equal(grid.at((i, j)), scalar)

    def test_tradeoff_grid_matches_scalar(self, rn50):
        base = inputs_at(p=64, bs=64)
        scheme = PowerSGDScheme(rank=4)
        ks = np.asarray([1.0, 2.0, 4.0])
        ls = np.asarray([1.0, 3.0])
        grid = tradeoff_time_grid(rn50, scheme, ks[:, None], ls[None, :],
                                  base)
        for i, k in enumerate(ks):
            for j, l in enumerate(ls):
                assert grid.total[i, j] == tradeoff_time(
                    rn50, scheme, float(k), float(l), base)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_inputs(self, seed):
        """Grid == scalar on randomized PerfModelInputs across models
        and schemes (the acceptance-criteria fuzz check)."""
        rng = np.random.default_rng(seed)
        model = get_model(
            str(rng.choice(["resnet50", "resnet101", "bert-base"])))
        scheme = SCHEMES[int(rng.integers(len(SCHEMES)))]
        base = PerfModelInputs(
            world_size=int(rng.choice([1, 2, 4, 16, 64])),
            bandwidth_bytes_per_s=float(rng.uniform(1e8, 4e9)),
            alpha_s=float(rng.uniform(0.0, 1e-4)),
            gamma=float(rng.uniform(1.0, 1.3)),
            batch_size=int(rng.integers(1, 65)))
        bw = rng.uniform(1e8, 4e9, size=5)
        grid = compressed_time_grid(model, scheme, base,
                                    bandwidth_bytes_per_s=bw)
        for i, b in enumerate(bw):
            scalar = compressed_time(model, scheme,
                                     base.with_bandwidth(float(b)))
            assert_cell_equal(grid.at(i), scalar)

    @pytest.mark.parametrize("seed", range(6))
    def test_world_size_by_bandwidth_property(self, seed):
        """Every cell of a random 2-D world-size x bandwidth grid (world
        sizes including 1) equals the scalar model, for every scheme of
        the advisor's candidate grid."""
        rng = np.random.default_rng([5, seed])
        models = available_models()
        model = get_model(models[int(rng.integers(len(models)))])
        base = PerfModelInputs(
            world_size=8, bandwidth_bytes_per_s=1e9,
            alpha_s=float(rng.uniform(0.0, 1e-4)),
            gamma=float(rng.uniform(1.0, 1.3)),
            batch_size=int(rng.integers(1, 65)))
        sizes = np.unique(np.concatenate((
            [1], rng.integers(2, 129, size=int(rng.integers(1, 4))))))
        bw = rng.uniform(1e8, 4e9, size=int(rng.integers(2, 5)))
        for scheme in candidate_grid():
            grid = compressed_time_grid(
                model, scheme, base, bandwidth_bytes_per_s=bw[None, :],
                world_size=sizes[:, None])
            assert grid.shape == (sizes.size, bw.size)
            for i, p in enumerate(sizes):
                for j, b in enumerate(bw):
                    point = replace(base, world_size=int(p),
                                    bandwidth_bytes_per_s=float(b))
                    assert_cell_equal(grid.at((i, j)),
                                      compressed_time(model, scheme, point))
        grid = syncsgd_time_grid(model, base,
                                 bandwidth_bytes_per_s=bw[None, :],
                                 world_size=sizes[:, None])
        for i, p in enumerate(sizes):
            for j, b in enumerate(bw):
                point = replace(base, world_size=int(p),
                                bandwidth_bytes_per_s=float(b))
                assert_cell_equal(grid.at((i, j)),
                                  syncsgd_time(model, point))

    def test_sweeps_match_per_point_scalar(self, rn50):
        """Each sweep's grid path reproduces the scalar model called
        once per point -- identical WhatIfPoint / TradeoffPoint tuples."""
        base = inputs_at(p=64, bs=64)
        scheme = PowerSGDScheme(rank=4)
        gbps = (1.0, 5.0, 9.0, 13.0, 30.0)
        expected = []
        for g in gbps:
            swept = base.with_bandwidth(gbps_to_bytes_per_s(g))
            expected.append(WhatIfPoint(
                x=g, syncsgd_s=syncsgd_time(rn50, swept).total,
                compressed_s=compressed_time(rn50, scheme, swept).total))
        assert bandwidth_sweep(rn50, scheme, gbps, base) == tuple(expected)
        factors = (1.0, 2.0, 3.0, 4.0)
        prof = v100_kernel_profile()
        expected = [WhatIfPoint(
            x=f, syncsgd_s=syncsgd_time(rn50, base, V100.scaled(f)).total,
            compressed_s=compressed_time(rn50, scheme, base, V100.scaled(f),
                                         prof.scaled(f)).total)
            for f in factors]
        assert compute_sweep(rn50, scheme, factors, base) == tuple(expected)
        ks, ls = (1.0, 2.0, 4.0), (1.0, 2.0, 3.0)
        baseline = syncsgd_time(rn50, base).total
        expected = [TradeoffPoint(
            k=k, l=l, predicted_s=tradeoff_time(rn50, scheme, k, l, base),
            syncsgd_s=baseline) for k in ks for l in ls]
        assert (encode_tradeoff_grid(rn50, scheme, ks, ls, base)
                == tuple(expected))


def synthetic_points(speedups):
    """WhatIfPoints with prescribed speedups at x = 1, 2, 3, ..."""
    return tuple(
        WhatIfPoint(x=float(i + 1), syncsgd_s=1.0, compressed_s=1.0 - s)
        for i, s in enumerate(speedups))


class TestCrossings:
    def test_single_down_crossing_interpolated(self):
        points = synthetic_points([0.2, 0.1, -0.1, -0.2])
        crossings = sweep_crossings(points)
        assert len(crossings) == 1
        assert crossings[0].direction == "down"
        assert crossings[0].x == pytest.approx(2.5)

    def test_multiple_crossings_all_reported(self):
        points = synthetic_points([0.1, -0.1, -0.05, 0.1, -0.1])
        crossings = sweep_crossings(points)
        assert [c.direction for c in crossings] == ["down", "up", "down"]
        assert crossings[0].x < crossings[1].x < crossings[2].x

    def test_no_crossing_empty(self):
        assert sweep_crossings(synthetic_points([0.3, 0.2, 0.1])) == ()

    def test_find_crossover_matches_single_crossing(self):
        points = synthetic_points([0.2, 0.1, -0.1, -0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_crossover_gbps(points) == sweep_crossings(points)[0].x

    def test_find_crossover_warns_on_multiple(self):
        points = synthetic_points([0.1, -0.1, 0.1, -0.1])
        with pytest.warns(UserWarning, match="sign changes"):
            first = find_crossover_gbps(points)
        assert first == sweep_crossings(points)[0].x

    def test_find_crossover_none_when_always_helping(self):
        assert find_crossover_gbps(synthetic_points([0.3, 0.2])) is None


class TestSolveCrossover:
    FIG11_GRID = (1, 2, 3, 5, 7, 9, 11, 13, 15, 20, 25, 30)

    @pytest.mark.parametrize("model_name,bs", [
        ("resnet50", 64), ("resnet101", 64)])
    def test_agrees_with_dense_sweep_within_grid_step(self, model_name, bs):
        model = get_model(model_name)
        scheme = PowerSGDScheme(rank=4)
        base = inputs_at(p=64, bs=bs)
        points = bandwidth_sweep(model, scheme, self.FIG11_GRID, base)
        estimate = find_crossover_gbps(points)
        assert estimate is not None
        crossings = solve_crossover(model, scheme, base, 1.0, 30.0)
        downs = [c for c in crossings if c.direction == "down"]
        assert len(downs) == 1
        # One original grid step around the estimate (the coarse sweep's
        # resolution near the fig11 crossovers is 2 Gbit/s).
        step = max(b - a for a, b in zip(self.FIG11_GRID,
                                         self.FIG11_GRID[1:])
                   if a <= estimate <= b)
        assert abs(downs[0].x - estimate) <= step

    def test_bert_has_no_crossing_in_sweep_range(self):
        model = get_model("bert-base")
        base = inputs_at(p=64, bs=12)
        assert solve_crossover(model, PowerSGDScheme(rank=4), base,
                               1.0, 30.0) == ()

    def test_root_is_exact(self, rn50):
        """At the solved root the two models are equal to ~xtol, far
        tighter than any sweep interpolation."""
        scheme = PowerSGDScheme(rank=4)
        base = inputs_at(p=64, bs=64)
        (crossing,) = [c for c in solve_crossover(rn50, scheme, base,
                                                  1.0, 30.0)
                       if c.direction == "down"]
        swept = base.with_bandwidth(gbps_to_bytes_per_s(crossing.x))
        sync = syncsgd_time(rn50, swept).total
        comp = compressed_time(rn50, scheme, swept).total
        assert abs(sync - comp) / sync < 1e-6

    def test_validates_range(self, rn50):
        scheme = PowerSGDScheme(rank=4)
        with pytest.raises(ConfigurationError, match="lo_gbps < hi_gbps"):
            solve_crossover(rn50, scheme, inputs_at(), 10.0, 1.0)
        with pytest.raises(ConfigurationError, match="must be > 0"):
            solve_crossover(rn50, scheme, inputs_at(), 0.0, 10.0)
        with pytest.raises(ConfigurationError, match="samples"):
            solve_crossover(rn50, scheme, inputs_at(), 1.0, 10.0, samples=1)
