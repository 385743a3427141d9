"""Analytic collective cost models."""

import numpy as np
import pytest

from repro.collectives import (
    allgather_time,
    broadcast_time,
    double_tree_allreduce_time,
    parameter_server_time,
    pick_allreduce_time,
    reduce_scatter_time,
    ring_allreduce_time,
)
from repro.errors import ConfigurationError

BW = 1.25e9   # 10 Gbit/s
ALPHA = 25e-6


class TestRingAllreduce:
    def test_matches_paper_equation(self):
        # 2a(p-1) + 2n(p-1)/(p BW)
        n, p = 100e6, 16
        expected = 2 * ALPHA * 15 + 2 * n * 15 / (16 * BW)
        assert ring_allreduce_time(n, p, BW, ALPHA) == pytest.approx(expected)

    def test_single_worker_free(self):
        assert ring_allreduce_time(1e9, 1, BW, ALPHA) == 0.0

    def test_bandwidth_term_nearly_constant_in_p(self):
        # The all-reduce scalability property the paper leans on.
        t16 = ring_allreduce_time(100e6, 16, BW, 0.0)
        t96 = ring_allreduce_time(100e6, 96, BW, 0.0)
        assert t96 / t16 < 1.07

    def test_latency_linear_in_p(self):
        t8 = ring_allreduce_time(0.0, 8, BW, ALPHA)
        t96 = ring_allreduce_time(0.0, 96, BW, ALPHA)
        assert t96 / t8 == pytest.approx(95 / 7)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(-1, 4, BW, ALPHA)
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(1, 0, BW, ALPHA)
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(1, 4, 0, ALPHA)
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(1, 4, BW, -1)


class TestDoubleTree:
    def test_lower_latency_at_scale(self):
        # Tiny message: tree's log(p) latency beats ring's linear.
        tree = double_tree_allreduce_time(1e3, 96, BW, ALPHA)
        ring = ring_allreduce_time(1e3, 96, BW, ALPHA)
        assert tree < ring

    def test_block_overhead_hurts_small_scale(self):
        # Large message, few nodes: ring wins (NCCL's documented behaviour).
        tree = double_tree_allreduce_time(100e6, 4, BW, ALPHA)
        ring = ring_allreduce_time(100e6, 4, BW, ALPHA)
        assert ring < tree

    def test_pick_chooses_min(self):
        for n, p in ((1e3, 96), (100e6, 4)):
            assert pick_allreduce_time(n, p, BW, ALPHA) == pytest.approx(
                min(ring_allreduce_time(n, p, BW, ALPHA),
                    double_tree_allreduce_time(n, p, BW, ALPHA)))

    def test_invalid_block(self):
        with pytest.raises(ConfigurationError):
            double_tree_allreduce_time(1e6, 8, BW, ALPHA, block_bytes=0)


class TestAllgather:
    def test_linear_in_p(self):
        # The scalability cliff: bytes received grow with p.
        t16 = allgather_time(5e6, 16, BW, 0.0)
        t96 = allgather_time(5e6, 96, BW, 0.0)
        assert t96 / t16 == pytest.approx(95 / 15)

    def test_matches_paper_formula(self):
        # T = g(p-1)/BW (+ latency).
        assert allgather_time(5e6, 96, BW, 0.0) == pytest.approx(
            5e6 * 95 / BW)

    def test_incast_multiplies_bandwidth_term(self):
        base = allgather_time(5e6, 32, BW, 0.0)
        degraded = allgather_time(5e6, 32, BW, 0.0, incast_factor=1.5)
        assert degraded == pytest.approx(1.5 * base)

    def test_incast_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            allgather_time(1e6, 8, BW, ALPHA, incast_factor=0.5)

    def test_single_worker_free(self):
        assert allgather_time(1e6, 1, BW, ALPHA) == 0.0


class TestOtherCollectives:
    def test_reduce_scatter_is_half_ring(self):
        rs = reduce_scatter_time(100e6, 16, BW, ALPHA)
        ring = ring_allreduce_time(100e6, 16, BW, ALPHA)
        assert rs == pytest.approx(ring / 2)

    def test_broadcast_log_rounds(self):
        t = broadcast_time(1e6, 8, BW, ALPHA)
        assert t == pytest.approx(3 * (ALPHA + 1e6 / BW))

    def test_parameter_server_worse_than_ring_at_scale(self):
        ps = parameter_server_time(100e6, 32, BW, ALPHA)
        ring = ring_allreduce_time(100e6, 32, BW, ALPHA)
        assert ps > 10 * ring

    def test_all_free_for_single_worker(self):
        for fn in (reduce_scatter_time, broadcast_time,
                   parameter_server_time):
            assert fn(1e6, 1, BW, ALPHA) == 0.0


NAN, INF = float("nan"), float("inf")
COST_FUNCTIONS = (ring_allreduce_time, allgather_time, reduce_scatter_time,
                  broadcast_time, double_tree_allreduce_time,
                  parameter_server_time, pick_allreduce_time)


class TestNonFiniteOperands:
    """NaN passes every ``<`` guard, so it used to price to NaN; every
    operand must now be finite, scalar or array."""

    @pytest.mark.parametrize("fn", COST_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("operands,label", [
        ((NAN, 8, BW, ALPHA), "num_bytes"),
        ((INF, 8, BW, ALPHA), "num_bytes"),
        ((1e6, 8, NAN, ALPHA), "bandwidth"),
        ((1e6, 8, INF, ALPHA), "bandwidth"),
        ((1e6, 8, BW, NAN), "alpha"),
        ((1e6, 8, BW, INF), "alpha"),
        ((1e6, NAN, BW, ALPHA), "world size"),
    ])
    def test_scalar_rejected(self, fn, operands, label):
        with pytest.raises(ConfigurationError, match=label):
            fn(*operands)

    @pytest.mark.parametrize("fn", (ring_allreduce_time, allgather_time),
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("position,label", [
        (0, "num_bytes"), (2, "bandwidth"), (3, "alpha")])
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_array_rejected(self, fn, position, label, bad):
        operands = [np.array([1e6, 2e6]), 8, np.array([BW, BW]),
                    np.array([ALPHA, ALPHA])]
        operands[position] = np.array([operands[position][0], bad])
        with pytest.raises(ConfigurationError, match=label):
            fn(*operands)

    @pytest.mark.parametrize("factor", [NAN, INF])
    def test_incast_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError, match="incast_factor"):
            allgather_time(1e6, 8, BW, ALPHA, incast_factor=factor)


class TestArrayGeneric:
    def test_scalars_give_python_floats(self):
        assert type(ring_allreduce_time(1e6, 8, BW, ALPHA)) is float
        assert type(allgather_time(1e6, 8, BW, ALPHA)) is float

    def test_single_worker_prices_to_positive_zero(self):
        for fn in (ring_allreduce_time, allgather_time):
            times = fn(np.array([0.0, 1e9]), np.array([[1], [8]]), BW, ALPHA)
            assert times.shape == (2, 2)
            assert times[0].tolist() == [0.0, 0.0]
            assert not np.signbit(times[0]).any()
            assert (times[1] > 0).all()
