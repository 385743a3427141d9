"""Hierarchical (two-level) all-reduce: cost and numeric."""

import numpy as np
import pytest

from repro.collectives import (
    hierarchical_allreduce,
    hierarchical_allreduce_time,
    ring_allreduce,
    ring_allreduce_time,
)
from repro.errors import CollectiveError, ConfigurationError

NIC = 1.25e9
NVLINK = 300e9
ALPHA = 10e-6


class TestCost:
    def test_beats_flat_ring_at_scale(self):
        # 24 nodes x 4 GPUs: hops over 24 leaders, not 96 ranks.
        hier = hierarchical_allreduce_time(100e6, 24, 4, NIC, NVLINK, ALPHA)
        flat = ring_allreduce_time(100e6, 96, NIC, ALPHA)
        assert hier < flat

    def test_single_gpu_per_node_equals_flat(self):
        hier = hierarchical_allreduce_time(16e6, 8, 1, NIC, NVLINK, ALPHA)
        flat = ring_allreduce_time(16e6, 8, NIC, ALPHA)
        assert hier == pytest.approx(flat)

    def test_single_node_is_nvlink_only(self):
        t = hierarchical_allreduce_time(100e6, 1, 4, NIC, NVLINK, ALPHA)
        assert t < 100e6 / NIC  # way below one NIC pass

    def test_inter_node_bandwidth_dominates(self):
        t = hierarchical_allreduce_time(100e6, 24, 4, NIC, NVLINK, ALPHA)
        inter = ring_allreduce_time(100e6, 24, NIC, ALPHA)
        assert t == pytest.approx(inter, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hierarchical_allreduce_time(-1, 4, 4, NIC, NVLINK, ALPHA)
        with pytest.raises(ConfigurationError):
            hierarchical_allreduce_time(1, 0, 4, NIC, NVLINK, ALPHA)
        with pytest.raises(ConfigurationError):
            hierarchical_allreduce_time(1, 4, 4, 0, NVLINK, ALPHA)
        with pytest.raises(ConfigurationError, match="NVLink"):
            hierarchical_allreduce_time(1, 4, 4, NIC, float("nan"), ALPHA)
        with pytest.raises(ConfigurationError, match="num_bytes"):
            hierarchical_allreduce_time(np.array([1.0, np.inf]), 4, 4, NIC,
                                        NVLINK, ALPHA)


class TestNumeric:
    @pytest.mark.parametrize("nodes,gpn", [(1, 1), (1, 4), (2, 4),
                                           (3, 2), (4, 1)])
    def test_equals_sum(self, rng, nodes, gpn):
        arrays = [rng.normal(size=17) for _ in range(nodes * gpn)]
        expected = np.sum(arrays, axis=0)
        for out in hierarchical_allreduce(arrays, gpus_per_node=gpn):
            np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_agrees_with_flat_ring(self, rng):
        arrays = [rng.normal(size=31) for _ in range(8)]
        hier = hierarchical_allreduce(arrays, gpus_per_node=4)[0]
        flat = ring_allreduce(arrays)[0]
        np.testing.assert_allclose(hier, flat, rtol=1e-10)

    def test_world_must_divide(self, rng):
        arrays = [rng.normal(size=4) for _ in range(6)]
        with pytest.raises(CollectiveError, match="multiple"):
            hierarchical_allreduce(arrays, gpus_per_node=4)

    def test_empty_world_rejected(self):
        with pytest.raises(CollectiveError):
            hierarchical_allreduce([], gpus_per_node=4)


class TestSimulatorIntegration:
    def test_hierarchical_algorithm_accepted(self):
        from repro.hardware import cluster_for_gpus
        from repro.models import get_model
        from repro.simulator import DDPConfig, DDPSimulator
        cfg = DDPConfig(allreduce_algorithm="hierarchical",
                        compute_jitter=0.0, comm_jitter=0.0)
        sim = DDPSimulator(get_model("resnet50"), cluster_for_gpus(32),
                           config=cfg)
        hier = sim.run(64, iterations=10, warmup=2).mean
        flat = DDPSimulator(
            get_model("resnet50"), cluster_for_gpus(32),
            config=DDPConfig(compute_jitter=0.0, comm_jitter=0.0)).run(
            64, iterations=10, warmup=2).mean
        # Different algorithm, same order of magnitude, not slower.
        assert hier <= flat * 1.02
