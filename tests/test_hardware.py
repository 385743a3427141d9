"""Hardware catalog: GPUs, instances, clusters."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import (
    P3_8XLARGE,
    V100,
    ClusterConfig,
    GPUSpec,
    InstanceType,
    available_gpus,
    available_instances,
    cluster_for_gpus,
    get_gpu,
    get_instance,
    gpu_scaling_sweep,
)


class TestGPUSpec:
    def test_v100_effective_flops(self):
        assert V100.effective_training_flops == pytest.approx(
            15.7e12 * V100.training_efficiency)

    def test_scaled_speeds_up_compute(self):
        fast = V100.scaled(2.0)
        assert fast.peak_fp32_flops == pytest.approx(2 * V100.peak_fp32_flops)
        assert fast.memcpy_bytes_per_s == pytest.approx(
            2 * V100.memcpy_bytes_per_s)
        assert fast.kernel_launch_overhead_s == pytest.approx(
            V100.kernel_launch_overhead_s / 2)

    def test_scaled_keeps_memory(self):
        assert V100.scaled(4.0).memory_bytes == V100.memory_bytes

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            V100.scaled(0.0)
        with pytest.raises(ConfigurationError):
            V100.scaled(-1.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_scaled_rejects_non_finite(self, factor):
        with pytest.raises(ConfigurationError,
                           match=f"compute_factor must be finite, got "
                                 f"{factor}"):
            V100.scaled(factor)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(name="bad", peak_fp32_flops=1e12,
                    training_efficiency=1.5, memcpy_bytes_per_s=1e9,
                    memory_bytes=1e9, kernel_launch_overhead_s=1e-6)

    def test_registry_lookup(self):
        assert get_gpu("V100-SXM2-16GB") is V100

    def test_registry_unknown_name(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_gpu("H100")

    def test_registry_copy_is_safe(self):
        gpus = available_gpus()
        gpus.clear()
        assert available_gpus()


class TestInstanceType:
    def test_p3_8xlarge_matches_paper(self):
        assert P3_8XLARGE.gpus_per_node == 4
        assert P3_8XLARGE.gpu is V100
        # ~10 Gbit/s network.
        assert P3_8XLARGE.network_bytes_per_s == pytest.approx(1.25e9)

    def test_with_network_gbps(self):
        fast = P3_8XLARGE.with_network_gbps(100)
        assert fast.network_bytes_per_s == pytest.approx(12.5e9)
        assert fast.gpus_per_node == 4

    def test_with_gpu(self):
        other = P3_8XLARGE.with_gpu(get_gpu("A100-SXM4-40GB"))
        assert other.gpu.name == "A100-SXM4-40GB"

    def test_unknown_instance(self):
        with pytest.raises(ConfigurationError):
            get_instance("p5.whatever")

    def test_available_instances(self):
        assert "p3.8xlarge" in available_instances()


class TestClusterConfig:
    def test_world_size(self):
        assert ClusterConfig(num_nodes=24).world_size == 96

    def test_node_of(self):
        cluster = ClusterConfig(num_nodes=3)
        assert cluster.node_of(0) == 0
        assert cluster.node_of(3) == 0
        assert cluster.node_of(4) == 1
        assert cluster.node_of(11) == 2

    def test_node_of_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=2).node_of(8)

    def test_ranks_on_node(self):
        cluster = ClusterConfig(num_nodes=2)
        assert cluster.ranks_on_node(1) == [4, 5, 6, 7]

    def test_same_node(self):
        cluster = ClusterConfig(num_nodes=2)
        assert cluster.same_node(0, 3)
        assert not cluster.same_node(3, 4)

    def test_with_nodes(self):
        assert ClusterConfig(num_nodes=2).with_nodes(5).num_nodes == 5

    def test_describe_mentions_gpus(self):
        assert "96 GPUs" in ClusterConfig(num_nodes=24).describe()

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=0)


class TestClusterForGpus:
    def test_exact_multiple(self):
        assert cluster_for_gpus(96).num_nodes == 24

    def test_non_multiple_rejected(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            cluster_for_gpus(10)

    def test_sweep_doubles_and_caps(self):
        sweep = gpu_scaling_sweep(96)
        sizes = [c.world_size for c in sweep]
        assert sizes[0] == 4
        assert sizes[-1] == 96
        assert sorted(sizes) == sizes

    def test_sweep_too_small(self):
        with pytest.raises(ConfigurationError):
            gpu_scaling_sweep(2)
