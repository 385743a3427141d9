"""Cluster configuration: N instances of a given type.

A :class:`ClusterConfig` is the unit the experiments are parameterized
over ("24 p3.8xlarge instances = 96 GPUs").  It knows how to enumerate its
workers and map a worker rank to its node, which the network fabric uses
to decide whether a transfer crosses the NIC or stays on NVLink.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

from ..errors import ConfigurationError
from .instances import P3_8XLARGE, InstanceType

#: Most nodes one cluster may have.  The fabric holds a dense per-pair
#: bandwidth matrix (8 MB at this bound) and memoizes up to 64 of
#: them, so an unbounded count from a CLI flag or a request body could
#: exhaust memory; the paper's largest cluster is 24 nodes.
MAX_NODES = 1024


@dataclass(frozen=True)
class ClusterConfig:
    """A homogeneous cluster of ``num_nodes`` instances.

    Attributes:
        instance: The instance type every node uses.
        num_nodes: Number of machines.
        seed: Seed for the fabric's bandwidth-heterogeneity draw, so a
            cluster reproduces the same pairwise bandwidths across runs
            (the paper re-measures with iperf3 before every experiment;
            we re-draw per seed).
    """

    instance: InstanceType = P3_8XLARGE
    num_nodes: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.num_nodes <= MAX_NODES:
            raise ConfigurationError(
                f"num_nodes must be in [1, {MAX_NODES}], "
                f"got {self.num_nodes}")

    @property
    def world_size(self) -> int:
        """Total number of GPU workers in the cluster."""
        return self.num_nodes * self.instance.gpus_per_node

    @property
    def gpu(self):
        """The GPU spec shared by all workers."""
        return self.instance.gpu

    def node_of(self, rank: int) -> int:
        """Return the node index hosting worker ``rank``."""
        if not 0 <= rank < self.world_size:
            raise ConfigurationError(
                f"rank {rank} out of range for world size {self.world_size}")
        return rank // self.instance.gpus_per_node

    def ranks_on_node(self, node: int) -> List[int]:
        """Return the worker ranks hosted on ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ConfigurationError(
                f"node {node} out of range for {self.num_nodes} nodes")
        g = self.instance.gpus_per_node
        return list(range(node * g, (node + 1) * g))

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True when the two workers share a machine (NVLink-connected)."""
        return self.node_of(rank_a) == self.node_of(rank_b)

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Return a copy with a different node count (scaling sweeps)."""
        return replace(self, num_nodes=num_nodes)

    def with_instance(self, instance: InstanceType) -> "ClusterConfig":
        """Return a copy using a different instance type."""
        return replace(self, instance=instance)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for experiment logs."""
        return (f"{self.num_nodes}x {self.instance.name} "
                f"({self.world_size} GPUs, {self.gpu.name})")


def cluster_for_gpus(num_gpus: int,
                     instance: InstanceType = P3_8XLARGE,
                     seed: int = 0) -> ClusterConfig:
    """Build the smallest cluster of ``instance`` with >= ``num_gpus`` GPUs.

    The paper reports GPU counts (8, 16, ..., 96); this converts them back
    to node counts.  ``num_gpus`` must be a multiple of the instance's GPU
    count so the advertised world size is exact.
    """
    g = instance.gpus_per_node
    if num_gpus < 1:
        raise ConfigurationError(f"num_gpus must be >= 1, got {num_gpus}")
    if num_gpus % g != 0:
        raise ConfigurationError(
            f"num_gpus={num_gpus} is not a multiple of {g} GPUs per "
            f"{instance.name} node")
    return ClusterConfig(instance=instance, num_nodes=num_gpus // g, seed=seed)


def gpu_scaling_sweep(max_gpus: int,
                      instance: InstanceType = P3_8XLARGE) -> Tuple[ClusterConfig, ...]:
    """Clusters doubling from one node up to ``max_gpus`` GPUs.

    Mirrors the paper's scaling experiments (8 -> 96 GPUs on p3.8xlarge).
    """
    configs: List[ClusterConfig] = []
    nodes = 1
    while nodes * instance.gpus_per_node <= max_gpus:
        configs.append(ClusterConfig(instance=instance, num_nodes=nodes))
        nodes *= 2
    if not configs:
        raise ConfigurationError(
            f"max_gpus={max_gpus} is below one {instance.name} node")
    # Always include the exact top of the sweep if it is not a power of two
    # of the node count (the paper's 24-node / 96-GPU point).
    top_nodes = max_gpus // instance.gpus_per_node
    if top_nodes and configs[-1].num_nodes != top_nodes:
        configs.append(ClusterConfig(instance=instance, num_nodes=top_nodes))
    return tuple(configs)
