"""Hierarchical (two-level) all-reduce.

p3.8xlarge nodes hold 4 NVLink-connected GPUs behind one 10 Gbit/s NIC.
NCCL exploits this: reduce within each node over NVLink, ring-reduce one
contribution per node over the network, broadcast back over NVLink.  The
paper's model flattens this (p = GPU count, BW = NIC speed), which is
numerically equivalent for the bandwidth term; the hierarchical model
differs in the latency term (hops over nodes, not GPUs) and gives the
simulator an ablation axis.

Cost structure for ``n`` bytes, ``g`` GPUs/node, ``m`` nodes::

    intra reduce:    2·n·(g-1)/(g·BW_nvlink)      (ring within the node)
    inter allreduce: 2·α·(m-1) + 2·n·(m-1)/(m·BW_nic)
    intra bcast:     n/BW_nvlink

Numeric counterpart: the same three phases over per-worker arrays, so
tests can check the hierarchy is value-equivalent to a flat sum.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CollectiveError, ConfigurationError
from .cost import ring_allreduce_time, validate_bound
from .numeric import ReduceOp, _add, ring_allreduce


def hierarchical_allreduce_time(num_bytes, num_nodes: int,
                                gpus_per_node: int,
                                nic_bytes_per_s: float,
                                nvlink_bytes_per_s: float,
                                alpha_s: float):
    """Two-level all-reduce cost (seconds).  ``num_bytes`` may be an
    array, like :func:`~repro.collectives.cost.ring_allreduce_time`."""
    validate_bound("num_bytes", num_bytes, 0)
    validate_bound("num_nodes", num_nodes, 1)
    validate_bound("gpus_per_node", gpus_per_node, 1)
    validate_bound("NIC bandwidth", nic_bytes_per_s, 0, strict=True)
    validate_bound("NVLink bandwidth", nvlink_bytes_per_s, 0, strict=True)
    validate_bound("alpha", alpha_s, 0)

    intra = 0.0
    if gpus_per_node > 1:
        # Intra-node ring reduce-scatter+gather over NVLink; NVLink hops
        # have negligible latency.
        intra = (2.0 * num_bytes * (gpus_per_node - 1)
                 / (gpus_per_node * nvlink_bytes_per_s))
    inter = ring_allreduce_time(num_bytes, num_nodes, nic_bytes_per_s,
                                alpha_s)
    bcast = num_bytes / nvlink_bytes_per_s if gpus_per_node > 1 else 0.0
    return intra + inter + bcast


def hierarchical_allreduce(arrays: Sequence[np.ndarray],
                           gpus_per_node: int,
                           op: ReduceOp = _add) -> List[np.ndarray]:
    """Numeric two-level all-reduce.

    ``arrays`` is ordered by rank, ranks grouped by node (ranks
    ``[k*g, (k+1)*g)`` live on node ``k``).  The world size must be a
    multiple of ``gpus_per_node``.
    """
    if gpus_per_node < 1:
        raise ConfigurationError(
            f"gpus_per_node must be >= 1, got {gpus_per_node}")
    p = len(arrays)
    if p == 0:
        raise CollectiveError("collective requires at least one worker")
    if p % gpus_per_node != 0:
        raise CollectiveError(
            f"world size {p} is not a multiple of gpus_per_node="
            f"{gpus_per_node}")

    num_nodes = p // gpus_per_node
    # Phase 1: reduce within each node (leader = first rank on the node).
    node_sums: List[np.ndarray] = []
    for node in range(num_nodes):
        local = arrays[node * gpus_per_node:(node + 1) * gpus_per_node]
        acc = np.array(local[0], copy=True)
        for buf in local[1:]:
            acc = op(acc, np.asarray(buf))
        node_sums.append(acc)
    # Phase 2: ring all-reduce across node leaders.
    reduced = ring_allreduce(node_sums, op)
    # Phase 3: broadcast within each node.
    out: List[np.ndarray] = []
    for node in range(num_nodes):
        for _ in range(gpus_per_node):
            out.append(reduced[node].copy())
    return out
