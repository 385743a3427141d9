"""iperf3-style bandwidth probing of a :class:`~repro.network.Fabric`.

The paper's methodology (§4.3): *"Before each run we calculate available
bandwidth between each pair of instances using iperf3 and take the minimum
of these values as BW."*  This module reproduces that probe against the
simulated fabric, including the measurement being a finite-length transfer
(so the α term biases short probes low, as it does in practice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import MIB
from .fabric import Fabric

#: Default probe payload; iperf3 defaults to a 10 s stream, we price a
#: fixed transfer instead so results are deterministic.
DEFAULT_PROBE_BYTES = 128 * MIB


@dataclass(frozen=True)
class BandwidthReport:
    """Result of probing every node pair.

    Attributes:
        matrix: Symmetric (nodes x nodes) measured bandwidth, bytes/s;
            the diagonal is NaN (a node does not probe itself).
        min_bandwidth: The pairwise minimum, the paper's ``BW``.
        alpha_s: Estimated per-message latency (see
            :func:`estimate_alpha`).
    """

    matrix: np.ndarray
    min_bandwidth: float
    alpha_s: float

    @property
    def num_nodes(self) -> int:
        """Number of nodes probed (the matrix's side)."""
        return self.matrix.shape[0]


def measure_pair(fabric: Fabric, node_a: int, node_b: int,
                 probe_bytes: float = DEFAULT_PROBE_BYTES) -> float:
    """Measure one pair like a single iperf3 stream: bytes over elapsed
    wall time, which includes the α setup cost."""
    if probe_bytes <= 0:
        raise ConfigurationError(f"probe_bytes must be > 0, got {probe_bytes}")
    if node_a == node_b:
        raise ConfigurationError("iperf probes require two distinct nodes")
    elapsed = fabric.transfer_time(probe_bytes, node_a, node_b)
    return probe_bytes / elapsed


def measure_cluster(fabric: Fabric,
                    probe_bytes: float = DEFAULT_PROBE_BYTES) -> BandwidthReport:
    """Probe every node pair and summarize, as the paper does before a run.

    Single-node clusters have no inter-node links; the report's minimum
    falls back to NVLink bandwidth so downstream formulas stay finite.
    Every pair is priced in one elementwise expression, the arithmetic
    of :func:`measure_pair` on each cell.
    """
    n = fabric.cluster.num_nodes
    matrix = np.full((n, n), np.nan)
    if n > 1:
        if probe_bytes <= 0:
            raise ConfigurationError(
                f"probe_bytes must be > 0, got {probe_bytes}")
        upper = np.triu_indices(n, 1)
        elapsed = fabric.alpha_s + probe_bytes / fabric._pair_bw[upper]
        matrix[upper] = matrix[upper[::-1]] = probe_bytes / elapsed
        min_bw = float(np.nanmin(matrix))
    else:
        min_bw = fabric.min_bandwidth()
    return BandwidthReport(
        matrix=matrix, min_bandwidth=min_bw, alpha_s=estimate_alpha(fabric))


def estimate_alpha(fabric: Fabric, num_gpus: int = 0) -> float:
    """Estimate the latency coefficient α the way §4.3 describes.

    The paper performs a ring all-reduce on a tiny tensor and divides the
    elapsed time by ``p - 1``.  A tiny ring all-reduce costs
    ``2 * alpha * (p - 1)`` plus negligible bandwidth time, so the
    estimate recovers ~2α per hop; we divide the simulated elapsed time by
    ``2 (p - 1)`` to report α itself.
    """
    p = num_gpus or fabric.cluster.world_size
    if p < 2:
        return fabric.alpha_s
    tiny_bytes = 4.0 * p  # "a vector of size equivalent to number of machines"
    per_hop = fabric.alpha_s + tiny_bytes / fabric.min_bandwidth()
    elapsed = 2.0 * (p - 1) * per_hop
    return elapsed / (2.0 * (p - 1))
