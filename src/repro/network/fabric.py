"""Simulated network fabric.

Transfers are priced with the α+βn model the paper adopts from [51]:
latency term α per message plus size over bandwidth.  On top of that the
fabric adds two effects real datacenter networks exhibit and the paper
leans on to explain its measurements:

* **pairwise bandwidth heterogeneity** — the paper measures bandwidth with
  iperf3 before every run and uses the pairwise *minimum*; we draw a
  symmetric bandwidth matrix around the nominal NIC speed so that the
  probe-and-take-minimum methodology is faithfully reproduced;
* **incast degradation** — all-gather has an all-to-one traffic pattern
  whose TCP throughput collapse the paper cites ([9, 14]) as the reason
  its signSGD model underestimates measured time by ~14%.  The fabric
  degrades effective bandwidth by a per-concurrent-sender factor; the
  analytic performance model deliberately does *not* include this, which
  reproduces the Figure-8 error ordering.

Bandwidth values are bytes/second; times are seconds.

The jittered matrix is a pure function of (node count, NIC speed,
cluster seed, jitter σ), so it is drawn once per distinct tuple and
shared read-only by every fabric built with it, and so is its pairwise
minimum: a sweep builds hundreds of fabrics over a dozen clusters.
:meth:`Fabric.degrade_link` and :meth:`Fabric.degrade_node` copy the
shared matrix before their first write, so degrading one fabric never
reaches another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from ..hardware import ClusterConfig
from ..memo import per_object

#: Default α: effective per-hop latency of a pipelined ring step.  NCCL
#: rings over TCP sustain ~10 us per hop once the pipeline is warm; the
#: paper estimates α the same way (tiny all-reduce divided by hops).
DEFAULT_ALPHA_S = 10e-6

#: Default σ of the lognormal bandwidth jitter (fractional).  Small, but
#: across a 24-node cluster the pairwise *minimum* lands a few percent
#: below nominal, as the paper's pre-run iperf3 measurements did.
DEFAULT_BANDWIDTH_JITTER = 0.005

#: Default per-extra-concurrent-sender incast degradation.  Calibrated so
#: a 96-way all-gather runs ~1.6x slower than the α+βn model predicts,
#: matching the paper's observed signSGD underprediction at scale.
DEFAULT_INCAST_PER_SENDER = 0.008


@dataclass
class Fabric:
    """Network connecting the nodes of a cluster.

    Attributes:
        cluster: Topology (nodes, GPUs per node, NIC speed).
        alpha_s: Per-message latency between distinct nodes.
        bandwidth_jitter: Fractional lognormal sigma applied to each
            node pair's bandwidth (0 disables heterogeneity).
        incast_per_sender: Fractional slowdown added per concurrent
            sender beyond the first in fan-in traffic (0 disables).
    """

    cluster: ClusterConfig
    alpha_s: float = DEFAULT_ALPHA_S
    bandwidth_jitter: float = DEFAULT_BANDWIDTH_JITTER
    incast_per_sender: float = DEFAULT_INCAST_PER_SENDER
    _pair_bw: np.ndarray = field(init=False, repr=False)
    #: Memoized pairwise minimum; the simulator queries it per bucket per
    #: iteration, and the O(n^2) matrix scan dominated the hot path.
    #: Invalidated by ``degrade_link``/``degrade_node``.
    _min_bw_cache: Optional[float] = field(default=None, init=False,
                                           repr=False)

    def __post_init__(self) -> None:
        for name in ("alpha_s", "bandwidth_jitter", "incast_per_sender"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}")
        self._pair_bw = _bandwidth_matrix(
            self.cluster.num_nodes, self.cluster.instance.network_bytes_per_s,
            self.cluster.seed, self.bandwidth_jitter)

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle without the memo, so a pool job carrying this fabric
        # is the same size before and after a run.
        return {**self.__dict__, "_min_bw_cache": None}

    def _own_matrix(self) -> None:
        """Copy a shared (read-only) matrix before the first write."""
        if not self._pair_bw.flags.writeable:
            self._pair_bw = self._pair_bw.copy()

    # ----- bandwidth queries ------------------------------------------------

    def pair_bandwidth(self, node_a: int, node_b: int) -> float:
        """Bandwidth between two nodes; intra-node pairs use NVLink."""
        self._check_node(node_a)
        self._check_node(node_b)
        if node_a == node_b:
            return self.cluster.instance.intra_node_bytes_per_s
        return float(self._pair_bw[node_a, node_b])

    def min_bandwidth(self) -> float:
        """The pairwise minimum — the paper's ``BW`` calibration value.

        With a single node there is no inter-node link; NVLink speed is
        returned so downstream formulas stay finite.
        """
        if self._min_bw_cache is None:
            if self.cluster.num_nodes == 1:
                self._min_bw_cache = (
                    self.cluster.instance.intra_node_bytes_per_s)
            elif self._pair_bw.flags.writeable:
                # A degraded fabric's private matrix.
                self._min_bw_cache = _off_diagonal_min(self._pair_bw)
            else:
                self._min_bw_cache = _shared_min(self._pair_bw)
        return self._min_bw_cache

    def nominal_bandwidth(self) -> float:
        """The NIC's advertised speed, before jitter."""
        return self.cluster.instance.network_bytes_per_s

    # ----- transfer pricing ---------------------------------------------------

    def transfer_time(self, num_bytes: float, node_a: int, node_b: int) -> float:
        """Seconds to move ``num_bytes`` point-to-point between two nodes."""
        if num_bytes < 0:
            raise ConfigurationError(f"num_bytes must be >= 0, got {num_bytes}")
        bw = self.pair_bandwidth(node_a, node_b)
        alpha = 0.0 if node_a == node_b else self.alpha_s
        return alpha + num_bytes / bw

    def incast_factor(self, fan_in: int) -> float:
        """Effective-bandwidth degradation for ``fan_in`` concurrent
        senders targeting one receiver (>= 1.0)."""
        if fan_in < 1:
            raise ConfigurationError(f"fan_in must be >= 1, got {fan_in}")
        return 1.0 + self.incast_per_sender * (fan_in - 1)

    # ----- fault/heterogeneity injection -----------------------------------

    def degrade_link(self, node_a: int, node_b: int,
                     factor: float) -> None:
        """Multiply one link's bandwidth by ``factor`` in (0, 1].

        Models a congested or mis-cabled link; since collectives run at
        the pace of the slowest participant, one bad link drags the
        whole ring (which is why the paper measures the pairwise
        *minimum*)."""
        self._check_node(node_a)
        self._check_node(node_b)
        if node_a == node_b:
            raise ConfigurationError("cannot degrade a node's NVLink here")
        if not 0 < factor <= 1:
            raise ConfigurationError(
                f"factor must be in (0, 1], got {factor}")
        self._own_matrix()
        self._pair_bw[node_a, node_b] *= factor
        self._pair_bw[node_b, node_a] *= factor
        self._min_bw_cache = None

    def degrade_node(self, node: int, factor: float) -> None:
        """Degrade every link touching ``node`` (a straggler NIC)."""
        self._check_node(node)
        if not 0 < factor <= 1:
            raise ConfigurationError(
                f"factor must be in (0, 1], got {factor}")
        self._own_matrix()
        for other in range(self.cluster.num_nodes):
            if other != node:
                self._pair_bw[node, other] *= factor
                self._pair_bw[other, node] *= factor
        self._min_bw_cache = None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.cluster.num_nodes:
            raise ConfigurationError(
                f"node {node} out of range for {self.cluster.num_nodes} nodes")


def _off_diagonal_min(matrix: np.ndarray) -> float:
    """The minimum over every pair of distinct nodes."""
    return float(matrix[~np.eye(matrix.shape[0], dtype=bool)].min())


#: :func:`_off_diagonal_min` once per shared (read-only) matrix.
_shared_min = per_object(_off_diagonal_min)


@functools.lru_cache(maxsize=64)
def _bandwidth_matrix(num_nodes: int, nominal: float, seed: int,
                      jitter: float) -> np.ndarray:
    """Symmetric per-node-pair bandwidth matrix (bytes/s), read-only.

    Jitter is multiplicative lognormal, capped at the NIC's nominal
    speed: real links underdeliver, they never overdeliver.  Memoized
    per argument tuple; the fabric rejects NaN parameters, so a key
    always equals itself.
    """
    rng = np.random.default_rng(seed)
    matrix = np.full((num_nodes, num_nodes), nominal)
    if jitter > 0 and num_nodes > 1:
        draws = rng.lognormal(mean=0.0, sigma=jitter,
                              size=(num_nodes, num_nodes))
        draws = np.minimum(np.tril(draws, -1) + np.tril(draws, -1).T, 1.0)
        np.fill_diagonal(draws, 1.0)
        matrix = matrix * draws
    matrix.flags.writeable = False
    return matrix
