"""Analytic cost models for communication collectives.

All functions price a collective over ``p`` workers exchanging ``n`` bytes
(per worker) at ``bandwidth`` bytes/s with per-message latency ``alpha``,
using the α+βn model of the paper (§2.2, §4).  They return seconds.

Two families matter for the paper's argument:

* **all-reduce** (ring, double-tree): bandwidth cost ``2n(p-1)/(p*BW)`` —
  essentially constant in ``p``.  Only associative aggregations can use
  it.
* **all-gather**: bandwidth cost ``n(p-1)/BW`` — *linear* in ``p``.  This
  is what non-all-reducible compressors (signSGD, Top-K) are stuck with,
  and why they stop scaling (§3.2).

An optional ``incast_factor`` multiplies the bandwidth term of fan-in
collectives; the simulator passes the fabric's estimate, while the
analytic performance model keeps the default 1.0 (the paper's model does
not include incast either — that omission is its documented source of
signSGD error in Figure 8).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.metrics import get_registry

#: Block size double-tree all-reduce splits messages into; the per-block
#: pipeline fill cost is what makes tree reduce slower at small scale [2].
TREE_BLOCK_BYTES = 512 * 1024


def _record(algorithm: str, num_bytes: float, p: int,
            incast_factor: float = 1.0) -> None:
    """Count one collective pricing call (no-op when telemetry is off;
    the enabled check keeps the disabled hot path to one attribute
    load)."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter("collective_calls_total", algorithm=algorithm).inc()
    registry.counter("collective_bytes_total",
                     algorithm=algorithm).inc(num_bytes)
    if incast_factor > 1.0 and p > 1:
        registry.counter("collective_incast_degraded_total",
                         algorithm=algorithm).inc()


def _validate(num_bytes: float, p: int, bandwidth: float, alpha: float) -> None:
    if num_bytes < 0:
        raise ConfigurationError(f"num_bytes must be >= 0, got {num_bytes}")
    if p < 1:
        raise ConfigurationError(f"world size must be >= 1, got {p}")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth}")
    if alpha < 0:
        raise ConfigurationError(f"alpha must be >= 0, got {alpha}")


def ring_allreduce_time(num_bytes: float, p: int, bandwidth: float,
                        alpha: float) -> float:
    """Ring all-reduce: ``2α(p-1) + 2n(p-1)/(p·BW)``.

    Reduce-scatter then all-gather, each ``p-1`` pipelined steps moving
    ``n/p`` bytes.  This is Equation (1) of the paper (their α absorbs
    the step constant).
    """
    _validate(num_bytes, p, bandwidth, alpha)
    _record("ring_allreduce", num_bytes, p)
    if p == 1:
        return 0.0
    latency = 2.0 * alpha * (p - 1)
    transfer = 2.0 * num_bytes * (p - 1) / (p * bandwidth)
    return latency + transfer


def double_tree_allreduce_time(num_bytes: float, p: int, bandwidth: float,
                               alpha: float,
                               block_bytes: float = TREE_BLOCK_BYTES) -> float:
    """Double-binary-tree all-reduce [50]: ``2α·log2(p)`` latency, the
    same ``2n(p-1)/(p·BW)`` bandwidth, plus a pipeline-fill penalty of one
    block per tree level (the "high overhead at small scale" NCCL
    documents).
    """
    _validate(num_bytes, p, bandwidth, alpha)
    if block_bytes <= 0:
        raise ConfigurationError(f"block_bytes must be > 0, got {block_bytes}")
    _record("double_tree_allreduce", num_bytes, p)
    if p == 1:
        return 0.0
    levels = math.ceil(math.log2(p))
    latency = 2.0 * alpha * levels
    transfer = 2.0 * num_bytes * (p - 1) / (p * bandwidth)
    pipeline_fill = levels * min(block_bytes, num_bytes) / bandwidth
    return latency + transfer + pipeline_fill


def allgather_time(num_bytes: float, p: int, bandwidth: float, alpha: float,
                   incast_factor: float = 1.0) -> float:
    """Ring all-gather of ``n`` bytes per worker: every worker ends up
    receiving ``n(p-1)`` bytes — **linear in p** (the paper's §4.2 model
    for Top-K and signSGD)."""
    _validate(num_bytes, p, bandwidth, alpha)
    if incast_factor < 1.0:
        raise ConfigurationError(
            f"incast_factor must be >= 1, got {incast_factor}")
    _record("allgather", num_bytes, p, incast_factor)
    if p == 1:
        return 0.0
    latency = alpha * (p - 1)
    transfer = num_bytes * (p - 1) / bandwidth * incast_factor
    return latency + transfer


def ring_allreduce_time_grid(num_bytes, p, bandwidth,
                             alpha) -> np.ndarray:
    """N-D broadcasting :func:`ring_allreduce_time`.

    Every argument may be an array, and they broadcast against each
    other — the pricing kernel of the grid-vectorized what-if engine
    (:mod:`repro.core.grid`), which sweeps payload x world size x
    bandwidth in one call, and of the batch simulation kernel
    (:mod:`repro.simulator.batch`), which prices a model's gradient
    buckets at once.

    Elementwise the arithmetic is the scalar function's (IEEE-754
    elementary operations are exactly rounded, so each grid cell is
    bit-identical to the scalar call with the same operands); world
    sizes of 1 price to exactly 0.0, like the scalar early return.
    Telemetry counts one pricing call per grid cell.
    """
    payloads = np.asarray(num_bytes, dtype=float)
    p_arr = np.asarray(p)
    bw = np.asarray(bandwidth, dtype=float)
    alpha_arr = np.asarray(alpha, dtype=float)
    _validate_grid(payloads, p_arr, bw, alpha_arr)
    _record_grid("ring_allreduce", payloads, p_arr, bw, alpha_arr)
    latency = 2.0 * alpha_arr * (p_arr - 1)
    transfer = 2.0 * payloads * (p_arr - 1) / (p_arr * bw)
    return np.where(p_arr == 1, 0.0, latency + transfer)


def allgather_time_grid(num_bytes, p, bandwidth, alpha,
                        incast_factor: float = 1.0) -> np.ndarray:
    """N-D broadcasting :func:`allgather_time` (same contract as
    :func:`ring_allreduce_time_grid`: every argument may be an array,
    cells are bit-identical to the scalar formula, p == 1 prices to
    0.0)."""
    payloads = np.asarray(num_bytes, dtype=float)
    p_arr = np.asarray(p)
    bw = np.asarray(bandwidth, dtype=float)
    alpha_arr = np.asarray(alpha, dtype=float)
    _validate_grid(payloads, p_arr, bw, alpha_arr)
    if incast_factor < 1.0:
        raise ConfigurationError(
            f"incast_factor must be >= 1, got {incast_factor}")
    _record_grid("allgather", payloads, p_arr, bw, alpha_arr,
                 incast_factor)
    latency = alpha_arr * (p_arr - 1)
    transfer = payloads * (p_arr - 1) / bw * incast_factor
    return np.where(p_arr == 1, 0.0, latency + transfer)


def _validate_grid(payloads: np.ndarray, p_arr: np.ndarray,
                   bw: np.ndarray, alpha_arr: np.ndarray) -> None:
    """Array-aware form of :func:`_validate` (reports the worst value)."""
    if payloads.size and float(payloads.min()) < 0:
        raise ConfigurationError(
            f"num_bytes must be >= 0, got {float(payloads.min())}")
    if p_arr.size and int(p_arr.min()) < 1:
        raise ConfigurationError(
            f"world size must be >= 1, got {int(p_arr.min())}")
    if bw.size and float(bw.min()) <= 0:
        raise ConfigurationError(
            f"bandwidth must be > 0, got {float(bw.min())}")
    if alpha_arr.size and float(alpha_arr.min()) < 0:
        raise ConfigurationError(
            f"alpha must be >= 0, got {float(alpha_arr.min())}")


def _record_grid(algorithm: str, payloads: np.ndarray, p_arr: np.ndarray,
                 bw: np.ndarray, alpha_arr: np.ndarray,
                 incast_factor: float = 1.0) -> None:
    """Telemetry for one grid pricing call: advance the counters by what
    the equivalent nest of scalar calls would have recorded."""
    registry = get_registry()
    if not registry.enabled:
        return
    shape = np.broadcast_shapes(payloads.shape, p_arr.shape, bw.shape,
                                alpha_arr.shape)
    cells = int(np.prod(shape))
    if cells == 0:
        return
    registry.counter("collective_calls_total",
                     algorithm=algorithm).inc(cells)
    registry.counter("collective_bytes_total", algorithm=algorithm).inc(
        float(np.broadcast_to(payloads, shape).sum()))
    if incast_factor > 1.0:
        degraded = int((np.broadcast_to(p_arr, shape) > 1).sum())
        if degraded:
            registry.counter("collective_incast_degraded_total",
                             algorithm=algorithm).inc(degraded)


def reduce_scatter_time(num_bytes: float, p: int, bandwidth: float,
                        alpha: float) -> float:
    """Ring reduce-scatter: half of a ring all-reduce."""
    _validate(num_bytes, p, bandwidth, alpha)
    _record("reduce_scatter", num_bytes, p)
    if p == 1:
        return 0.0
    return alpha * (p - 1) + num_bytes * (p - 1) / (p * bandwidth)


def broadcast_time(num_bytes: float, p: int, bandwidth: float,
                   alpha: float) -> float:
    """Binomial-tree broadcast: ``log2(p)`` rounds of the full payload."""
    _validate(num_bytes, p, bandwidth, alpha)
    _record("broadcast", num_bytes, p)
    if p == 1:
        return 0.0
    levels = math.ceil(math.log2(p))
    return levels * (alpha + num_bytes / bandwidth)


def parameter_server_time(num_bytes: float, p: int, bandwidth: float,
                          alpha: float, incast_factor: float = 1.0) -> float:
    """Central parameter server: the server ingests ``n`` bytes from each
    of ``p-1`` workers through one NIC, then broadcasts back — the
    topology all-reduce displaced (§2.2)."""
    _validate(num_bytes, p, bandwidth, alpha)
    if incast_factor < 1.0:
        raise ConfigurationError(
            f"incast_factor must be >= 1, got {incast_factor}")
    _record("parameter_server", num_bytes, p, incast_factor)
    if p == 1:
        return 0.0
    gather = alpha + num_bytes * (p - 1) / bandwidth * incast_factor
    scatter = alpha + num_bytes * (p - 1) / bandwidth
    return gather + scatter


def pick_allreduce_time(num_bytes: float, p: int, bandwidth: float,
                        alpha: float) -> float:
    """NCCL-style dynamic algorithm choice: the faster of ring and
    double-tree for this size/scale (the behaviour the paper disables
    with ``NCCL_TREE_THRESHOLD=0``; experiments use the ring model)."""
    return min(ring_allreduce_time(num_bytes, p, bandwidth, alpha),
               double_tree_allreduce_time(num_bytes, p, bandwidth, alpha))
