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


def validate_bound(label: str, value, low: float, *,
                   strict: bool = False) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and
    ``>= low`` (``> low`` when ``strict``).

    ``value`` may be a scalar or an array (an array reports its worst
    value).  NaN fails every comparison, so it is caught by the bound
    check rather than slipping past a ``<`` guard into a NaN price.
    This is the one operand check of the α+β collectives and the §4
    model (:mod:`repro.core.perf_model`).
    """
    if type(value) is float or type(value) is int:
        # The common scalar case, accepted without the checks below
        # (NaN fails both comparisons and takes them).
        if (value > low if strict else value >= low) and value < math.inf:
            return
        worst = top = value
    elif isinstance(value, np.ndarray):
        if not value.size:
            return
        worst, top = value.min(), value.max()
    else:
        worst = top = value
    if not math.isfinite(worst):
        raise ConfigurationError(f"{label} must be finite, got {worst}")
    if not (worst > low if strict else worst >= low):
        raise ConfigurationError(
            f"{label} must be {'>' if strict else '>='} {low}, got {worst}")
    if not math.isfinite(top):
        raise ConfigurationError(f"{label} must be finite, got {top}")


def _validate(num_bytes, p, bandwidth, alpha) -> None:
    validate_bound("num_bytes", num_bytes, 0)
    validate_bound("world size", p, 1)
    validate_bound("bandwidth", bandwidth, 0, strict=True)
    validate_bound("alpha", alpha, 0)


def count_collectives(algorithm: str, calls: int, num_bytes: float,
                      degraded: int = 0) -> None:
    """Advance the collective counters by ``calls`` pricing calls moving
    ``num_bytes`` in total, ``degraded`` of them incast-degraded.
    Callers check ``get_registry().enabled`` first."""
    registry = get_registry()
    registry.counter("collective_calls_total",
                     algorithm=algorithm).inc(calls)
    registry.counter("collective_bytes_total",
                     algorithm=algorithm).inc(num_bytes)
    if degraded:
        registry.counter("collective_incast_degraded_total",
                         algorithm=algorithm).inc(degraded)


def _record(algorithm: str, num_bytes, p, bandwidth=1.0, alpha=0.0,
            incast_factor: float = 1.0) -> None:
    """Count one public pricing call: one collective per cell of the
    broadcast operands, what the equivalent nest of scalar calls would
    have recorded (no-op when telemetry is off; the enabled check keeps
    the disabled hot path to one attribute load)."""
    if not get_registry().enabled:
        return
    operands = (num_bytes, p, bandwidth, alpha)
    if not any(isinstance(x, np.ndarray) for x in operands):
        count_collectives(algorithm, 1, num_bytes,
                          int(incast_factor > 1.0 and p > 1))
        return
    shape = np.broadcast_shapes(*(np.shape(x) for x in operands))
    cells = math.prod(shape)
    if cells:
        degraded = (int((np.broadcast_to(p, shape) > 1).sum())
                    if incast_factor > 1.0 else 0)
        count_collectives(algorithm, cells,
                          float(np.broadcast_to(num_bytes, shape).sum()),
                          degraded)


def _ring_allreduce(num_bytes, p, bandwidth, alpha):
    """Unvalidated ring all-reduce formula (see
    :func:`ring_allreduce_time`)."""
    return 2.0 * alpha * (p - 1) + 2.0 * num_bytes * (p - 1) / (p * bandwidth)


def _allgather(num_bytes, p, bandwidth, alpha, incast_factor=1.0):
    """Unvalidated ring all-gather formula (see :func:`allgather_time`)."""
    return alpha * (p - 1) + num_bytes * (p - 1) / bandwidth * incast_factor


def ring_allreduce_time(num_bytes, p, bandwidth, alpha):
    """Ring all-reduce: ``2α(p-1) + 2n(p-1)/(p·BW)``.

    Reduce-scatter then all-gather, each ``p-1`` pipelined steps moving
    ``n/p`` bytes.  This is Equation (1) of the paper (their α absorbs
    the step constant).

    Array-generic: Python scalars in give a Python float out, arrays
    broadcast against each other (the batch simulation kernel prices a
    model's gradient buckets in one call).  A world size of 1 prices to
    exactly ``+0.0`` with no special case: with finite operands both
    terms are products with ``p - 1 == 0``.  Telemetry counts one
    pricing call per cell.
    """
    _validate(num_bytes, p, bandwidth, alpha)
    _record("ring_allreduce", num_bytes, p, bandwidth, alpha)
    return _ring_allreduce(num_bytes, p, bandwidth, alpha)


def double_tree_allreduce_time(num_bytes, p: int, bandwidth: float,
                               alpha: float,
                               block_bytes: float = TREE_BLOCK_BYTES):
    """Double-binary-tree all-reduce [50]: ``2α·log2(p)`` latency, the
    same ``2n(p-1)/(p·BW)`` bandwidth, plus a pipeline-fill penalty of one
    block per tree level (the "high overhead at small scale" NCCL
    documents).

    ``num_bytes`` may be an array (the batch kernel prices a model's
    gradient buckets in one call); a Python scalar gives a Python
    float.  A world size of 1 has no tree levels and prices to exactly
    ``+0.0``.
    """
    _validate(num_bytes, p, bandwidth, alpha)
    validate_bound("block_bytes", block_bytes, 0, strict=True)
    _record("double_tree_allreduce", num_bytes, p)
    levels = math.ceil(math.log2(p))
    latency = 2.0 * alpha * levels
    transfer = 2.0 * num_bytes * (p - 1) / (p * bandwidth)
    block = (np.minimum(block_bytes, num_bytes)
             if isinstance(num_bytes, np.ndarray)
             else min(block_bytes, num_bytes))
    pipeline_fill = levels * block / bandwidth
    return latency + transfer + pipeline_fill


def allgather_time(num_bytes, p, bandwidth, alpha,
                   incast_factor: float = 1.0):
    """Ring all-gather of ``n`` bytes per worker: every worker ends up
    receiving ``n(p-1)`` bytes — **linear in p** (the paper's §4.2 model
    for Top-K and signSGD).  Array-generic, like
    :func:`ring_allreduce_time`."""
    _validate(num_bytes, p, bandwidth, alpha)
    validate_bound("incast_factor", incast_factor, 1)
    _record("allgather", num_bytes, p, bandwidth, alpha, incast_factor)
    return _allgather(num_bytes, p, bandwidth, alpha, incast_factor)


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


def parameter_server_time(num_bytes, p: int, bandwidth: float,
                          alpha: float, incast_factor: float = 1.0):
    """Central parameter server: the server ingests ``n`` bytes from each
    of ``p-1`` workers through one NIC, then broadcasts back — the
    topology all-reduce displaced (§2.2).  ``num_bytes`` may be an
    array, like :func:`double_tree_allreduce_time`."""
    _validate(num_bytes, p, bandwidth, alpha)
    validate_bound("incast_factor", incast_factor, 1)
    _record("parameter_server", num_bytes, p, incast_factor=incast_factor)
    if p == 1:
        # No server round-trip at all, not two bare latencies.
        return num_bytes * 0.0
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
