"""The paper's performance model (§4).

For synchronous SGD with DDP-style bucketing and overlap (§4.1)::

    T_obs ≈ max(γ·T_comp, (k-1)·T_comm(b, p, BW)) + T_comm(b̂, p, BW)

where the first ``k-1`` buckets of size ``b`` overlap the (γ-stretched)
backward pass and the last bucket ``b̂`` is serialized after it.

For gradient compression executed sequentially (§4.2, after the §3.1
finding that overlap loses)::

    T_obs ≈ T_comp + T_encode-decode + Σ_messages T_comm(payload, p, BW)

with ``T_comm`` being ring all-reduce for all-reducible schemes and
all-gather (linear in ``p``) otherwise.  PowerSGD pays two messages (P and
Q); Top-K pays two (values and indices); signSGD one.

All of it is written once, in :func:`_evaluate`, an array-generic
kernel: Python scalars in give Python floats out (the one-point
:func:`syncsgd_time` / :func:`compressed_time` / :func:`predict`), and
arrays in give arrays out under normal broadcasting (the
:class:`~repro.core.grid.TimingGrid` views in :mod:`repro.core.grid`).
IEEE-754 elementary operations are exactly rounded, so a grid cell is
bit-identical to the one-point call with the same operands.

These functions consume a :class:`PerfModelInputs` bundle — the calibrated
quantities the paper measures before each run (bandwidth via iperf3, α via
a tiny all-reduce, γ via Nsight, ``T_comp`` on a single machine) — so
predictions and what-ifs are driven the same way the paper drives them.
Deliberately, *no incast correction* is applied: the analytic model's
~14% underestimate of signSGD (Figure 8) comes exactly from this omission,
and reproducing that gap is part of reproducing the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..collectives.cost import (
    _allgather,
    _ring_allreduce,
    count_collectives,
    validate_bound,
)
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..compute import _backward_time
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..telemetry.metrics import get_registry
from ..units import MIB


@dataclass(frozen=True)
class PerfModelInputs:
    """Calibrated inputs to the performance model.

    Attributes:
        world_size: Number of GPU workers ``p``.
        bandwidth_bytes_per_s: The iperf3-style pairwise-minimum ``BW``.
        alpha_s: Latency coefficient α.
        gamma: Backward stretch while communication overlaps (>= 1).
        batch_size: Per-worker batch size.
        bucket_cap_bytes: DDP bucket capacity.
    """

    world_size: int
    bandwidth_bytes_per_s: float
    alpha_s: float = 10e-6
    gamma: float = 1.10
    batch_size: Optional[int] = None
    bucket_cap_bytes: float = 25 * MIB

    def __post_init__(self) -> None:
        validate_bound("world_size", self.world_size, 1)
        if self.batch_size is not None:
            validate_bound("batch_size", self.batch_size, 1)
        validate_bound("bandwidth", self.bandwidth_bytes_per_s, 0,
                       strict=True)
        validate_bound("alpha", self.alpha_s, 0)
        validate_bound("gamma", self.gamma, 1)
        validate_bound("bucket_cap_bytes", self.bucket_cap_bytes, 0,
                       strict=True)

    def with_bandwidth(self, bandwidth_bytes_per_s: float) -> "PerfModelInputs":
        """Copy with a different bandwidth (Figure 11 sweeps)."""
        return replace(self, bandwidth_bytes_per_s=bandwidth_bytes_per_s)

    def with_world_size(self, world_size: int) -> "PerfModelInputs":
        """Copy with a different worker count (scaling sweeps)."""
        return replace(self, world_size=world_size)


@dataclass(frozen=True)
class PredictedTime:
    """A performance-model prediction, with its additive breakdown.

    ``total`` is the paper's per-iteration metric (backward + gradient
    synchronization).  The components are the model's terms, not a
    timeline: for syncSGD ``comm_exposed`` is only the communication that
    could *not* be hidden under the backward pass.
    """

    total: float
    compute: float
    encode_decode: float
    comm_exposed: float

    def __post_init__(self) -> None:
        validate_bound("total", self.total, 0)
        validate_bound("compute", self.compute, 0)
        validate_bound("encode_decode", self.encode_decode, 0)
        validate_bound("comm_exposed", self.comm_exposed, 0)


def _where(cond, a, b):
    """``np.where`` that keeps scalar operands scalar."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _maximum(a, b):
    """``np.maximum`` that keeps scalar operands scalar."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _scheme_cost(model: ModelSpec, scheme: Scheme, p,
                 profile: KernelProfile):
    """Price ``scheme`` at world size ``p``, a scalar or an array.

    Returns ``(wire_bytes, encode_decode_s, cost)``.  An array ``p``
    gets one :meth:`Scheme.cost` call per *unique* world size,
    mask-filled along ``p`` (the work scales with the world sizes, not
    the grid); ``cost`` is the first of them and carries the
    p-independent message structure.  Schemes whose message count or
    collective family varied with ``p`` would not fit one broadcast
    expression; none of the built-ins do, and the guard makes the
    assumption explicit.
    """
    if not isinstance(p, np.ndarray) or p.ndim == 0:
        cost = scheme.cost(model, int(p), profile)
        return cost.wire_bytes, cost.encode_decode_s, cost
    wire = np.zeros(p.shape)
    enc = np.zeros(p.shape)
    rep: Optional[SchemeCost] = None
    for unique_p in np.unique(p):
        cost = scheme.cost(model, int(unique_p), profile)
        if rep is None:
            rep = cost
        elif (cost.messages != rep.messages
              or cost.all_reducible != rep.all_reducible):
            raise ConfigurationError(
                f"{scheme.label}: message structure varies with world "
                f"size; the grid model cannot vectorize it")
        mask = p == unique_p
        wire = np.where(mask, cost.wire_bytes, wire)
        enc = np.where(mask, cost.encode_decode_s, enc)
    assert rep is not None
    return wire, enc, rep


def _record(algorithm: str, calls: int, payload, p, total) -> None:
    """Telemetry for one public call: ``calls`` collectives moving
    ``payload`` bytes in every cell of ``total`` whose world size is
    above one — what a loop of one-point collective calls over those
    cells records (a single worker prices no collective)."""
    if not isinstance(total, np.ndarray):
        if p > 1:
            count_collectives(algorithm, calls, payload)
        return
    live = np.broadcast_to(p > 1, total.shape)
    cells = int(np.count_nonzero(live))
    if cells:
        count_collectives(
            algorithm, calls * cells,
            float(np.broadcast_to(payload, total.shape)[live].sum()))


def _overlapped(model: ModelSpec, inputs: PerfModelInputs, t_comp, p, bw,
                ratio=None, enc=0.0):
    """§4.1: DDP buckets overlap the γ-stretched backward pass, and the
    last one is serialized after it.

    ``ratio`` scales the bucket payloads for compression inside the DDP
    hook, which adds its encode/decode to the critical path; ``None`` is
    syncSGD, whose exposed communication is the last bucket when the
    backward pass hides all the others.  A single worker communicates
    nothing: its backward pass is not stretched and its encode/decode
    stays off the critical path.
    """
    single = p == 1
    stretched = _where(single, 1.0, inputs.gamma) * t_comp
    buckets = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
    alpha = inputs.alpha_s
    # Left to right, as sum() adds: no (buckets x cells) temporary.
    overlappable = 0
    for b in buckets[:-1]:
        overlappable = overlappable + _ring_allreduce(
            b if ratio is None else b * ratio, p, bw, alpha)
    last = _ring_allreduce(
        buckets[-1] if ratio is None else buckets[-1] * ratio, p, bw, alpha)
    total = _maximum(stretched, overlappable) + last
    if ratio is None:
        comm = _where(total > stretched, total - stretched, last)
    else:
        on_path = _where(single, 0.0, enc)
        total = total + on_path
        comm = _maximum(0.0, total - stretched - on_path)
    if get_registry().enabled:
        moved = sum(buckets)
        _record("ring_allreduce", len(buckets),
                moved if ratio is None else moved * ratio, p, total)
    return total, stretched, enc, comm


def _sequential(t_comp, wire, enc, cost: SchemeCost, p, bw, alpha):
    """§4.2: backward pass, encode/decode, then one collective per
    message, back to back (§3.1: overlapping compression loses).  With
    ``p == 1`` both collectives price to exactly ``+0.0``."""
    per_message = wire / cost.messages
    if cost.all_reducible:
        algorithm = "ring_allreduce"
        single = _ring_allreduce(per_message, p, bw, alpha)
    else:
        algorithm = "allgather"
        single = _allgather(per_message, p, bw, alpha)
    comm = single * cost.messages
    total = t_comp + enc + comm
    if get_registry().enabled:
        _record(algorithm, 1, per_message, p, total)
    return total, t_comp, enc, comm


def _evaluate(model: ModelSpec, scheme: Optional[Scheme],
              inputs: PerfModelInputs, gpu: GPUSpec,
              profile: Optional[KernelProfile], bw, p, factor, bs):
    """The §4 model: ``(total, compute, encode_decode, comm_exposed)``.

    ``bw``, ``p``, ``factor`` and ``bs`` are validated Python scalars
    (one point: the terms come back as scalars) or arrays that
    broadcast against each other (a grid: each cell is bit-identical to
    the one-point call with that cell's operands).  ``scheme`` ``None``
    or :class:`SyncSGDScheme` is the syncSGD baseline.
    """
    t_comp = _backward_time(model, gpu, bs, factor)
    if scheme is None or isinstance(scheme, SyncSGDScheme):
        return _overlapped(model, inputs, t_comp, p, bw)
    prof = profile if profile is not None else v100_kernel_profile()
    wire, enc, cost = _scheme_cost(model, scheme, p, prof)
    if scheme.ddp_overlap:
        return _overlapped(model, inputs, t_comp, p, bw,
                           wire / model.grad_bytes, enc)
    return _sequential(t_comp, wire, enc, cost, p, bw, inputs.alpha_s)


def _predict_point(model: ModelSpec, scheme: Optional[Scheme],
                   inputs: PerfModelInputs, gpu: GPUSpec,
                   profile: Optional[KernelProfile]) -> PredictedTime:
    """:func:`_evaluate` at the one point ``inputs`` describes."""
    bs = inputs.batch_size or model.default_batch_size
    validate_bound("batch_size", bs, 1)
    total, compute, enc, comm = _evaluate(
        model, scheme, inputs, gpu, profile, inputs.bandwidth_bytes_per_s,
        inputs.world_size, 1.0, bs)
    return PredictedTime(total=total, compute=compute, encode_decode=enc,
                         comm_exposed=comm)


def syncsgd_time(model: ModelSpec, inputs: PerfModelInputs,
                 gpu: GPUSpec = V100) -> PredictedTime:
    """§4.1 model for synchronous SGD with bucketing and overlap."""
    return _predict_point(model, None, inputs, gpu, None)


def compressed_time(model: ModelSpec, scheme: Scheme,
                    inputs: PerfModelInputs, gpu: GPUSpec = V100,
                    profile: Optional[KernelProfile] = None) -> PredictedTime:
    """§4.2 model for sequential compression (the general form, with the
    per-scheme message/collective structure supplied by the scheme);
    DDP-hook schemes and syncSGD get the §4.1 overlap model."""
    return _predict_point(model, scheme, inputs, gpu, profile)


def predict(model: ModelSpec, scheme: Scheme, inputs: PerfModelInputs,
            gpu: GPUSpec = V100,
            profile: Optional[KernelProfile] = None) -> PredictedTime:
    """Route to the right model for ``scheme`` (the public entry point)."""
    return _predict_point(model, scheme, inputs, gpu, profile)


def speedup_over_syncsgd(model: ModelSpec, scheme: Scheme,
                         inputs: PerfModelInputs, gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None) -> float:
    """Fractional speedup of ``scheme`` over the syncSGD baseline:
    positive when compression helps, negative when it hurts."""
    baseline = syncsgd_time(model, inputs, gpu).total
    candidate = predict(model, scheme, inputs, gpu, profile).total
    return (baseline - candidate) / baseline
