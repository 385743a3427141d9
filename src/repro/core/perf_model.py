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
from typing import Optional, Tuple

from ..collectives import allgather_time, ring_allreduce_time
from ..compute import ComputeModel
from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
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
        if self.world_size < 1:
            raise ConfigurationError(
                f"world_size must be >= 1, got {self.world_size}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be > 0")
        if self.alpha_s < 0:
            raise ConfigurationError("alpha must be >= 0")
        if self.gamma < 1.0:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if self.bucket_cap_bytes <= 0:
            raise ConfigurationError("bucket_cap_bytes must be > 0")

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
        for value, label in ((self.total, "total"), (self.compute, "compute"),
                             (self.encode_decode, "encode_decode"),
                             (self.comm_exposed, "comm_exposed")):
            if value < 0:
                raise ConfigurationError(f"{label} must be >= 0, got {value}")


def syncsgd_time(model: ModelSpec, inputs: PerfModelInputs,
                 gpu: GPUSpec = V100) -> PredictedTime:
    """§4.1 model for synchronous SGD with bucketing and overlap."""
    compute = ComputeModel(model, gpu)
    bs = inputs.batch_size or model.default_batch_size
    t_comp = compute.backward_time(bs)
    p = inputs.world_size
    if p == 1:
        return PredictedTime(total=t_comp, compute=t_comp,
                             encode_decode=0.0, comm_exposed=0.0)

    bucket_sizes = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
    bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
    overlappable = sum(
        ring_allreduce_time(b, p, bw, alpha) for b in bucket_sizes[:-1])
    last = ring_allreduce_time(bucket_sizes[-1], p, bw, alpha)

    stretched = inputs.gamma * t_comp
    total = max(stretched, overlappable) + last
    return PredictedTime(
        total=total,
        compute=stretched,
        encode_decode=0.0,
        comm_exposed=total - stretched if total > stretched else last,
    )


def compressed_time(model: ModelSpec, scheme: Scheme,
                    inputs: PerfModelInputs, gpu: GPUSpec = V100,
                    profile: Optional[KernelProfile] = None) -> PredictedTime:
    """§4.2 model for sequential compression (the general form, with the
    per-scheme message/collective structure supplied by the scheme)."""
    if isinstance(scheme, SyncSGDScheme):
        return syncsgd_time(model, inputs, gpu)
    prof = profile if profile is not None else v100_kernel_profile()
    compute = ComputeModel(model, gpu)
    bs = inputs.batch_size or model.default_batch_size
    t_comp = compute.backward_time(bs)
    p = inputs.world_size
    cost = scheme.cost(model, p, prof)

    if scheme.ddp_overlap:
        # Per-bucket compression inside the DDP hook: same structure as
        # the syncSGD model with bucket payloads scaled down, plus the
        # (small) cast cost on the critical path.
        if p == 1:
            return PredictedTime(total=t_comp, compute=t_comp,
                                 encode_decode=cost.encode_decode_s,
                                 comm_exposed=0.0)
        ratio = cost.wire_bytes / model.grad_bytes
        buckets = model.bucket_sizes_bytes(inputs.bucket_cap_bytes)
        bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
        overlappable = sum(
            ring_allreduce_time(b * ratio, p, bw, alpha)
            for b in buckets[:-1])
        last = ring_allreduce_time(buckets[-1] * ratio, p, bw, alpha)
        stretched = inputs.gamma * t_comp
        total = (max(stretched, overlappable) + last
                 + cost.encode_decode_s)
        return PredictedTime(
            total=total, compute=stretched,
            encode_decode=cost.encode_decode_s,
            comm_exposed=max(0.0, total - stretched
                             - cost.encode_decode_s))

    if p == 1:
        comm = 0.0
    else:
        per_message = cost.wire_bytes / cost.messages
        bw, alpha = inputs.bandwidth_bytes_per_s, inputs.alpha_s
        if cost.all_reducible:
            single = ring_allreduce_time(per_message, p, bw, alpha)
        else:
            single = allgather_time(per_message, p, bw, alpha)
        comm = single * cost.messages

    total = t_comp + cost.encode_decode_s + comm
    return PredictedTime(
        total=total,
        compute=t_comp,
        encode_decode=cost.encode_decode_s,
        comm_exposed=comm,
    )


def predict(model: ModelSpec, scheme: Scheme, inputs: PerfModelInputs,
            gpu: GPUSpec = V100,
            profile: Optional[KernelProfile] = None) -> PredictedTime:
    """Route to the right model for ``scheme`` (the public entry point)."""
    return compressed_time(model, scheme, inputs, gpu, profile)


def speedup_over_syncsgd(model: ModelSpec, scheme: Scheme,
                         inputs: PerfModelInputs, gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None) -> float:
    """Fractional speedup of ``scheme`` over the syncSGD baseline:
    positive when compression helps, negative when it hurts."""
    baseline = syncsgd_time(model, inputs, gpu).total
    candidate = predict(model, scheme, inputs, gpu, profile).total
    return (baseline - candidate) / baseline
