"""Advisor bandwidth shards as engine jobs.

The auto-advisor (:mod:`repro.analysis.advisor`) prices the full
scheme × hyperparameter × world-size × bandwidth grid — on the default
sweep, over a million configurations.  One grid call that size would
blow the :data:`repro.core.grid.MAX_GRID_POINTS` bound, so the sweep is
sliced along its widest axis into *shards*: each
:class:`AdvisorShardJob` prices one contiguous slice of the bandwidth
axis for one (candidate, world size) pair through the grid kernels,
bounded-memory by construction.

Two properties make shards engine citizens like
:class:`~repro.engine.modeljobs.ModelEvalJob`:

* **per-shard caching** — a shard fingerprints as content
  (candidate, calibrated inputs, axis specification, slice), so a
  repeated ``repro advise`` is served from the tiered
  :class:`~repro.engine.cache.SimulationCache` without pricing
  anything;
* **families** — shards of one candidate share a
  :meth:`AdvisorShardJob.family_key`; on the pool path the engine
  submits one task per candidate (amortizing IPC over that candidate's
  shards) while each member still runs its own bounded grid call.

Shard boundaries never change values: every shard slices the *same*
full ``np.linspace`` bandwidth axis, so the concatenation of shard
totals is bit-identical to one monolithic grid evaluation — which is
what makes sharded-parallel advise output byte-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..core.grid import compressed_time_grid, syncsgd_time_grid
from ..core.perf_model import PerfModelInputs
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..units import GIGA
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_json,
    digest,
    model_fingerprint,
    profile_fingerprint,
    scheme_fingerprint,
)
from .modeljobs import _gpu_payload


@dataclass(frozen=True)
class AdvisorShardResult:
    """What one shard produced: predicted iteration seconds per point.

    ``total_s[i]`` is the model's total at the shard's ``i``-th
    bandwidth point (plain Python floats, so the cache's JSON round
    trip preserves them exactly).
    """

    total_s: Tuple[float, ...]


@dataclass(frozen=True, eq=False)
class AdvisorShardJob:
    """One bounded slice of the advisor's pricing grid.

    The bandwidth axis is specified *globally* — ``bw_points`` samples
    of ``np.linspace(bw_lo_gbps, bw_hi_gbps)`` — and the shard owns
    ``[start, start + count)`` of it.  Evaluation always materializes
    the full axis and slices (a few kilobytes), so a point's value is
    bit-identical however the sweep is sharded.  ``scheme=None`` prices
    the syncSGD baseline.
    """

    model: ModelSpec
    scheme: Optional[Scheme]
    inputs: PerfModelInputs
    world_size: int
    bw_lo_gbps: float
    bw_hi_gbps: float
    bw_points: int
    start: int
    count: int
    gpu: GPUSpec = V100
    profile: Optional[KernelProfile] = None

    def __post_init__(self) -> None:
        if self.bw_points < 2:
            raise ConfigurationError(
                f"bw_points must be >= 2, got {self.bw_points}")
        if not 0 < self.bw_lo_gbps < self.bw_hi_gbps:
            raise ConfigurationError(
                f"need 0 < bw_lo_gbps < bw_hi_gbps, got "
                f"[{self.bw_lo_gbps}, {self.bw_hi_gbps}]")
        if self.world_size < 1:
            raise ConfigurationError(
                f"world_size must be >= 1, got {self.world_size}")
        if not 0 <= self.start < self.bw_points:
            raise ConfigurationError(
                f"shard start {self.start} outside axis of "
                f"{self.bw_points} points")
        if self.count < 1 or self.start + self.count > self.bw_points:
            raise ConfigurationError(
                f"shard [{self.start}, {self.start + self.count}) outside "
                f"axis of {self.bw_points} points")

    def bandwidth_axis(self) -> np.ndarray:
        """This shard's bandwidths in bytes/s: the global linspace
        (Gbit/s), converted with the scalar helper's exact arithmetic,
        then sliced."""
        full = np.linspace(self.bw_lo_gbps, self.bw_hi_gbps,
                           self.bw_points) * GIGA / 8.0
        return full[self.start:self.start + self.count]

    def bandwidth_axis_gbps(self) -> np.ndarray:
        """This shard's bandwidth points in Gbit/s (for labelling)."""
        full = np.linspace(self.bw_lo_gbps, self.bw_hi_gbps,
                           self.bw_points)
        return full[self.start:self.start + self.count]

    def fingerprint(self) -> str:
        """Content hash identifying this shard's totals.

        Shares the cache namespace with simulation and model-eval jobs
        without colliding: the payload leads with a distinct ``kind``.
        """
        payload = {
            "kind": "advisor-shard",
            "version": FINGERPRINT_VERSION,
            "model": model_fingerprint(self.model),
            "scheme": scheme_fingerprint(self.scheme),
            "gpu": _gpu_payload(self.gpu),
            "profile": profile_fingerprint(self.profile),
            "inputs": {
                "alpha_s": self.inputs.alpha_s,
                "gamma": self.inputs.gamma,
                "batch_size": self.inputs.batch_size,
                "bucket_cap_bytes": self.inputs.bucket_cap_bytes,
            },
            "world_size": self.world_size,
            "axis": {
                "lo_gbps": self.bw_lo_gbps,
                "hi_gbps": self.bw_hi_gbps,
                "points": self.bw_points,
                "start": self.start,
                "count": self.count,
            },
        }
        return digest(payload)

    def family_key(self) -> str:
        """Grouping key: one candidate's shards across world sizes and
        slices, which the pool path submits as a single task."""
        payload: Dict[str, Any] = {
            "kind": "advisor-shard",
            "model": model_fingerprint(self.model),
            "scheme": scheme_fingerprint(self.scheme),
            "gpu": _gpu_payload(self.gpu),
            "profile": profile_fingerprint(self.profile),
            "alpha_s": self.inputs.alpha_s,
            "gamma": self.inputs.gamma,
            "batch_size": self.inputs.batch_size,
            "bucket_cap_bytes": self.inputs.bucket_cap_bytes,
        }
        return canonical_json(payload)

    def evaluate(self) -> AdvisorShardResult:
        """Price this shard: one bounded grid-kernel call."""
        bw = self.bandwidth_axis()
        if self.scheme is None:
            grid = syncsgd_time_grid(
                self.model, self.inputs, self.gpu,
                bandwidth_bytes_per_s=bw, world_size=self.world_size)
        else:
            grid = compressed_time_grid(
                self.model, self.scheme, self.inputs, self.gpu,
                self.profile, bandwidth_bytes_per_s=bw,
                world_size=self.world_size)
        return AdvisorShardResult(
            total_s=tuple(float(t) for t in grid.total))

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        scheme_label = self.scheme.label if self.scheme else "syncsgd"
        return (f"advise {self.model.name} x {scheme_label} @ "
                f"{self.world_size} GPUs, bw[{self.start}:"
                f"{self.start + self.count}]")


@dataclass
class AdvisorShardOutcome:
    """What one shard evaluation produced (mirror of
    :class:`~repro.engine.modeljobs.ModelEvalOutcome`)."""

    job: AdvisorShardJob
    result: Optional[AdvisorShardResult] = None
    error: Optional[Exception] = None
    cached: bool = False
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether shard totals came back."""
        return self.result is not None

    def unwrap(self) -> AdvisorShardResult:
        """The totals, or re-raise the evaluation's failure."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


def evaluate_advisor_family(jobs: Sequence[AdvisorShardJob],
                            ) -> List[AdvisorShardResult]:
    """Evaluate one candidate's shards in order.

    Unlike a model-eval family (one grid call for the whole family),
    each shard keeps its own bounded grid call — the family exists to
    amortize pool IPC and cache batching, not to fuse the math.
    """
    return [job.evaluate() for job in jobs]

