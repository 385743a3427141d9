"""Closed-form model evaluations as engine jobs.

The what-if sweeps (§6) price the *analytic* performance model, not the
simulator — each point is a closed-form evaluation that finishes in
microseconds.  Running them as engine jobs still pays off twice:

* **per-point caching** — a :class:`ModelEvalJob` fingerprints exactly
  like a :class:`~repro.engine.engine.SimJob` does (content hash of
  everything that determines the prediction), so repeated sweeps are
  served from the same :class:`~repro.engine.cache.SimulationCache`;
* **families** — jobs that differ only along vectorizable axes
  (bandwidth, world size, batch size, compute factor, or the Figure-13
  ``k``/``l`` pair) share a :meth:`ModelEvalJob.family_key`.  The engine
  collapses each family into **one** grid-kernel call
  (:mod:`repro.core.grid`) — and, on the pool path, one worker task —
  then fans the cells back out to per-point outcomes and per-point
  cache entries.  Families never change fingerprints or cached bytes;
  they only amortize IPC, hashing, and cache I/O.

The bit-identity contract of :mod:`repro.core.grid` makes the collapse
safe: a family evaluated through the grid kernel yields cells
byte-identical to :meth:`ModelEvalJob.evaluate` run point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.schemes import Scheme
from ..core.grid import (
    compressed_time_grid,
    syncsgd_time_grid,
    tradeoff_time_grid,
)
from ..core.perf_model import (
    PerfModelInputs,
    PredictedTime,
    compressed_time,
    syncsgd_time,
)
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_json,
    digest,
    model_fingerprint,
    profile_fingerprint,
    scheme_fingerprint,
)


def _gpu_payload(gpu: GPUSpec) -> Dict[str, Any]:
    """GPU identity in the same rendering cluster fingerprints use."""
    return {
        "name": gpu.name,
        "peak_fp32_flops": gpu.peak_fp32_flops,
        "training_efficiency": gpu.training_efficiency,
        "memcpy_bytes_per_s": gpu.memcpy_bytes_per_s,
        "memory_bytes": gpu.memory_bytes,
        "kernel_launch_overhead_s": gpu.kernel_launch_overhead_s,
    }


@dataclass(frozen=True, eq=False)
class ModelEvalJob:
    """One closed-form performance-model evaluation.

    ``scheme=None`` prices the syncSGD baseline (§4.1); a scheme prices
    sequential compression (§4.2).  ``compute_factor`` scales the GPU
    *and* the kernel profile, exactly like the Figure-12 sweep.  Setting
    ``tradeoff_k``/``tradeoff_l`` (always together, and only with a base
    scheme) prices the Figure-13 hypothetical instead: encode time
    divided by ``k``, wire payload multiplied by ``l·k``.
    """

    model: ModelSpec
    scheme: Optional[Scheme]
    inputs: PerfModelInputs
    gpu: GPUSpec = V100
    profile: Optional[KernelProfile] = None
    compute_factor: float = 1.0
    tradeoff_k: Optional[float] = None
    tradeoff_l: Optional[float] = None

    def __post_init__(self) -> None:
        if self.compute_factor <= 0:
            raise ConfigurationError(
                f"compute factors must be > 0, got {self.compute_factor}")
        if (self.tradeoff_k is None) != (self.tradeoff_l is None):
            raise ConfigurationError(
                "tradeoff_k and tradeoff_l must be provided together")
        if self.tradeoff_k is not None:
            if self.scheme is None:
                raise ConfigurationError(
                    "tradeoff jobs need a base scheme to derive from")
            if self.compute_factor != 1.0:
                raise ConfigurationError(
                    "tradeoff jobs fix compute_factor at 1.0")
            if self.tradeoff_k < 1:
                raise ConfigurationError(
                    f"k must be >= 1, got {self.tradeoff_k}")
            if self.tradeoff_l < 1:
                raise ConfigurationError(
                    f"l must be >= 1, got {self.tradeoff_l}")

    @property
    def is_tradeoff(self) -> bool:
        """Whether this job prices a Figure-13 hypothetical scheme."""
        return self.tradeoff_k is not None

    def fingerprint(self) -> str:
        """Content hash identifying this evaluation's prediction.

        Shares the cache namespace with simulation jobs without ever
        colliding: the payload leads with a distinct ``kind``.
        """
        payload = {
            "kind": "model-eval",
            "version": FINGERPRINT_VERSION,
            "model": model_fingerprint(self.model),
            "scheme": scheme_fingerprint(self.scheme),
            "gpu": _gpu_payload(self.gpu),
            "profile": profile_fingerprint(self.profile),
            "inputs": {
                "world_size": self.inputs.world_size,
                "bandwidth_bytes_per_s": self.inputs.bandwidth_bytes_per_s,
                "alpha_s": self.inputs.alpha_s,
                "gamma": self.inputs.gamma,
                "batch_size": self.inputs.batch_size,
                "bucket_cap_bytes": self.inputs.bucket_cap_bytes,
            },
            "compute_factor": self.compute_factor,
            "tradeoff": (None if not self.is_tradeoff
                         else {"k": self.tradeoff_k, "l": self.tradeoff_l}),
        }
        return digest(payload)

    def family_key(self) -> str:
        """Grouping key: jobs with equal keys differ only along axes the
        grid kernel vectorizes, so the engine may evaluate them in one
        call.

        Sweep jobs vectorize bandwidth, world size, batch size, and
        compute factor; tradeoff jobs vectorize ``(k, l)`` and therefore
        pin the sweep axes instead.
        """
        payload: Dict[str, Any] = {
            "model": model_fingerprint(self.model),
            "scheme": scheme_fingerprint(self.scheme),
            "gpu": _gpu_payload(self.gpu),
            "profile": profile_fingerprint(self.profile),
            "alpha_s": self.inputs.alpha_s,
            "gamma": self.inputs.gamma,
            "bucket_cap_bytes": self.inputs.bucket_cap_bytes,
        }
        if self.is_tradeoff:
            payload["kind"] = "tradeoff"
            payload["world_size"] = self.inputs.world_size
            payload["bandwidth_bytes_per_s"] = \
                self.inputs.bandwidth_bytes_per_s
            payload["batch_size"] = self.inputs.batch_size
        else:
            payload["kind"] = "sweep"
        return canonical_json(payload)

    def evaluate(self) -> PredictedTime:
        """Price this single point (the per-point reference the family
        grid path reproduces bit for bit)."""
        if self.is_tradeoff:
            grid = tradeoff_time_grid(
                self.model, self.scheme, np.asarray(float(self.tradeoff_k)),
                np.asarray(float(self.tradeoff_l)), self.inputs, self.gpu,
                self.profile)
            return grid.at(())
        gpu = self.gpu
        prof = self.profile
        if self.compute_factor != 1.0:
            gpu = gpu.scaled(self.compute_factor)
            prof = (prof if prof is not None
                    else v100_kernel_profile()).scaled(self.compute_factor)
        if self.scheme is None:
            return syncsgd_time(self.model, self.inputs, gpu)
        return compressed_time(self.model, self.scheme, self.inputs, gpu,
                               prof)

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        scheme_label = self.scheme.label if self.scheme else "syncsgd"
        if self.is_tradeoff:
            return (f"eval {self.model.name} x {scheme_label} "
                    f"k={self.tradeoff_k:g} l={self.tradeoff_l:g}")
        return (f"eval {self.model.name} x {scheme_label} @ "
                f"{self.inputs.world_size} GPUs")


@dataclass
class ModelEvalOutcome:
    """What one model evaluation produced.

    ``exec_s`` is the job's share of its family's evaluation wall time
    (0 for cache hits); ``error`` carries the exception of a failed
    evaluation (an invalid configuration, typically, or an
    :class:`~repro.errors.EngineError` when the engine gave up) so
    sweep code can re-raise it at the offending point.
    ``queue_wait_s`` and ``attempts`` mean what they mean on
    :class:`~repro.engine.engine.JobOutcome`.
    """

    job: ModelEvalJob
    result: Optional[PredictedTime] = None
    error: Optional[Exception] = None
    cached: bool = False
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether a prediction came back."""
        return self.result is not None

    def unwrap(self) -> PredictedTime:
        """The prediction, or re-raise the evaluation's failure."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


def evaluate_family(jobs: Sequence[ModelEvalJob]) -> List[PredictedTime]:
    """Evaluate one family in a single grid-kernel call.

    All jobs must share a :meth:`ModelEvalJob.family_key`; their
    vectorizable axes are laid out as aligned 1-D arrays (a zipped
    sweep, not an outer product), so cell ``i`` is job ``i``'s point —
    bit-identical to ``jobs[i].evaluate()``.
    """
    if not jobs:
        return []
    first = jobs[0]
    if len(jobs) == 1:
        return [first.evaluate()]
    if first.is_tradeoff:
        grid = tradeoff_time_grid(
            first.model, first.scheme,
            np.asarray([float(j.tradeoff_k) for j in jobs]),
            np.asarray([float(j.tradeoff_l) for j in jobs]),
            first.inputs, first.gpu, first.profile)
    else:
        bw = np.asarray([j.inputs.bandwidth_bytes_per_s for j in jobs],
                        dtype=float)
        p = np.asarray([j.inputs.world_size for j in jobs])
        factor = np.asarray([j.compute_factor for j in jobs], dtype=float)
        bs = np.asarray([j.inputs.batch_size
                         if j.inputs.batch_size is not None
                         else j.model.default_batch_size for j in jobs])
        if first.scheme is None:
            grid = syncsgd_time_grid(
                first.model, first.inputs, first.gpu,
                bandwidth_bytes_per_s=bw, world_size=p,
                compute_factor=factor, batch_size=bs)
        else:
            grid = compressed_time_grid(
                first.model, first.scheme, first.inputs, first.gpu,
                first.profile, bandwidth_bytes_per_s=bw, world_size=p,
                compute_factor=factor, batch_size=bs)
    return [grid.at(i) for i in range(len(jobs))]

