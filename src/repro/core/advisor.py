"""What-if analysis for users (§7): pick a compression scheme for a setup.

The paper argues its model's real value is letting a data scientist
answer "will method X speed up *my* job?" without renting a cluster.
This module packages that workflow: given a model, a cluster (or raw
calibrated inputs) and a candidate list, it prices every candidate,
checks memory feasibility of the gather-based ones, and returns a ranked
recommendation with the reasons spelled out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..compression.kernel_cost import KernelProfile, v100_kernel_profile
from ..compression.registry import METHODS
from ..compression.schemes import Scheme, SyncSGDScheme
from ..compute import ComputeModel
from ..errors import ConfigurationError
from ..hardware import ClusterConfig, GPUSpec, V100
from ..models import ModelSpec
from ..network import Fabric
from .calibration import calibrate
from .perf_model import PerfModelInputs, predict, syncsgd_time

def default_candidates() -> List[Scheme]:
    """The menu a practitioner realistically chooses from.

    The ``menu`` entries of the :class:`~repro.compression.registry.
    Method` rows, in row order.  That order is the order verdicts are
    priced and rendered in, so it is part of the ``repro recommend``
    byte-stable output contract: add rows after the existing ones.
    """
    return [row.scheme(**params) for row in METHODS.values()
            for params in row.menu]


@dataclass(frozen=True)
class CandidateVerdict:
    """One candidate's predicted standing for the user's setup."""

    scheme_label: str
    predicted_s: float
    speedup_vs_syncsgd: float
    feasible: bool
    note: str
    #: The candidate itself, so callers that go on to analyse the
    #: feasible schemes (the serving what-if's crossovers) reuse this
    #: screen.  Schemes compare by identity, so it stays out of ``==``.
    scheme: Scheme = field(compare=False)

    def to_dict(self) -> dict:
        """JSON-safe view (infeasible sentinels become ``None``)."""
        return {
            "scheme": self.scheme_label,
            "predicted_s": (self.predicted_s
                            if math.isfinite(self.predicted_s) else None),
            "speedup_vs_syncsgd": (self.speedup_vs_syncsgd
                                   if math.isfinite(self.speedup_vs_syncsgd)
                                   else None),
            "feasible": self.feasible,
            "note": self.note,
        }


@dataclass(frozen=True)
class Recommendation:
    """Ranked verdicts plus the chosen scheme."""

    model: str
    world_size: int
    bandwidth_gbps: float
    verdicts: Tuple[CandidateVerdict, ...]

    @property
    def best(self) -> CandidateVerdict:
        """Fastest feasible candidate."""
        feasible = [v for v in self.verdicts if v.feasible]
        if not feasible:
            raise ConfigurationError("no feasible candidate")
        return min(feasible, key=lambda v: v.predicted_s)

    def render(self) -> str:
        """Human-readable ranking."""
        lines = [
            f"recommendation for {self.model} at {self.world_size} GPUs, "
            f"{self.bandwidth_gbps:.1f} Gbit/s:"
        ]
        for v in sorted(self.verdicts,
                        key=lambda v: (not v.feasible, v.predicted_s)):
            marker = "->" if v.scheme_label == self.best.scheme_label else "  "
            status = (f"{v.predicted_s * 1e3:7.1f} ms "
                      f"({v.speedup_vs_syncsgd:+.1%})"
                      if v.feasible else "infeasible")
            lines.append(f" {marker} {v.scheme_label:<18} {status}  {v.note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe view, verdicts in the ranking ``render`` prints."""
        ranked = sorted(self.verdicts,
                        key=lambda v: (not v.feasible, v.predicted_s))
        try:
            best = self.best.scheme_label
        except ConfigurationError:
            best = None
        return {
            "model": self.model,
            "world_size": self.world_size,
            "bandwidth_gbps": self.bandwidth_gbps,
            "best": best,
            "verdicts": [v.to_dict() for v in ranked],
        }


def recommend_for_inputs(model: ModelSpec, inputs: PerfModelInputs,
                         candidates: Optional[Sequence[Scheme]] = None,
                         gpu: GPUSpec = V100,
                         profile: Optional[KernelProfile] = None,
                         ) -> Recommendation:
    """Rank candidates for already-calibrated inputs.

    Screens every candidate's gather working set against GPU memory,
    prices the survivors and the sync-SGD baseline with the closed-form
    model, and explains each verdict.  ``repro recommend``,
    ``POST /v1/whatif`` and the advisor sweep's recommendation all come
    from here, so their rendered output cannot diverge.
    """
    schemes = list(candidates) if candidates is not None \
        else default_candidates()
    if not schemes:
        raise ConfigurationError("candidate list is empty")
    prof = profile if profile is not None else v100_kernel_profile()
    compute = ComputeModel(model, gpu)
    bs = inputs.batch_size or model.default_batch_size
    p = inputs.world_size
    baseline = syncsgd_time(model, inputs, gpu).total

    verdicts: List[CandidateVerdict] = []
    for scheme in schemes:
        cost = scheme.cost(model, p, prof)
        fits, required = compute.fits_in_memory(
            bs, cost.aggregation_working_set(p))
        if not fits:
            verdicts.append(CandidateVerdict(
                scheme_label=scheme.label, predicted_s=float("inf"),
                speedup_vs_syncsgd=float("-inf"), feasible=False,
                note=(f"gather working set needs "
                      f"{required / 1e9:.0f} GB > "
                      f"{gpu.memory_bytes / 1e9:.0f} GB GPU"),
                scheme=scheme))
            continue
        predicted = predict(model, scheme, inputs, gpu, prof).total
        speedup = (baseline - predicted) / baseline
        if isinstance(scheme, SyncSGDScheme):
            note = "baseline"
        elif speedup > 0.05:
            note = "worth it"
        elif speedup > -0.02:
            note = "a wash"
        else:
            note = ("encode cost exceeds headroom"
                    if cost.encode_decode_s > max(0.0, baseline - compute.
                                                  backward_time(bs))
                    else "communication savings too small")
        verdicts.append(CandidateVerdict(
            scheme_label=scheme.label, predicted_s=predicted,
            speedup_vs_syncsgd=speedup, feasible=True, note=note,
            scheme=scheme))
    return Recommendation(
        model=model.name,
        world_size=p,
        bandwidth_gbps=inputs.bandwidth_bytes_per_s * 8 / 1e9,
        verdicts=tuple(verdicts),
    )


def recommend(model: ModelSpec, cluster: ClusterConfig,
              batch_size: Optional[int] = None,
              candidates: Optional[Sequence[Scheme]] = None,
              fabric: Optional[Fabric] = None) -> Recommendation:
    """Full §7 workflow: calibrate against the cluster, then rank.

    Uses the same pre-run measurements the paper's methodology collects
    (iperf bandwidth minimum, α, γ).
    """
    report = calibrate(model, cluster, batch_size=batch_size,
                       fabric=fabric)
    return recommend_for_inputs(model, report.inputs,
                                candidates=candidates, gpu=cluster.gpu)
