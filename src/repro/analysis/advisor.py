"""Auto-advisor: a sharded, million-config Pareto sweep over the grid.

``repro recommend`` prices a six-entry curated menu at one operating
point.  This module answers the stronger question the paper's §5
methodology implies — *across the whole scheme × hyperparameter space,
which configurations are ever worth running on this cluster?* — by

1. enumerating every registered scheme with a hyperparameter grid
   (:func:`candidate_grid`, driven by the compression registry, not a
   hardcoded list),
2. pricing candidate × world size × bandwidth through the
   :mod:`repro.core.grid` kernels in bounded-memory *shards*
   (:class:`~repro.engine.advisorjobs.AdvisorShardJob`) dispatched
   across the :class:`~repro.engine.ExperimentEngine` process pool,
   one fused grid call per candidate,
3. reducing each shard, in the worker that priced it, to its
   minimum-time cells — a shard's error is constant, so exactly those
   are its Pareto survivors, and only they travel back,
4. merging shard frontiers in the parent with one vectorized
   sort-based Pareto sweep (:func:`pareto_mask`, O(n log n), no
   per-point Python loop) over the two objectives *iteration time* and
   *compression error* (Pareto-of-Pareto-union equals
   Pareto-of-union, so the merge is exact), and
5. refining only frontier survivors with exact
   :func:`~repro.core.whatif.solve_crossover` break-even bandwidths,
   then ranking them at the calibrated operating point through the
   same :func:`~repro.core.advisor.recommend_for_inputs` path
   ``repro recommend`` uses — so the two renderings never diverge.

**Compression error proxy.**  Ranking schemes needs a second axis
besides time; following the wire-volume argument, a candidate's error
at world size ``p`` is the fraction of gradient volume its encoding
removes from the wire — ``1 - wire_bytes / grad_bytes``, clipped to
``[0, 1]`` (0 for syncSGD, approaching 1 for aggressive sparsifiers).
It is a proxy for information discarded, not a convergence prediction.

**Determinism.**  Shards slice one global ``np.linspace`` bandwidth
axis, every grid cell is bit-identical to the scalar model, and the
final frontier is sorted by a total order — so sharded-parallel output
is byte-identical to serial, which the determinism tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compression.kernel_cost import v100_kernel_profile
from ..compression.registry import METHODS
from ..compression.schemes import Scheme, SchemeCost, SyncSGDScheme
from ..compute import ComputeModel
from ..core.advisor import Recommendation, recommend_for_inputs
from ..core.calibration import calibrate
from ..core.grid import MAX_GRID_POINTS
from ..core.whatif import Crossing, solve_crossover
from ..engine import AdvisorShardJob, ExperimentEngine
from ..errors import ConfigurationError
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..units import gbps_to_bytes_per_s

def candidate_grid() -> List[Scheme]:
    """Every registered scheme crossed with its hyperparameter grid.

    Drawn from the :class:`~repro.compression.registry.Method` rows,
    sorted by name so that the order — and therefore advisor output —
    is deterministic; a row's ``grid`` defaults to its scheme's default
    construction.
    """
    return [METHODS[name].scheme(**params) for name in sorted(METHODS)
            for params in METHODS[name].grid]


def pareto_mask(times: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-optimal points, minimizing both axes.

    ``a`` dominates ``b`` iff ``a.time <= b.time`` and
    ``a.error <= b.error`` with at least one strict; exact duplicates
    do not dominate each other, so all copies of a frontier point
    survive.  One ``np.lexsort`` plus grouped prefix minima — O(n log
    n) with no per-point Python loop: after sorting by (time, error),
    a point survives iff it attains its time-group's minimum error
    *and* that error strictly undercuts the best error of every
    strictly-earlier time group.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(errors, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise ConfigurationError(
            f"pareto_mask needs two aligned 1-D arrays, got shapes "
            f"{t.shape} and {e.shape}")
    n = t.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((e, t))
    ts, es = t[order], e[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = ts[1:] != ts[:-1]
    starts = np.flatnonzero(new_group)
    group_of = np.cumsum(new_group) - 1
    gmin = es[starts]  # es ascends within a time group
    prev_min = np.concatenate(
        ([np.inf], np.minimum.accumulate(gmin)[:-1]))
    keep_sorted = (es == gmin[group_of]) & (es < prev_min[group_of])
    mask = np.empty(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


def compression_error(model: ModelSpec, scheme: Scheme, world_size: int,
                      profile=None) -> float:
    """The sweep's error proxy: wire volume removed, in ``[0, 1]``."""
    prof = profile if profile is not None else v100_kernel_profile()
    return _error_of(model, scheme.cost(model, world_size, prof))


def _error_of(model: ModelSpec, cost: SchemeCost) -> float:
    """:func:`compression_error` of an already-priced scheme."""
    return float(min(1.0, max(0.0, 1.0 - cost.wire_bytes
                              / model.grad_bytes)))


#: Most bandwidth samples per (candidate, world size) pair, 128x the
#: default: the sweep's work grows with it, so one flag or request body
#: could otherwise occupy the engine indefinitely.
MAX_BANDWIDTH_POINTS = 1 << 20


@dataclass(frozen=True)
class SweepSpec:
    """Axes of one advisor sweep.

    The default grid — 4 world sizes × 8192 bandwidth points per
    candidate — prices over 1.5 million configurations for the default
    candidate grid, in shards of at most ``shard_points`` cells each
    (well under :data:`repro.core.grid.MAX_GRID_POINTS`, so no shard
    can trip the oversize-grid guard).
    """

    world_sizes: Tuple[int, ...] = (8, 16, 32, 64)
    min_bandwidth_gbps: float = 1.0
    max_bandwidth_gbps: float = 30.0
    bandwidth_points: int = 8192
    shard_points: int = 4096

    def __post_init__(self) -> None:
        if not self.world_sizes:
            raise ConfigurationError("world_sizes must be non-empty")
        if any(p < 1 for p in self.world_sizes):
            raise ConfigurationError(
                f"world sizes must be >= 1, got {self.world_sizes}")
        if not 0 < self.min_bandwidth_gbps < self.max_bandwidth_gbps:
            raise ConfigurationError(
                f"need 0 < min < max bandwidth, got "
                f"[{self.min_bandwidth_gbps}, {self.max_bandwidth_gbps}]")
        # Shards price the axis in bytes/s, so its top must convert.
        gbps_to_bytes_per_s(self.max_bandwidth_gbps)
        if not 2 <= self.bandwidth_points <= MAX_BANDWIDTH_POINTS:
            raise ConfigurationError(
                f"bandwidth_points must be in [2, {MAX_BANDWIDTH_POINTS}], "
                f"got {self.bandwidth_points}")
        if not 1 <= self.shard_points <= MAX_GRID_POINTS:
            raise ConfigurationError(
                f"shard_points must be in [1, {MAX_GRID_POINTS}], got "
                f"{self.shard_points}")


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal configuration of the sweep."""

    scheme_label: str
    world_size: int
    bandwidth_gbps: float
    time_s: float
    error: float

    def to_dict(self) -> dict:
        """JSON-safe view."""
        return {
            "scheme": self.scheme_label,
            "world_size": self.world_size,
            "bandwidth_gbps": self.bandwidth_gbps,
            "time_s": self.time_s,
            "error": self.error,
        }


@dataclass(frozen=True)
class AdvisorReport:
    """Everything one sweep produced, deterministically ordered.

    ``configs_total`` counts the enumerated grid, ``configs_priced``
    the cells actually evaluated (infeasible (candidate, world size)
    pairs are screened out before pricing).  ``crossovers`` maps each
    non-baseline frontier scheme to its exact break-even bandwidths on
    the swept range.  ``render`` emits no timings or other
    run-dependent text, so output is byte-identical however the sweep
    was sharded or parallelized.
    """

    model: str
    cluster: str
    world_size: int
    bandwidth_gbps: float
    spec: SweepSpec
    candidates_total: int
    configs_total: int
    configs_priced: int
    shards: int
    infeasible_pairs: int
    frontier: Tuple[FrontierPoint, ...]
    crossovers: Tuple[Tuple[str, Tuple[Crossing, ...]], ...]
    recommendation: Recommendation

    def render(self, top: int = 12) -> str:
        """Human-readable report: grid, frontier, break-evens, ranking."""
        spec = self.spec
        lines = [
            f"auto-advisor for {self.model} on {self.cluster}:",
            f"  grid: {self.candidates_total} candidates x "
            f"{len(spec.world_sizes)} world sizes x "
            f"{spec.bandwidth_points} bandwidths "
            f"({spec.min_bandwidth_gbps:g}-{spec.max_bandwidth_gbps:g} "
            f"Gbit/s) = {self.configs_total:,} configs",
            f"  priced {self.configs_priced:,} configs in {self.shards} "
            f"shards ({self.infeasible_pairs} infeasible "
            f"candidate/world-size pairs skipped)",
            f"  Pareto frontier (time vs compression error): "
            f"{len(self.frontier)} points",
            "      time         error  scheme                p   Gbit/s",
        ]
        shown = self.frontier[:top]
        for pt in shown:
            lines.append(
                f"   {pt.time_s * 1e3:9.3f} ms  {pt.error:8.6f}  "
                f"{pt.scheme_label:<20} {pt.world_size:>3}   "
                f"{pt.bandwidth_gbps:6.2f}")
        if len(self.frontier) > len(shown):
            lines.append(
                f"   ... and {len(self.frontier) - len(shown)} more")
        lines.append(
            f"  break-even bandwidths vs syncsgd "
            f"({spec.min_bandwidth_gbps:g}-{spec.max_bandwidth_gbps:g} "
            f"Gbit/s):")
        for label, crossings in self.crossovers:
            if crossings:
                detail = ", ".join(f"{c.x:.2f} Gbit/s ({c.direction})"
                                   for c in crossings)
            else:
                detail = "none in range"
            lines.append(f"    {label:<20} {detail}")
        lines.append("")
        lines.append(self.recommendation.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe view (the serving layer's response body)."""
        return {
            "model": self.model,
            "cluster": self.cluster,
            "world_size": self.world_size,
            "bandwidth_gbps": self.bandwidth_gbps,
            "spec": {
                "world_sizes": list(self.spec.world_sizes),
                "min_bandwidth_gbps": self.spec.min_bandwidth_gbps,
                "max_bandwidth_gbps": self.spec.max_bandwidth_gbps,
                "bandwidth_points": self.spec.bandwidth_points,
                "shard_points": self.spec.shard_points,
            },
            "candidates_total": self.candidates_total,
            "configs_total": self.configs_total,
            "configs_priced": self.configs_priced,
            "shards": self.shards,
            "infeasible_pairs": self.infeasible_pairs,
            "frontier": [pt.to_dict() for pt in self.frontier],
            "crossovers": {
                label: [{"gbps": c.x, "direction": c.direction}
                        for c in crossings]
                for label, crossings in self.crossovers
            },
            "recommendation": self.recommendation.to_dict(),
        }


@dataclass(frozen=True)
class SweepPlan:
    """An expanded sweep, ready for the engine.

    Produced by :func:`plan_sweep`; ``jobs`` go through
    :meth:`~repro.engine.ExperimentEngine.run_advisor_outcomes` (the
    serving scheduler submits them inside its batch, coalescing with
    other requests) and the outcomes come back to :func:`finish_sweep`.
    ``meta[i]`` records ``(candidate index, world size, error, slice
    start)`` for ``jobs[i]``.
    """

    model: ModelSpec
    cluster: ClusterConfig
    inputs: Any
    spec: SweepSpec
    schemes: Tuple[Scheme, ...]
    jobs: Tuple[AdvisorShardJob, ...]
    meta: Tuple[Tuple[int, int, float, int], ...]
    infeasible_pairs: int


def plan_sweep(model: ModelSpec, cluster: ClusterConfig,
               batch_size: Optional[int] = None,
               candidates: Optional[Sequence[Scheme]] = None,
               spec: Optional[SweepSpec] = None) -> SweepPlan:
    """Calibrate, screen feasibility, and expand the sweep into shards.

    Each feasible (candidate, world size) pair contributes
    ``ceil(bandwidth_points / shard_points)`` bounded
    :class:`~repro.engine.advisorjobs.AdvisorShardJob` values; pairs
    whose gather working set does not fit GPU memory are skipped
    before any pricing.
    """
    sweep = spec if spec is not None else SweepSpec()
    schemes = tuple(candidates) if candidates is not None \
        else tuple(candidate_grid())
    if not schemes:
        raise ConfigurationError("candidate list is empty")
    report = calibrate(model, cluster, batch_size=batch_size)
    inputs = report.inputs
    prof = v100_kernel_profile()
    compute = ComputeModel(model, cluster.gpu)
    bs = inputs.batch_size or model.default_batch_size

    jobs: List[AdvisorShardJob] = []
    meta: List[Tuple[int, int, float, int]] = []
    infeasible_pairs = 0
    points = sweep.bandwidth_points
    for ci, scheme in enumerate(schemes):
        for p in sweep.world_sizes:
            cost = scheme.cost(model, p, prof)
            fits, _ = compute.fits_in_memory(
                bs, cost.aggregation_working_set(p))
            if not fits:
                infeasible_pairs += 1
                continue
            error = _error_of(model, cost)
            for start in range(0, points, sweep.shard_points):
                count = min(sweep.shard_points, points - start)
                jobs.append(AdvisorShardJob(
                    model=model, scheme=scheme, inputs=inputs,
                    world_size=p, bw_lo_gbps=sweep.min_bandwidth_gbps,
                    bw_hi_gbps=sweep.max_bandwidth_gbps,
                    bw_points=points, start=start, count=count,
                    gpu=cluster.gpu))
                meta.append((ci, p, error, start))
    if not jobs:
        raise ConfigurationError(
            "no feasible (candidate, world size) pair to sweep")
    return SweepPlan(model=model, cluster=cluster, inputs=inputs,
                     spec=sweep, schemes=schemes, jobs=tuple(jobs),
                     meta=tuple(meta), infeasible_pairs=infeasible_pairs)


def finish_sweep(plan: SweepPlan, outcomes: Sequence[Any],
                 ) -> AdvisorReport:
    """Reduce engine outcomes for ``plan.jobs`` into the final report.

    Each outcome carries its shard's Pareto survivors (the workers kept
    each shard's minimum-time cells); they are tagged with the shard's
    error, merged by one global Pareto sweep, totally ordered, refined
    with crossovers and ranked by the shared path at the calibrated
    operating point.  Pure post-processing: byte-identical output for
    any sharding or execution order of the same plan.
    """
    model, cluster = plan.model, plan.cluster
    sweep, schemes, inputs = plan.spec, plan.schemes, plan.inputs
    points = sweep.bandwidth_points
    t_all: List[float] = []
    e_all: List[float] = []
    where: List[Tuple[int, int, int]] = []  # (candidate, world size, bw)
    configs_priced = 0
    for (ci, p, error, start), outcome in zip(plan.meta, outcomes):
        shard = outcome.unwrap()
        configs_priced += shard.priced
        t_all.extend(shard.total_s)
        e_all.extend([error] * len(shard.offsets))
        where.extend((ci, p, start + off) for off in shard.offsets)
    survivors = np.flatnonzero(
        pareto_mask(np.array(t_all, dtype=float),
                    np.array(e_all, dtype=float)))

    bw_axis_gbps = np.linspace(sweep.min_bandwidth_gbps,
                               sweep.max_bandwidth_gbps, points)
    frontier = sorted(
        (FrontierPoint(
            scheme_label=schemes[where[i][0]].label,
            world_size=int(where[i][1]),
            bandwidth_gbps=float(bw_axis_gbps[where[i][2]]),
            time_s=t_all[i],
            error=e_all[i])
         for i in survivors),
        key=lambda pt: (pt.time_s, pt.error, pt.scheme_label,
                        pt.world_size, pt.bandwidth_gbps))

    # Refinement: exact break-evens for frontier schemes only, plus the
    # shared ranking path at the calibrated operating point.
    label_order: List[str] = []
    scheme_by_label: Dict[str, Scheme] = {}
    for i in survivors:
        scheme = schemes[where[i][0]]
        if scheme.label not in scheme_by_label:
            scheme_by_label[scheme.label] = scheme
    for pt in frontier:
        if pt.scheme_label not in label_order:
            label_order.append(pt.scheme_label)
    crossovers = tuple(
        (label, solve_crossover(
            model, scheme_by_label[label], inputs,
            sweep.min_bandwidth_gbps, sweep.max_bandwidth_gbps,
            gpu=cluster.gpu))
        for label in label_order
        if not isinstance(scheme_by_label[label], SyncSGDScheme))
    recommendation = recommend_for_inputs(
        model, inputs,
        candidates=[scheme_by_label[label] for label in label_order],
        gpu=cluster.gpu)

    return AdvisorReport(
        model=model.name,
        cluster=cluster.describe(),
        world_size=inputs.world_size,
        bandwidth_gbps=inputs.bandwidth_bytes_per_s * 8 / 1e9,
        spec=sweep,
        candidates_total=len(schemes),
        configs_total=len(schemes) * len(sweep.world_sizes) * points,
        configs_priced=configs_priced,
        shards=len(plan.jobs),
        infeasible_pairs=plan.infeasible_pairs,
        frontier=tuple(frontier),
        crossovers=crossovers,
        recommendation=recommendation,
    )


def advise(model: ModelSpec, cluster: ClusterConfig,
           batch_size: Optional[int] = None,
           candidates: Optional[Sequence[Scheme]] = None,
           spec: Optional[SweepSpec] = None,
           engine: Optional[ExperimentEngine] = None) -> AdvisorReport:
    """Run the full sharded Pareto sweep for one model + cluster.

    :func:`plan_sweep` → one
    :meth:`~repro.engine.ExperimentEngine.run_advisor_outcomes` call →
    :func:`finish_sweep`.  The serving scheduler runs the same three
    stages with its shared engine, which is why ``repro advise`` and
    ``POST /v1/advise`` produce identical reports.
    """
    plan = plan_sweep(model, cluster, batch_size=batch_size,
                      candidates=candidates, spec=spec)
    eng = engine if engine is not None else ExperimentEngine()
    outcomes = eng.run_advisor_outcomes(list(plan.jobs))
    return finish_sweep(plan, outcomes)
