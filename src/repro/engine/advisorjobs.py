"""Advisor bandwidth shards as engine jobs.

The auto-advisor (:mod:`repro.analysis.advisor`) prices the full
scheme × hyperparameter × world-size × bandwidth grid — on the default
sweep, over a million configurations.  One grid call that size would
blow the :data:`repro.core.grid.MAX_GRID_POINTS` bound, so the sweep is
sliced along its widest axis into *shards*: each
:class:`AdvisorShardJob` owns one contiguous slice of the bandwidth
axis for one (candidate, world size) pair and reduces it to its Pareto
survivors where it was priced.

Two properties make shards engine citizens like
:class:`~repro.engine.modeljobs.ModelEvalJob`:

* **per-shard caching** — a shard fingerprints as content
  (candidate, calibrated inputs, axis specification, slice), so a
  repeated ``repro advise`` is served from the tiered
  :class:`~repro.engine.cache.SimulationCache` without pricing
  anything;
* **families** — shards of one candidate share a
  :meth:`AdvisorShardJob.family_key`; the engine runs each family
  inside one task, and :func:`evaluate_advisor_family` prices the
  members' world sizes × bandwidth span in one grid call (split only
  where it would exceed the bound) and reduces every member's slice of
  it in one pass.

The in-shard reduction is exact: a shard holds one candidate at one
world size, so its compression error is one constant and its Pareto
survivors are its minimum-time cells (:func:`shard_minimum`); a point
dominated inside its shard is dominated in the whole sweep, so the
parent's merge of the survivors loses nothing.  Neither shard
boundaries nor fusion change values: every shard slices the *same*
full ``np.linspace`` bandwidth axis and every grid cell is computed
elementwise, so sharded, fused and parallel advise output are
byte-identical to serial per-shard evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..core import grid as _grid
from ..core.grid import compressed_time_grid, syncsgd_time_grid
from ..core.perf_model import PerfModelInputs
from ..errors import ConfigurationError
from ..hardware import GPUSpec, V100
from ..models import ModelSpec
from ..units import GIGA
from .fingerprint import (
    FINGERPRINT_VERSION,
    compose,
    spec_fragment,
    spec_members,
)


@spec_fragment
def _inputs_fragment(inputs: PerfModelInputs) -> dict:
    """The :class:`PerfModelInputs` fields a shard reads beyond its own
    world size and bandwidth axis."""
    return {
        "alpha_s": inputs.alpha_s,
        "gamma": inputs.gamma,
        "batch_size": inputs.batch_size,
        "bucket_cap_bytes": inputs.bucket_cap_bytes,
    }


@dataclass(frozen=True)
class AdvisorShardResult:
    """What one shard produced: its Pareto survivors.

    ``priced`` counts the cells the shard evaluated; ``offsets[i]`` is
    the ``i``-th survivor's bandwidth index within the shard (ascending)
    and ``total_s[i]`` its predicted iteration seconds.  Plain Python
    ints and floats, so the cache's JSON round trip preserves them
    exactly.
    """

    priced: int
    offsets: Tuple[int, ...]
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
        return self._axis_slice(self.start, self.start + self.count)

    def _axis_slice(self, start: int, stop: int) -> np.ndarray:
        full = np.linspace(self.bw_lo_gbps, self.bw_hi_gbps,
                           self.bw_points) * GIGA / 8.0
        return full[start:stop]

    def _price(self, bandwidth: np.ndarray, world_size) -> np.ndarray:
        """Predicted totals of this shard's candidate over the given
        bandwidth and world-size axes (one grid-kernel call)."""
        if self.scheme is None:
            grid = syncsgd_time_grid(
                self.model, self.inputs, self.gpu,
                bandwidth_bytes_per_s=bandwidth, world_size=world_size)
        else:
            grid = compressed_time_grid(
                self.model, self.scheme, self.inputs, self.gpu,
                self.profile, bandwidth_bytes_per_s=bandwidth,
                world_size=world_size)
        return grid.total

    def fingerprint(self) -> str:
        """Content hash identifying this shard's result.

        Shares the cache namespace with simulation and model-eval jobs
        without colliding: the payload leads with a distinct ``kind``.
        """
        members = spec_members(self.model, self.scheme, self.gpu,
                               self.profile)
        members.update({
            "kind": "advisor-shard",
            "version": FINGERPRINT_VERSION,
            "inputs": _inputs_fragment(self.inputs),
            "world_size": self.world_size,
            "axis": {
                "lo_gbps": self.bw_lo_gbps,
                "hi_gbps": self.bw_hi_gbps,
                "points": self.bw_points,
                "start": self.start,
                "count": self.count,
            },
        })
        return compose(members)

    def family_inputs(self) -> tuple:
        """Every object :meth:`family_key` reads, and nothing else: jobs
        holding the same objects have the same key."""
        return (self.model, self.scheme, self.gpu, self.profile,
                self.inputs)

    def family_key(self) -> str:
        """Grouping key: one candidate's shards across world sizes and
        slices, which the engine evaluates as one family."""
        model, scheme, gpu, profile, inputs = self.family_inputs()
        members = spec_members(model, scheme, gpu, profile)
        members.update({
            "kind": "advisor-shard",
            "alpha_s": inputs.alpha_s,
            "gamma": inputs.gamma,
            "batch_size": inputs.batch_size,
            "bucket_cap_bytes": inputs.bucket_cap_bytes,
        })
        return compose(members)

    def evaluate(self) -> AdvisorShardResult:
        """Price this shard with one bounded grid-kernel call and keep
        its Pareto survivors."""
        return _shard_result(self._price(self.bandwidth_axis(),
                                         self.world_size))

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        scheme_label = self.scheme.label if self.scheme else "syncsgd"
        return (f"advise {self.model.name} x {scheme_label} @ "
                f"{self.world_size} GPUs, bw[{self.start}:"
                f"{self.start + self.count}]")


def shard_minimum(totals: np.ndarray) -> np.ndarray:
    """Indices of a shard's Pareto survivors, ascending.

    A shard's error column is constant, so under
    :func:`~repro.analysis.advisor.pareto_mask`'s strict-dominance rule
    its survivors are exactly the cells equal to the smallest non-NaN
    total, ties included.  ``pareto_mask`` sorts NaN last, so an
    all-NaN shard keeps only its first cell.  A shard has at least one
    cell.
    """
    low = totals.min()
    if np.isnan(low):
        priced = totals[~np.isnan(totals)]
        if priced.size == 0:
            return np.zeros(1, dtype=np.intp)
        low = priced.min()
    return np.flatnonzero(totals == low)


def _shard_result(totals: np.ndarray) -> AdvisorShardResult:
    """One shard's priced totals reduced to its survivors."""
    keep = shard_minimum(totals)
    return AdvisorShardResult(priced=int(totals.size),
                              offsets=tuple(keep.tolist()),
                              total_s=tuple(totals[keep].tolist()))


def _block_results(totals: np.ndarray,
                   cells: Sequence[Tuple[int, int, int]],
                   ) -> List[AdvisorShardResult]:
    """:func:`_shard_result` of every member of one priced block, in
    one pass: member ``j`` is ``totals[row, start:start + count]`` for
    ``cells[j] == (row, start, count)``.

    The members' cells are taken back to back — the block itself when
    the members tile it in row-major order, else a copy — so repeated
    or overlapping members (coalesced requests) are each reduced on
    their own cells.  Each keeps the cells equal to its NaN-skipping
    minimum, or its first cell when all are NaN: :func:`shard_minimum`,
    member by member.
    """
    width = totals.shape[1]
    counts = np.array([count for _, _, count in cells])
    ends = np.cumsum(counts)
    begins = ends - counts
    if ends[-1] == totals.size and all(
            row * width + start == begin
            for (row, start, _), begin in zip(cells, begins.tolist())):
        values = totals.ravel()
    else:
        values = np.concatenate([totals[row, start:start + count]
                                 for row, start, count in cells])
    lows = np.fmin.reduceat(values, begins)
    keep = values == np.repeat(lows, counts)
    keep[begins[np.isnan(lows)]] = True
    hits = np.flatnonzero(keep)
    offsets = (hits - begins[np.searchsorted(ends, hits, side="right")]
               ).tolist()
    kept = values[hits].tolist()
    bounds = [0, *np.searchsorted(hits, ends).tolist()]
    return [AdvisorShardResult(priced=count, offsets=tuple(offsets[a:b]),
                               total_s=tuple(kept[a:b]))
            for count, a, b in zip(counts.tolist(), bounds, bounds[1:])]


def _fused_blocks(jobs: Sequence[AdvisorShardJob], members: List[int],
                  ) -> Iterator[List[int]]:
    """Cut one axis group into runs whose fused grid — unique world
    sizes × covered bandwidth span — stays within
    :data:`~repro.core.grid.MAX_GRID_POINTS`.

    Members are taken in (slice start, world size) order, so a run
    covers whole bandwidth slices across world sizes before it moves
    along the axis.  A member too large on its own still forms a run
    of one, and its grid call raises.
    """
    # Read through the module, as the grid's own guard does, so both
    # always apply the same bound.
    limit = _grid.MAX_GRID_POINTS
    block: List[int] = []
    sizes: Set[int] = set()
    lo = hi = 0
    for i in sorted(members, key=lambda i: (jobs[i].start,
                                            jobs[i].world_size)):
        job = jobs[i]
        if block:
            grown = sizes | {job.world_size}
            stop = max(hi, job.start + job.count)
            if len(grown) * (stop - lo) <= limit:
                block.append(i)
                sizes, hi = grown, stop
                continue
            yield block
        block, sizes = [i], {job.world_size}
        lo, hi = job.start, job.start + job.count
    if block:
        yield block


def evaluate_advisor_family(jobs: Sequence[AdvisorShardJob],
                            ) -> List[AdvisorShardResult]:
    """Evaluate one candidate's shards, each reduced to its Pareto
    survivors before it leaves the worker.

    Members that share an axis specification (a family may mix axes
    when the serving scheduler coalesces requests) are priced in one
    grid call over their world sizes (a ``(k, 1)`` axis) × the
    bandwidth span they cover; each member's slice is then cut out of
    that result.  Groups whose fused grid would exceed
    :data:`~repro.core.grid.MAX_GRID_POINTS` are split.  Every cell is
    computed elementwise, so each result is bit-identical to
    ``job.evaluate()``.
    """
    results: List[Optional[AdvisorShardResult]] = [None] * len(jobs)
    axes: Dict[Tuple[float, float, int], List[int]] = {}
    for i, job in enumerate(jobs):
        axes.setdefault((job.bw_lo_gbps, job.bw_hi_gbps, job.bw_points),
                        []).append(i)
    for members in axes.values():
        for block in _fused_blocks(jobs, members):
            lead = jobs[block[0]]
            sizes = sorted({jobs[i].world_size for i in block})
            lo = min(jobs[i].start for i in block)
            hi = max(jobs[i].start + jobs[i].count for i in block)
            totals = lead._price(lead._axis_slice(lo, hi)[None, :],
                                 np.asarray(sizes)[:, None])
            row = {p: r for r, p in enumerate(sizes)}
            block.sort(key=lambda i: (row[jobs[i].world_size],
                                      jobs[i].start))
            cells = [(row[jobs[i].world_size], jobs[i].start - lo,
                      jobs[i].count) for i in block]
            for i, result in zip(block, _block_results(totals, cells)):
                results[i] = result
    return results  # type: ignore[return-value]
