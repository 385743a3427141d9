"""Resolving a :class:`FaultSchedule` into per-iteration fault state.

The :class:`~repro.simulator.DDPSimulator` asks the injector for a
range of iterations at once — :meth:`FaultInjector.resolve_range` — and
gets back a :class:`ResolvedFaults`: one :class:`IterationFaults` per
iteration (the compute stretch the slowest straggler imposes, the
effective bandwidth scale after every active link/NIC fault is applied
to the fabric's matrix, the surviving world size under elastic
recovery, any recovery stall, and the active retransmit policy), plus
the numeric fields as parallel arrays.  A single iteration is the
one-row range ``resolve_range(i, i + 1)``.

Determinism rules:

* the injector owns its own RNG space — retransmit draws come from a
  generator seeded by ``(schedule seed, iteration, transfer index)``,
  never from the simulator's jitter stream, so attaching faults does
  not perturb jitter and parallel sweeps replay identically;
* everything else is a pure function of the schedule, the cluster, the
  fabric's bandwidth matrix and the iteration index: a range of
  iterations is resolved once per distinct pattern of active faults,
  memoized per range, and shared between injectors that bind the same
  schedule object to the same cluster and shared fabric matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..hardware import ClusterConfig
from ..memo import per_object
from ..network import Fabric
# Re-exported as ``repro.faults.FAULT_STREAM``, the stream fault
# windows are drawn on.
from ..simulator.trace import FAULT_STREAM  # noqa: F401
from ..telemetry.metrics import get_registry
from .schedule import FaultSchedule, LinkFault, NodeFault, RetransmitFault


@dataclass(frozen=True)
class IterationFaults:
    """The resolved fault state of one simulated iteration.

    Attributes:
        iteration: The 0-based absolute iteration index.
        compute_slowdown: Compute stretch factor (>= 1); lockstep
            training runs at the slowest straggler's pace.
        bandwidth_scale: Multiplier (<= 1) on the fabric's pairwise
            minimum bandwidth after active link/NIC faults.
        world_size: Workers actually participating (reduced by elastic
            crash recovery; never below 1).
        stall_s: Recovery stall charged at the start of the iteration
            (crash restart / elastic reconfiguration).
        stall_label: Trace label for the stall span (``None`` = none).
        retransmit: The active retransmit policy, if any.
        active: Labels of every active fault, for trace fault-window
            spans and telemetry (sorted, low cardinality).
    """

    iteration: int
    compute_slowdown: float
    bandwidth_scale: float
    world_size: int
    stall_s: float
    stall_label: Optional[str]
    retransmit: Optional[RetransmitFault]
    active: Tuple[str, ...]

    @property
    def degraded(self) -> bool:
        """Whether anything at all is wrong this iteration."""
        return bool(self.active) or self.stall_s > 0


@dataclass(frozen=True)
class ResolvedFaults:
    """A contiguous range of iterations' fault state, as arrays.

    The batch simulation fast path consumes fault state as masks and
    broadcasts rather than one :class:`IterationFaults` at a time; this
    is the array form :meth:`FaultInjector.resolve_range` returns.  The
    arrays are parallel over iterations ``start .. start + n - 1`` and
    each element is exactly the corresponding field of that
    iteration's entry in ``states``.  A resolution may be shared by
    several injectors, so its arrays are read-only.

    Attributes:
        start: First (0-based absolute) iteration of the range.
        states: The per-iteration :class:`IterationFaults` records (for
            retransmit policies and telemetry mirroring).
        compute_slowdown: ``(n,)`` compute stretch factors (>= 1).
        bandwidth_scale: ``(n,)`` min-bandwidth multipliers (<= 1).
        world_size: ``(n,)`` surviving world sizes (int).
        stall_s: ``(n,)`` start-of-iteration recovery stalls.
    """

    start: int
    states: Tuple[IterationFaults, ...]
    compute_slowdown: np.ndarray
    bandwidth_scale: np.ndarray
    world_size: np.ndarray
    stall_s: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    @property
    def has_retransmits(self) -> bool:
        """Whether any iteration in the range can drop transfers."""
        return any(s.retransmit is not None and s.retransmit.drop_rate > 0
                   for s in self.states)


#: One shared resolution table: the cluster and the read-only fabric
#: matrix it was resolved against (held, so their ids stay valid), and
#: the resolved ranges keyed by ``(start, stop)``.
_Table = Tuple[ClusterConfig, np.ndarray,
               Dict[Tuple[int, int], ResolvedFaults]]


@per_object
def _shared_tables(schedule: FaultSchedule) -> Dict[Tuple[int, int], _Table]:
    """Per schedule object: its resolution tables, keyed by the ids of
    the cluster and the shared fabric matrix they bind it to."""
    return {}


class FaultInjector:
    """Binds a :class:`FaultSchedule` to one cluster + fabric.

    Construction validates the schedule against the topology (a
    straggler on worker 12 of an 8-GPU job is a spec error, not a
    silent no-op) and snapshots the fault-free minimum bandwidth so
    per-iteration scales are computed against the true baseline.

    Resolution is a pure function of the schedule, the cluster and the
    fabric's bandwidth matrix, so injectors that bind one schedule
    object to one cluster object and one shared (read-only) matrix
    share their resolved ranges, read-only.  A degraded fabric owns a
    private matrix and resolves on its own.
    """

    def __init__(self, schedule: FaultSchedule, cluster: ClusterConfig,
                 fabric: Fabric):
        """Validate ``schedule`` against the topology and bind it."""
        self.schedule = schedule
        self.cluster = cluster
        self.fabric = fabric
        self._validate_topology()
        self._base_min_bw = fabric.min_bandwidth()
        self._private: Dict[Tuple[int, int], ResolvedFaults] = {}
        self._last: Optional[Tuple[dict, Tuple[int, int],
                                  ResolvedFaults]] = None
        #: Counters the CLI prints after a faulted run; mirrored into
        #: telemetry when a registry is enabled.  They describe the most
        #: recent run: :meth:`reset_run_counters` zeroes them at the
        #: start of every :meth:`DDPSimulator.run
        #: <repro.simulator.ddp.DDPSimulator.run>`.
        self.retransmits_injected = 0
        self.retransmit_delay_s = 0.0

    def reset_run_counters(self) -> None:
        """Zero the per-run retransmit counters.

        The simulator calls this at the start of every run; without it,
        repeated ``run()`` calls on one simulator accumulate and the
        post-run :meth:`summary` overcounts on reruns.
        """
        self.retransmits_injected = 0
        self.retransmit_delay_s = 0.0

    def _validate_topology(self) -> None:
        """Reject faults referencing workers/nodes the cluster lacks."""
        p = self.cluster.world_size
        n = self.cluster.num_nodes
        for s in self.schedule.stragglers:
            if s.worker >= p:
                raise ConfigurationError(
                    f"straggler worker {s.worker} out of range for "
                    f"{p} workers")
        for c in self.schedule.crashes:
            if c.worker >= p:
                raise ConfigurationError(
                    f"crash worker {c.worker} out of range for "
                    f"{p} workers")
        for link in self.schedule.links:
            if link.node_a >= n or link.node_b >= n:
                raise ConfigurationError(
                    f"link fault ({link.node_a}, {link.node_b}) out of "
                    f"range for {n} nodes")
            # Defense in depth: LinkFault's constructor rejects these
            # too, but a self-link that slips through (hand-built or
            # deserialized records) would have its factor applied to the
            # same matrix cell twice (factor²) in _bandwidth_scale.
            if link.node_a == link.node_b:
                raise ConfigurationError(
                    f"link fault endpoints must differ, got node "
                    f"{link.node_a} twice")
            if link.factor <= 0:
                raise ConfigurationError(
                    f"link factor must be > 0, got {link.factor}")
        for node in self.schedule.nodes:
            if node.node >= n:
                raise ConfigurationError(
                    f"node fault {node.node} out of range for {n} nodes")
            if node.factor <= 0:
                raise ConfigurationError(
                    f"node factor must be > 0, got {node.factor}")

    # ----- resolution ---------------------------------------------------------

    def resolve_range(self, start: int, stop: int) -> ResolvedFaults:
        """Resolve iterations ``[start, stop)`` into parallel arrays.

        The :class:`ResolvedFaults` form the batch kernel applies as
        masks and broadcasts.  Memoized per range and shared with every
        injector binding this schedule object to this cluster object
        and this fabric's shared matrix; the arrays are read-only.
        Ranges of at most one iteration are not shared: the injector
        keeps only its latest.
        """
        if stop < start:
            raise ConfigurationError(
                f"resolve_range: stop ({stop}) must be >= start ({start})")
        ranges = self._ranges()
        if stop - start <= 1:
            # Stepping one iteration at a time must not grow the table:
            # keep only the latest, which the per-transfer retransmit
            # draws re-read, tied to its table (a late degrade swaps it).
            last = self._last
            if (last is None or last[0] is not ranges
                    or last[1] != (start, stop)):
                last = self._last = (ranges, (start, stop),
                                     self._resolve(start, stop))
            return last[2]
        resolved = ranges.get((start, stop))
        if resolved is None:
            resolved = ranges[(start, stop)] = self._resolve(start, stop)
        return resolved

    def _ranges(self) -> Dict[Tuple[int, int], ResolvedFaults]:
        """The range table this injector reads and fills."""
        matrix = self.fabric._pair_bw
        if matrix.flags.writeable:
            # A degraded fabric's private matrix: never shared.
            return self._private
        tables = _shared_tables(self.schedule)
        key = (id(self.cluster), id(matrix))
        table = tables.get(key)
        if table is None:
            table = tables[key] = (self.cluster, matrix, {})
        return table[2]

    def _resolve(self, start: int, stop: int) -> ResolvedFaults:
        """Resolve ``[start, stop)`` once per distinct activity pattern.

        Every fault's activity over the range is one boolean column;
        rows (iterations) with equal columns have equal fault state, so
        each distinct row is resolved once and fanned out.
        """
        sched = self.schedule
        its = np.arange(start, stop)
        n = its.size
        columns = ([f.active(its) for f in sched.stragglers]
                   + [f.active(its) for f in sched.links]
                   + [f.active(its) for f in sched.nodes]
                   + [f.active(its) for f in sched.retransmits]
                   + [its == c.at_iteration for c in sched.crashes]
                   + [its >= c.at_iteration for c in sched.crashes])
        if columns and n:
            pattern = np.stack(columns, axis=1)
            _, first, inverse = np.unique(pattern, axis=0, return_index=True,
                                          return_inverse=True)
            rows = pattern[first].tolist()
            inverse = inverse.reshape(-1)
        else:
            # No faults (one empty pattern) or no iterations (none).
            rows = [[]] if n else []
            inverse = np.zeros(n, dtype=np.int64)
        bw_memo: Dict[tuple, float] = {}
        fields = [self._resolve_pattern(row, bw_memo) for row in rows]
        states = tuple(IterationFaults(start + r, *fields[k])
                       for r, k in enumerate(inverse.tolist()))

        def column(index: int, dtype: type) -> np.ndarray:
            values = np.array([f[index] for f in fields], dtype=dtype)[inverse]
            values.flags.writeable = False
            return values

        return ResolvedFaults(
            start=start, states=states,
            compute_slowdown=column(0, float),
            bandwidth_scale=column(1, float),
            world_size=column(2, np.int64),
            stall_s=column(3, float))

    def _resolve_pattern(self, flags: List[bool],
                         bw_memo: Dict[tuple, float]) -> tuple:
        """Every :class:`IterationFaults` field but ``iteration`` for one
        activity pattern, in declaration order.

        ``flags`` holds, in schedule order: each straggler's, link's,
        node's and retransmit's activity, whether each crash hits this
        iteration, and whether each crash has happened by it.
        """
        sched = self.schedule
        it = iter(flags)
        strag_on = [next(it) for _ in sched.stragglers]
        link_on = [next(it) for _ in sched.links]
        node_on = [next(it) for _ in sched.nodes]
        retx_on = [next(it) for _ in sched.retransmits]
        crash_hit = [next(it) for _ in sched.crashes]
        crash_past = [next(it) for _ in sched.crashes]
        active = []

        # A worker that left elastically stops straggling.
        departed = {c.worker for c, past in zip(sched.crashes, crash_past)
                    if past and c.recovery == "elastic"}
        slowdown = 1.0
        for s, on in zip(sched.stragglers, strag_on):
            if on and s.worker not in departed:
                slowdown = max(slowdown, s.slowdown)
                active.append("straggler")

        pattern = (tuple(f for f, on in zip(sched.links, link_on) if on),
                   tuple(f for f, on in zip(sched.nodes, node_on) if on))
        bw_scale = bw_memo.get(pattern)
        if bw_scale is None:
            bw_scale = bw_memo[pattern] = self._bandwidth_scale(*pattern)
        if bw_scale < 1.0:
            active.append("degraded-link")

        world = self.cluster.world_size
        stall_s = 0.0
        stall_label = None
        elastic_gone: set = set()
        for c, hit, past in zip(sched.crashes, crash_hit, crash_past):
            if (c.recovery == "elastic" and past
                    and c.worker not in elastic_gone):
                # Decrement once per *departed worker*, not per entry:
                # the schedule validates against duplicate elastic
                # crashes, but a hand-built duplicate must not shrink
                # the world twice for one physical departure.
                elastic_gone.add(c.worker)
                world -= 1
            if hit:
                stall_s += c.stall_s
                stall_label = f"crash-{c.recovery}"
                active.append(f"crash-{c.recovery}")
        world = max(1, world)

        retransmit = None
        for r, on in zip(sched.retransmits, retx_on):
            if on:
                # With several overlapping policies the harshest wins —
                # modelling independent loss processes would need a
                # combined rate anyway, and one policy is the 99% case.
                if retransmit is None or r.drop_rate > retransmit.drop_rate:
                    retransmit = r
        if retransmit is not None:
            active.append("retransmit-risk")

        return (slowdown, bw_scale, world, stall_s, stall_label, retransmit,
                tuple(sorted(set(active))))

    def _bandwidth_scale(self, links: Tuple[LinkFault, ...],
                         nodes: Tuple[NodeFault, ...]) -> float:
        """Effective min-bandwidth multiplier under active link faults.

        Applies every active link/NIC factor to a copy of the fabric's
        pairwise matrix and re-takes the minimum — exactly the paper's
        probe-and-take-minimum methodology, run against the degraded
        fabric.
        """
        n = self.cluster.num_nodes
        if n <= 1 or not (links or nodes):
            return 1.0
        matrix = np.array(self.fabric._pair_bw, dtype=float)
        np.fill_diagonal(matrix, np.inf)
        for link in links:
            matrix[link.node_a, link.node_b] *= link.factor
            matrix[link.node_b, link.node_a] *= link.factor
        for node in nodes:
            others = np.arange(n) != node.node
            matrix[node.node, others] *= node.factor
            matrix[others, node.node] *= node.factor
        return float(matrix.min()) / self._base_min_bw

    # ----- retransmits ------------------------------------------------------

    def count_retransmits(self, delay_s: float, replays: int) -> None:
        """Add one transfer's retransmits to the run counters, mirrored
        into telemetry when a registry is enabled."""
        self.retransmits_injected += replays
        self.retransmit_delay_s += delay_s
        registry = get_registry()
        if registry.enabled:
            registry.counter("sim_fault_retransmits_total").inc(replays)
            registry.histogram("sim_fault_retransmit_delay_s").observe(
                delay_s)

    def retransmit_delay_range(self, start: int, stop: int,
                               transfer_index: int,
                               base_durations_s: np.ndarray,
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Extra seconds one transfer pays to loss, for every iteration
        in ``[start, stop)``.

        Returns ``(delay_s, replays)`` arrays of length ``stop - start``.
        Each attempt drops with the active policy's ``drop_rate``;
        attempt *k*'s failure costs a timeout of
        ``timeout_s * backoff**(k-1)`` plus a full replay of the
        transfer (its base duration again).  After ``max_retries``
        failures the transfer is forced through.  Each iteration's draws
        come from a generator seeded by ``(schedule seed, iteration,
        transfer_index)``, so they are reproducible and independent of
        the jitter RNG; the delay terms accumulate retry by retry, as
        the scalar per-transfer loop in ``tests/oracle.py`` adds them.

        This is *pure*: the run counters and telemetry are untouched —
        the batch kernel mirrors them through :meth:`count_retransmits`
        after assembling every transfer, in the event loop's order.
        """
        n = stop - start
        durs = np.asarray(base_durations_s, dtype=float)
        delays = np.zeros(n)
        replays = np.zeros(n, dtype=np.int64)
        # Group rows by active policy: draws vectorize per policy (its
        # drop rate and retry schedule are shared), while each row keeps
        # its own seeded stream.
        groups: Dict[RetransmitFault, list] = {}
        states = self.resolve_range(start, stop).states
        for row in range(n):
            policy = states[row].retransmit
            # The event path never rolls the dice for an idle policy or
            # a zero-length transfer (duration <= 0 skips retransmits).
            if policy is None or policy.drop_rate == 0.0 or durs[row] <= 0:
                continue
            groups.setdefault(policy, []).append(row)
        for policy, rows in groups.items():
            draws = np.stack([
                np.random.default_rng(
                    (self.schedule.seed, start + row, transfer_index)
                ).random(policy.max_retries)
                for row in rows])
            delivered = draws >= policy.drop_rate
            reps = np.where(delivered.any(axis=1),
                            delivered.argmax(axis=1), policy.max_retries)
            row_durs = durs[rows]
            delay = np.zeros(len(rows))
            for k in range(int(reps.max()) if len(reps) else 0):
                # Same association as the scalar loop: timeout term
                # (python-float scalar) plus the replayed transfer,
                # added onto the running delay.
                term = policy.timeout_s * policy.backoff ** k
                delay = np.where(reps > k, delay + (term + row_durs),
                                 delay)
            delays[rows] = delay
            replays[rows] = reps
        return delays, replays

    # ----- reporting --------------------------------------------------------

    def record_iterations(self, states: Sequence[IterationFaults]) -> None:
        """Mirror iterations' fault state into telemetry (enabled
        registries only; pure counter writes, no RNG interaction).

        Counts are summed per counter before one increment each, which
        adds exactly what per-iteration increments would; stall
        seconds are added one by one, in iteration order.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        degraded = [state for state in states if state.degraded]
        if not degraded:
            return
        registry.counter("sim_fault_degraded_iterations_total").inc(
            len(degraded))
        # "crash-restart" -> "crash": keep label cardinality tiny.
        kinds = Counter(label.split("-")[0]
                        for state in degraded for label in state.active)
        for kind, count in kinds.items():
            registry.counter("sim_faults_active_total", kind=kind).inc(count)
        stalls = [state.stall_s for state in degraded if state.stall_s > 0]
        if stalls:
            stall_total = registry.counter("sim_fault_stall_s_total")
            for stall_s in stalls:
                stall_total.inc(stall_s)

    def summary(self) -> str:
        """One-line post-run summary for the CLI."""
        return (f"faults: {self.schedule.describe()}; "
                f"{self.retransmits_injected} retransmits "
                f"(+{self.retransmit_delay_s * 1e3:.1f} ms)")
