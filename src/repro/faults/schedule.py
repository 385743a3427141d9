"""Declarative fault schedules: what goes wrong, where, and when.

A :class:`FaultSchedule` is a frozen value object — tuples of fault
records plus a seed for the stochastic faults (retransmits).  It is the
unit of reproducibility: the schedule travels inside
:class:`~repro.engine.SimJob`, contributes to the job's content
fingerprint (so cached results can never be served across different
fault scenarios), and round-trips losslessly through JSON for the
``repro simulate --faults spec.json`` CLI.

Iteration indices are **0-based and absolute**: warmup iterations
count, so a fault at iteration 0 affects the very first simulated
iteration (which the measurement protocol then discards with the rest
of the warmup).

The JSON schema is documented in ``docs/faults.md``; every field name
below matches its JSON key exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError


def _check_int(what: str, value: Any, minimum: int) -> None:
    """Require an integer (``bool`` excluded) of at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < minimum):
        raise ConfigurationError(
            f"{what} must be an integer >= {minimum}, got {value!r}")


def _check_real(what: str, value: Any) -> None:
    """Require a finite real number (``bool`` excluded)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)):
        raise ConfigurationError(
            f"{what} must be a finite number, got {value!r}")


def _check_window(name: str, start: int, duration: Optional[int],
                  period: Optional[int] = None) -> None:
    """Validate a fault's activity window (shared by all fault kinds)."""
    _check_int(f"{name}: start_iteration", start, 0)
    if duration is not None:
        _check_int(f"{name}: duration_iterations (None = persistent)",
                   duration, 1)
    if period is not None:
        _check_int(f"{name}: period_iterations", period, 1)
        if duration is None:
            raise ConfigurationError(
                f"{name}: a flapping fault (period_iterations set) needs "
                f"a finite duration_iterations")
        if period <= duration:
            raise ConfigurationError(
                f"{name}: period_iterations ({period}) must exceed "
                f"duration_iterations ({duration}) — otherwise the fault "
                f"is simply persistent")


def _window_active(iteration: Any, start: int, duration: Optional[int],
                   period: Optional[int] = None) -> Any:
    """Whether a (start, duration, period) window covers ``iteration``.

    ``iteration`` is an int or an integer array (elementwise mask); a
    negative offset's modulus is masked out by ``iteration >= start``.
    """
    active = iteration >= start
    if duration is not None:
        offset = iteration - start
        if period is not None:
            offset = offset % period
        active = active & (offset < duration)
    return active


@dataclass(frozen=True)
class StragglerFault:
    """A worker whose *compute* runs slow (thermal throttling, noisy
    neighbour, a dying GPU).

    In lockstep data-parallel training every collective waits for the
    slowest participant, so one straggling worker stretches the whole
    iteration's compute by ``slowdown``.

    Attributes:
        worker: Global rank of the straggling worker.
        slowdown: Compute stretch factor (> 1; 2.0 = half speed).
        start_iteration: First affected iteration (0-based, absolute).
        duration_iterations: Window length; ``None`` = persistent.
    """

    worker: int
    slowdown: float
    start_iteration: int = 0
    duration_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        _check_int("straggler worker", self.worker, 0)
        _check_real("straggler slowdown", self.slowdown)
        if self.slowdown <= 1.0:
            raise ConfigurationError(
                f"straggler slowdown must be > 1, got {self.slowdown}")
        _check_window("straggler", self.start_iteration,
                      self.duration_iterations)

    def active(self, iteration: int) -> bool:
        """Whether this fault affects ``iteration`` (elementwise
        over an integer array)."""
        return _window_active(iteration, self.start_iteration,
                              self.duration_iterations)


@dataclass(frozen=True)
class LinkFault:
    """One inter-node link running below nominal bandwidth.

    Set ``period_iterations`` to make the link *flap*: degraded for
    ``duration_iterations`` out of every ``period_iterations``, healthy
    in between — the "sometimes fine, sometimes terrible" pattern that
    makes real incidents hard to localize.

    Attributes:
        node_a: One endpoint (node index).
        node_b: The other endpoint.
        factor: Bandwidth multiplier in (0, 1] while active.
        start_iteration: First affected iteration.
        duration_iterations: Degraded window length; ``None`` = persistent.
        period_iterations: Flap period; ``None`` = a single window.
    """

    node_a: int
    node_b: int
    factor: float
    start_iteration: int = 0
    duration_iterations: Optional[int] = None
    period_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        _check_int("link node_a", self.node_a, 0)
        _check_int("link node_b", self.node_b, 0)
        _check_real("link factor", self.factor)
        if self.node_a == self.node_b:
            raise ConfigurationError(
                f"link fault endpoints must differ, got node "
                f"{self.node_a} twice")
        if not 0 < self.factor <= 1:
            raise ConfigurationError(
                f"link factor must be in (0, 1], got {self.factor}")
        _check_window("link", self.start_iteration,
                      self.duration_iterations, self.period_iterations)

    def active(self, iteration: int) -> bool:
        """Whether the link is degraded during ``iteration`` (elementwise
        over an integer array)."""
        return _window_active(iteration, self.start_iteration,
                              self.duration_iterations,
                              self.period_iterations)


@dataclass(frozen=True)
class NodeFault:
    """Every link touching one node degraded — a straggler NIC.

    This is the network-side straggler the paper's pre-run iperf
    methodology exists to catch: collectives run at the pace of the
    pairwise *minimum* bandwidth, so one bad NIC drags the whole ring.

    Attributes:
        node: The affected node index.
        factor: Bandwidth multiplier in (0, 1] while active.
        start_iteration: First affected iteration.
        duration_iterations: Window length; ``None`` = persistent.
        period_iterations: Flap period; ``None`` = a single window.
    """

    node: int
    factor: float
    start_iteration: int = 0
    duration_iterations: Optional[int] = None
    period_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        _check_int("node", self.node, 0)
        _check_real("node factor", self.factor)
        if not 0 < self.factor <= 1:
            raise ConfigurationError(
                f"node factor must be in (0, 1], got {self.factor}")
        _check_window("node", self.start_iteration,
                      self.duration_iterations, self.period_iterations)

    def active(self, iteration: int) -> bool:
        """Whether the NIC is degraded during ``iteration`` (elementwise
        over an integer array)."""
        return _window_active(iteration, self.start_iteration,
                              self.duration_iterations,
                              self.period_iterations)


#: Most retransmits one transfer may attempt.  Pricing a transfer draws
#: ``max_retries`` float64s for each iteration row it covers: at the
#: kernel's ``MAX_ITERATIONS`` (10,000 rows) this bound holds the draw
#: matrix to 8 MB per transfer, where an unbounded count (a JSON field)
#: would exhaust memory before the first row is priced.  Real stacks
#: give up far sooner (Linux's ``tcp_retries2`` defaults to 15).
MAX_RETRANSMIT_RETRIES = 100

#: Most timeout seconds one transfer may accumulate before it is forced
#: through: ``timeout_s * backoff**k`` summed over ``k < max_retries``.
#: It is the square root of the float limit less 64 binary orders of
#: magnitude.  A priced run adds a transfer's delay into sums over at
#: most ``MAX_ITERATIONS`` (10,000 < 2**14) rows and every transfer of
#: an iteration, and the reported spread (``np.std``) squares those
#: sums' deviations, so its sum of squares stays finite up to 2**57
#: transfers per iteration.  Nearer the limit the run overflowed:
#: ``timeout_s=1e307`` with ``backoff=10`` summed to ``inf`` and
#: rendered the trace as ``NaN``, and a 1e288 s total reported a spread
#: of ``inf`` over 10,000 iterations.
MAX_RETRANSMIT_DELAY_S = math.sqrt(sys.float_info.max) / 2.0 ** 64


@dataclass(frozen=True)
class RetransmitFault:
    """Gradient transfers that occasionally need to be re-sent.

    Each communication span independently "drops" with probability
    ``drop_rate`` per attempt (drawn from the schedule's seeded RNG, so
    the pattern is reproducible).  A dropped transfer costs a timeout —
    growing by ``backoff`` per consecutive failure — plus a full α+β
    replay of the transfer itself, which is how TCP-level loss actually
    bills a collective.

    Attributes:
        drop_rate: Per-attempt drop probability in [0, 1).
        timeout_s: Detection timeout before the first retransmit.
        backoff: Multiplier on the timeout per consecutive failure (>= 1).
        max_retries: Attempts after which the transfer is forced through
            (the fabric eventually delivers; training never wedges), at
            most :data:`MAX_RETRANSMIT_RETRIES`.  The timeouts of all
            ``max_retries`` attempts together may not exceed
            :data:`MAX_RETRANSMIT_DELAY_S`.
        start_iteration: First affected iteration.
        duration_iterations: Window length; ``None`` = persistent.
    """

    drop_rate: float
    timeout_s: float = 2e-3
    backoff: float = 2.0
    max_retries: int = 5
    start_iteration: int = 0
    duration_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "timeout_s", "backoff"):
            _check_real(name, getattr(self, name))
        if not 0 <= self.drop_rate < 1:
            raise ConfigurationError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.timeout_s < 0:
            raise ConfigurationError(
                f"timeout_s must be >= 0, got {self.timeout_s}")
        if self.backoff < 1:
            raise ConfigurationError(
                f"backoff must be >= 1, got {self.backoff}")
        _check_int("max_retries", self.max_retries, 1)
        if self.max_retries > MAX_RETRANSMIT_RETRIES:
            raise ConfigurationError(
                f"max_retries must be <= {MAX_RETRANSMIT_RETRIES}, got "
                f"{self.max_retries}")
        try:
            # The injector's own terms: ``backoff ** k`` raises
            # OverflowError even when ``timeout_s`` is zero.
            worst = sum(self.timeout_s * self.backoff ** k
                        for k in range(self.max_retries))
        except OverflowError:
            worst = math.inf
        if not worst <= MAX_RETRANSMIT_DELAY_S:
            raise ConfigurationError(
                f"retransmit timeouts over max_retries={self.max_retries} "
                f"attempts must total <= {MAX_RETRANSMIT_DELAY_S:g} s, got "
                f"{worst:g} s (timeout_s={self.timeout_s}, "
                f"backoff={self.backoff})")
        _check_window("retransmit", self.start_iteration,
                      self.duration_iterations)

    def active(self, iteration: int) -> bool:
        """Whether transfers can drop during ``iteration`` (elementwise
        over an integer array)."""
        return _window_active(iteration, self.start_iteration,
                              self.duration_iterations)


#: Crash recovery policies: restart the worker and replay the iteration
#: from its checkpoint, or reconfigure elastically to n-1 workers.
RECOVERY_POLICIES = ("restart", "elastic")


@dataclass(frozen=True)
class CrashFault:
    """A worker process dies at the start of an iteration.

    Two recovery policies, mirroring what real systems do:

    * ``"restart"`` — the worker is relaunched and rejoins from the
      current iteration; everyone stalls for ``stall_s`` (process
      launch + NCCL re-init + checkpoint load), then training resumes
      at full world size;
    * ``"elastic"`` — the job reconfigures to ``n - 1`` workers (a
      torchelastic-style membership change costing ``stall_s`` once)
      and *stays* at the reduced size for the rest of the run, which
      changes every subsequent collective's cost.

    Attributes:
        worker: Global rank of the crashing worker.
        at_iteration: Iteration at whose start the crash hits.
        recovery: ``"restart"`` or ``"elastic"``.
        stall_s: Simulated recovery stall, charged once at
            ``at_iteration``.
    """

    worker: int
    at_iteration: int
    recovery: str = "restart"
    stall_s: float = 1.0

    def __post_init__(self) -> None:
        _check_int("crash worker", self.worker, 0)
        _check_int("at_iteration", self.at_iteration, 0)
        _check_real("stall_s", self.stall_s)
        if self.recovery not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.recovery!r} "
                f"(choose from {RECOVERY_POLICIES})")
        if self.stall_s < 0:
            raise ConfigurationError(
                f"stall_s must be >= 0, got {self.stall_s}")


#: JSON keys of the schedule's fault lists, in serialization order.
_FAULT_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("stragglers", StragglerFault),
    ("links", LinkFault),
    ("nodes", NodeFault),
    ("retransmits", RetransmitFault),
    ("crashes", CrashFault),
)


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one simulated run.

    Attributes:
        seed: Seed for the schedule's own RNG (retransmit draws).  Kept
            separate from the simulator's jitter RNG so that attaching
            faults never perturbs the jitter stream.
        stragglers: Compute-side stragglers.
        links: Degraded / flapping inter-node links.
        nodes: Straggler NICs (whole-node degradation).
        retransmits: Transfer-drop policies.
        crashes: Worker crashes with recovery policies.
    """

    seed: int = 0
    stragglers: Tuple[StragglerFault, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    nodes: Tuple[NodeFault, ...] = ()
    retransmits: Tuple[RetransmitFault, ...] = ()
    crashes: Tuple[CrashFault, ...] = ()

    def __post_init__(self) -> None:
        _check_int("fault schedule seed", self.seed, 0)
        for name, _ in _FAULT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                # Accept lists for ergonomic construction; store tuples
                # so the schedule stays hashable and immutable.
                object.__setattr__(self, name, tuple(value))
        self._validate_crash_sequences()

    def _validate_crash_sequences(self) -> None:
        """Reject crash sequences with no physical interpretation.

        A worker may crash more than once only when an intervening
        ``"restart"`` recovery brought it back.  Two crashes at the same
        iteration are a duplicate entry, and any crash *after* an
        elastic departure references a worker that is no longer in the
        job — the injector used to double-decrement the surviving world
        size for exactly that case.
        """
        by_worker: Dict[int, list] = {}
        for c in self.crashes:
            by_worker.setdefault(c.worker, []).append(c)
        for worker, entries in by_worker.items():
            entries.sort(key=lambda c: c.at_iteration)
            for earlier, later in zip(entries, entries[1:]):
                if earlier.at_iteration == later.at_iteration:
                    raise ConfigurationError(
                        f"worker {worker} crashes twice at iteration "
                        f"{earlier.at_iteration}; at most one crash per "
                        f"worker per iteration")
                if earlier.recovery == "elastic":
                    raise ConfigurationError(
                        f"worker {worker} crashes at iteration "
                        f"{later.at_iteration} but already left the job "
                        f"elastically at iteration {earlier.at_iteration}; "
                        f"only an intervening \"restart\" recovery brings "
                        f"a worker back")

    # ----- introspection ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the schedule contains no faults at all.

        An empty schedule is the identity: the simulator treats it
        exactly like ``faults=None`` (same RNG stream, same cache key).
        """
        return not any(getattr(self, name) for name, _ in _FAULT_FIELDS)

    def count(self) -> int:
        """Total number of fault records."""
        return sum(len(getattr(self, name)) for name, _ in _FAULT_FIELDS)

    def describe(self) -> str:
        """One-line human summary (CLI and logs)."""
        if self.is_empty:
            return "no faults"
        parts = [f"{len(getattr(self, name))} {name}"
                 for name, _ in _FAULT_FIELDS if getattr(self, name)]
        return ", ".join(parts) + f" (seed {self.seed})"

    # ----- serialization ----------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict (the ``--faults`` file format)."""
        payload: Dict[str, Any] = {"seed": self.seed}
        for name, _ in _FAULT_FIELDS:
            faults = getattr(self, name)
            if faults:
                payload[name] = [asdict(f) for f in faults]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        """Parse the dict form produced by :meth:`to_payload`."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault schedule must be a JSON object, got "
                f"{type(payload).__name__}")
        known = {"seed"} | {name for name, _ in _FAULT_FIELDS}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fault schedule keys {unknown} "
                f"(known: {sorted(known)})")
        kwargs: Dict[str, Any] = {"seed": payload.get("seed", 0)}
        for name, fault_cls in _FAULT_FIELDS:
            entries = payload.get(name, [])
            if not (isinstance(entries, list)
                    and all(isinstance(e, dict) for e in entries)):
                raise ConfigurationError(
                    f"{name} must be a list of JSON objects")
            try:
                kwargs[name] = tuple(fault_cls(**e) for e in entries)
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad {name} entry: {exc}")
        return cls(**kwargs)

    def to_json(self) -> str:
        """Serialize to the documented JSON schema."""
        return json.dumps(self.to_payload(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from JSON text."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError is a ValueError; so is an integer literal
            # past Python's digit limit.  Deep nesting recurses.
            raise ConfigurationError(f"invalid fault schedule JSON: {exc}")
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        """Read a schedule from a JSON file (the CLI's ``--faults``)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault schedule {path!r}: {exc}")

    def save(self, path: str) -> None:
        """Write the JSON form to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def fingerprint_payload(self) -> Dict[str, Any]:
        """What the engine's content fingerprint hashes for this
        schedule — the full payload; any field change is a new key."""
        return self.to_payload()
