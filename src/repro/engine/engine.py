"""Sweep execution: fan jobs out over processes, memoize.

The paper's methodology (§6) and every scaling figure reduce to the
same shape of work: a grid of independent evaluations — ``DDPSimulator
.run`` calls (model × scheme × cluster, 110 iterations each),
closed-form performance-model points, advisor pricing shards.  The grid
is embarrassingly parallel and heavily redundant across figures (the
syncSGD baseline of Figure 4 is the same simulation as the baseline of
Figures 5 and 6), so the engine does two things:

* **fan-out** — cache misses run on a ``concurrent.futures`` process
  pool (``jobs`` workers); results come back in submission order, so a
  parallel sweep produces *identical* rows to the serial one (every job
  carries its own seed and owns its simulator);
* **memoization** — outcomes (timings *and* deterministic OOMs) are
  stored in a content-addressed :class:`SimulationCache` keyed by the
  fingerprint of everything that determines them (see
  :mod:`repro.engine.fingerprint`).

Every job kind — :class:`SimJob`,
:class:`~repro.engine.modeljobs.ModelEvalJob`,
:class:`~repro.engine.advisorjobs.AdvisorShardJob` — speaks one
protocol: ``fingerprint()`` (the cache key), ``family_key()`` (which
misses may share one execution), ``describe()`` (a label) and
``evaluate()`` (the per-member reference), plus one module-level family
executor (:func:`run_sim_family`, :func:`run_model_family`,
:func:`run_advisor_family`).  One dispatcher serves all three
``run_*_outcomes`` entry points: one batched cache lookup, misses
grouped into families and packed into tasks, serial or pooled execution
(one wave loop owns retries for both), fan-out to per-job outcomes, one
batched cache store.  All three return the one outcome
type, :class:`JobOutcome`.

``ExperimentEngine()`` with no arguments is a serial, cache-less
drop-in for the old inline loops, which is what experiment runners
default to when no engine is passed.
"""

from __future__ import annotations

import heapq
import io
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..core.perf_model import PerfModelInputs, PredictedTime
from ..errors import ConfigurationError, EngineError, OutOfMemoryError
from ..hardware import ClusterConfig, GPUSpec
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import DDPConfig, DDPSimulator, TimingResult
from ..telemetry.logs import get_logger
from ..telemetry.metrics import disable as disable_metrics, get_registry
from ..telemetry.tracing import (
    TraceContext,
    TraceRecorder,
    get_tracer,
    set_tracer,
)
from .advisorjobs import (
    AdvisorShardJob,
    AdvisorShardResult,
    evaluate_advisor_family,
)
from .cache import CacheStats, SimulationCache
from .fingerprint import (
    FINGERPRINT_VERSION,
    cluster_digest,
    compose,
    config_digest,
    fabric_fragment,
    faults_fragment,
    model_digest,
    profile_digest,
    scheme_fragment,
)
from .modeljobs import ModelEvalJob, evaluate_family

if TYPE_CHECKING:
    from ..faults import FaultSchedule

#: Environment variable for chaos testing the engine itself: set it to a
#: sentinel file path and the first pooled worker to pick up a task
#: SIGKILLs itself (once — creating the sentinel claims the kill, and
#: ``O_CREAT | O_EXCL`` lets exactly one process win).  The reliability
#: test suite uses this to prove a sweep survives a dying worker; it is
#: a no-op unless explicitly set.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_ONCE"

#: How many times a failed task execution (a crashed pool worker, an
#: unexpected exception) is retried before its jobs degrade to failure
#: outcomes.  A hung worker is not timed out: it hangs its dispatch.
MAX_RETRIES = 2

#: Base of the exponential backoff slept before retry wave *k*:
#: ``RETRY_BACKOFF_S * 2**(k-1)`` seconds.
RETRY_BACKOFF_S = 0.05


def _chaos_hook() -> None:
    """Honour :data:`CHAOS_KILL_ENV`."""
    path = os.environ.get(CHAOS_KILL_ENV)
    if not path:
        return
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True, eq=False)
class SimJob:
    """One fully-specified ``DDPSimulator.run`` invocation.

    Attributes mirror the simulator's constructor plus ``run``'s
    protocol arguments; ``None`` fields mean "the simulator's default"
    and fingerprint as such.
    """

    model: ModelSpec
    cluster: ClusterConfig
    scheme: Optional[Scheme] = None
    fabric: Optional[Fabric] = None
    config: Optional[DDPConfig] = None
    profile: Optional[KernelProfile] = None
    batch_size: Optional[int] = None
    iterations: int = 110
    warmup: int = 10
    seed: int = 0
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.iterations <= self.warmup:
            raise ConfigurationError(
                f"iterations ({self.iterations}) must exceed warmup "
                f"({self.warmup})")

    def fingerprint(self) -> str:
        """Content hash identifying this job's outcome.

        The family payload plus the seed; the ``faults`` field only
        enters the hash when a non-empty schedule is attached, so an
        empty schedule shares the fault-free key.  Keys hold only within
        one ``FINGERPRINT_VERSION``: version 2 changed every key.
        """
        members = self._family_members()
        members["seed"] = self.seed
        faults = faults_fragment(self.faults)
        if faults is not None:
            members["faults"] = faults
        return compose(members)

    def family_inputs(self) -> tuple:
        """Every object :meth:`family_key` reads, and nothing else: jobs
        holding the same objects have the same key."""
        return (self.model, self.cluster, self.scheme, self.fabric,
                self.config, self.profile, self.batch_size, self.iterations,
                self.warmup)

    def _family_members(self) -> Dict[str, Any]:
        """The key members of every :meth:`family_inputs` member."""
        return {
            "version": FINGERPRINT_VERSION,
            "model": model_digest(self.model),
            "cluster": cluster_digest(self.cluster),
            "scheme": scheme_fragment(self.scheme),
            "fabric": fabric_fragment(self.fabric),
            "config": config_digest(self.config),
            "profile": profile_digest(self.profile),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "warmup": self.warmup,
        }

    def family_key(self) -> str:
        """Grouping key for cross-config batch execution.

        Jobs with equal keys share every structural input — model,
        cluster, scheme, fabric, config, profile, batch size and
        iteration protocol — and differ at most in fault schedule and
        seed, which is exactly the axis
        :func:`repro.simulator.batch.run_batch_many` stacks into one
        kernel call.  The key is *not* a cache key (it deliberately
        drops ``faults`` and ``seed``); outcomes are still cached per
        job under :meth:`fingerprint`.
        """
        return compose(self._family_members())

    def build_simulator(self) -> DDPSimulator:
        """Construct the fully-configured simulator this job describes."""
        return DDPSimulator(
            self.model, self.cluster, scheme=self.scheme,
            fabric=self.fabric, config=self.config,
            kernel_profile=self.profile, faults=self.faults)

    def evaluate(self) -> TimingResult:
        """Run this one simulation (the per-member reference a stacked
        family call reproduces); raises the simulator's
        :class:`OutOfMemoryError` for a configuration that does not
        fit."""
        return self.build_simulator().run(
            self.batch_size, iterations=self.iterations,
            warmup=self.warmup, seed=self.seed)

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        scheme_label = self.scheme.label if self.scheme else "syncsgd"
        return (f"{self.model.name} x {scheme_label} @ "
                f"{self.cluster.world_size} GPUs")


@dataclass
class JobOutcome:
    """What one job of any kind produced: a result (a
    :class:`~repro.simulator.TimingResult`, a
    :class:`~repro.core.perf_model.PredictedTime` or an
    :class:`~repro.engine.advisorjobs.AdvisorShardResult`), a
    deterministic simulated OOM, or an error.

    ``error`` is the exception a model-eval or advisor member's
    evaluation raised (an invalid configuration, typically), or — once
    the engine exhausted its retry budget on a crashed or unshippable
    execution — the reason it gave up, as text.  Neither
    is cached.  ``exec_s`` is the job's share of its execution's wall
    time inside its worker (0 for cache hits); ``queue_wait_s`` is how
    long the job sat between submission and a worker picking it up
    (across retries, it spans submission to the *successful* attempt's
    start).  ``attempts`` counts executions: 1 for the normal case,
    more when the engine retried.
    """

    job: Any
    result: Any = None
    oom: Optional[OutOfMemoryError] = None
    error: Union[str, Exception, None] = None
    cached: bool = False
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether a result came back."""
        return self.result is not None

    @property
    def failed(self) -> bool:
        """Whether the job ended in an error — distinct from a
        deterministic OOM, which is a *simulation* outcome."""
        return self.error is not None

    def unwrap(self) -> Any:
        """The result, or raise why there is none: the evaluation's own
        exception, an :class:`~repro.errors.EngineError` naming the
        job when the engine gave up, or the OOM."""
        if isinstance(self.error, Exception):
            raise self.error
        if self.error is not None:
            raise EngineError(
                f"{self.job.describe()} failed after {self.attempts} "
                f"attempt(s): {self.error}")
        if self.oom is not None:
            raise self.oom
        assert self.result is not None
        return self.result


# ----- family executors ------------------------------------------------------

#: One member's result as a family executor reports it:
#: ``(status, payload, exec_s, started_unix)``.  ``status`` is ``"ok"``
#: (payload: the result), ``"oom"`` (payload: the OOM's message and byte
#: counts — a simulation outcome, not a failure), ``"error"`` (payload:
#: the exception a deterministic per-member failure raised) or, set by
#: the dispatcher, ``"failed"`` (payload: why the engine gave up).
#: ``started_unix`` is ``time.time`` at the start, comparable across
#: processes to ~ms, from which the parent derives queue wait.
Tag = Tuple[str, object, float, float]


def _member_tag(job: Any, isolate: Tuple[type, ...]) -> Tag:
    """Evaluate one job on its own.  OOM travels back as data and
    exceptions in ``isolate`` as this member's error; anything else
    propagates for the dispatcher to retry."""
    started_unix = time.time()
    started = time.perf_counter()
    try:
        status, payload = "ok", job.evaluate()
    except OutOfMemoryError as exc:
        status = "oom"
        payload = (str(exc), exc.required_bytes, exc.budget_bytes)
    except isolate as exc:
        status, payload = "error", exc
    return (status, payload, time.perf_counter() - started, started_unix)


def _family_tags(jobs: Sequence, evaluate_many: Callable,
                 fallback_on: Tuple[type, ...],
                 isolate: Tuple[type, ...]) -> List[Tag]:
    """Run one family: a single ``evaluate_many(jobs)`` call when it has
    two or more members.  If that call raises one of ``fallback_on``,
    the members run one by one instead, so a bad member fails alone and
    stacking can only add speed, never failure modes."""
    if len(jobs) > 1:
        started_unix = time.time()
        started = time.perf_counter()
        try:
            results = evaluate_many(jobs)
        except fallback_on:
            pass
        else:
            share = (time.perf_counter() - started) / len(jobs)
            return [("ok", result, share, started_unix)
                    for result in results]
    return [_member_tag(job, isolate) for job in jobs]


def _simulate_stacked(jobs: Sequence[SimJob]) -> List[TimingResult]:
    """One :func:`~repro.simulator.batch.run_batch_many` kernel call for
    a family of structurally identical simulations."""
    # Deferred import: batch.py sits below the simulator package this
    # module already imports.
    from ..simulator.batch import run_batch_many
    sims = [job.build_simulator() for job in jobs]
    for sim in sims:
        if sim._injector is not None:
            sim._injector.reset_run_counters()
    lead = jobs[0]
    return run_batch_many(sims, lead.batch_size, iterations=lead.iterations,
                          warmup=lead.warmup, seeds=[job.seed for job in jobs])


def run_sim_family(jobs: Sequence[SimJob]) -> List[Tag]:
    """Family executor for :class:`SimJob`: one stacked kernel call.

    A family the kernel cannot serve — a deterministic OOM, which is
    per-member data, or a configuration it rejects — runs member by
    member through :meth:`SimJob.evaluate` instead; a singleton always
    does, which keeps its ``sim-run`` span.  Unexpected exceptions
    propagate for the dispatcher to retry.
    """
    return _family_tags(jobs, _simulate_stacked,
                        (OutOfMemoryError, ConfigurationError), ())


def run_model_family(jobs: Sequence[ModelEvalJob]) -> List[Tag]:
    """Family executor for :class:`~repro.engine.modeljobs.ModelEvalJob`:
    one :func:`~repro.engine.modeljobs.evaluate_family` grid call; if it
    raises, each point evaluates alone and only the offending point
    reports an error."""
    return _family_tags(jobs, evaluate_family, (Exception,), (Exception,))


def run_advisor_family(jobs: Sequence[AdvisorShardJob]) -> List[Tag]:
    """Family executor for
    :class:`~repro.engine.advisorjobs.AdvisorShardJob`: one candidate's
    shards through
    :func:`~repro.engine.advisorjobs.evaluate_advisor_family`, with the
    same per-shard error isolation as :func:`run_model_family`."""
    return _family_tags(jobs, evaluate_advisor_family, (Exception,),
                        (Exception,))


@dataclass(frozen=True)
class _Task:
    """One unit of execution: families run back to back by their kind's
    family executor.  On the pool a task carries several families,
    packed to amortize IPC; serially it carries one."""

    run_family: Callable[[Sequence], List[Tag]]
    families: Tuple[tuple, ...]

    @property
    def size(self) -> int:
        """Member jobs across every family of the task."""
        return sum(len(family) for family in self.families)

    def describe(self) -> str:
        """Short human label for spans and logs."""
        lead = self.families[0][0].describe()
        if len(self.families) > 1:
            return (f"{len(self.families)} families of {self.size} jobs "
                    f"[{lead}, ...]")
        if self.size > 1:
            return f"family of {self.size} jobs [{lead}]"
        return lead


def _execute_task(task: _Task) -> List[Tag]:
    """Pool (and serial) entry point: honour the chaos hook, then run
    every family of the task in order."""
    _chaos_hook()
    return [tag for family in task.families
            for tag in task.run_family(family)]


def _traced_call(ctx: TraceContext, task: _Task) -> Tuple[List[Tag], tuple]:
    """Execute ``task`` recording spans under a propagated context.

    ``ctx`` is the submitting process's ``(trace_id, parent_span_id,
    submitted_unix_s)``.  A local :class:`TraceRecorder` seeded with
    that context is installed for the duration of the task — so spans
    the execution emits (including the simulator's own) parent across
    the process boundary — plus a ``queue-wait`` span covering
    submission to pickup and an ``exec`` span around the call itself.
    Returns ``(tags, recorded spans)`` for the parent to merge; a killed
    worker ships nothing, so its retry lands as a sibling attempt.

    Also used in-process by the serial path: the previous tracer is
    restored on exit either way.
    """
    trace_id, parent_id, submitted_unix = ctx
    started_unix = time.time()
    collector = TraceRecorder(trace_id=trace_id, root_parent_id=parent_id)
    previous = set_tracer(collector)
    try:
        collector.add_span("queue-wait", track="queue",
                           start_unix_s=min(submitted_unix, started_unix),
                           end_unix_s=started_unix)
        with collector.span(task.describe(), track="exec",
                            pid=str(os.getpid())):
            out = _execute_task(task)
    finally:
        set_tracer(previous)
    return out, collector.drain()


def _run_task(task: _Task, ctx: Optional[TraceContext]) -> Any:
    """Execute ``task`` bare, or traced under ``ctx`` (see
    :func:`_traced_call`) when the submitting tracer is on."""
    return _execute_task(task) if ctx is None else _traced_call(ctx, task)


# ----- pool transport --------------------------------------------------------
#
# A pooled dispatch pickles each task once, in the parent, with every
# frozen spec swapped for an index into one per-dispatch table.  The
# pool's initializer installs that table in each worker (inherited under
# ``fork``, pickled once per worker under ``spawn`` and ``forkserver``),
# so a model of hundreds of layers crosses the process boundary once per
# worker rather than once per task, and every task a worker runs shares
# one spec object and so its memoized tables.  Mutable inputs (schemes,
# fabrics, fault schedules) still travel inside each task.  A task ships
# each family as columns: what every member holds as one object ships
# once, the rest as one row per member.

#: Types shipped through the spec table, deduplicated by identity.
#: Frozen dataclasses only: a shared object must never change.
_SHARED_SPECS = (ModelSpec, ClusterConfig, GPUSpec, KernelProfile,
                 DDPConfig, PerfModelInputs)

#: This worker's spec table, installed by :func:`_install_specs`.
_worker_specs: Tuple[object, ...] = ()


def _shared_spec(index: int) -> object:
    """Unpickling side of :class:`_SpecPickler`: entry ``index`` of
    this worker's spec table."""
    return _worker_specs[index]


class _SpecPickler(pickle.Pickler):
    """Pickles with each shared spec reduced to its table index; one
    ``table``/``index`` pair spans every task of a dispatch.

    ``reducer_override`` rather than ``persistent_id``: the pickler
    skips the override for ints, floats, strings and containers, which
    make up most of a task, while it calls ``persistent_id`` for every
    object, at three times the cost on an advise sweep.
    """

    def __init__(self, file: io.BytesIO, table: List[object],
                 index: Dict[int, int]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._table = table
        self._index = index

    def reducer_override(self, obj: object) -> Any:
        if type(obj) is _Task:
            columns = [_family_columns(family) for family in obj.families]
            if any(column is None for column in columns):
                return NotImplemented
            return _rebuild_task, (obj.run_family, tuple(columns))
        if not isinstance(obj, _SHARED_SPECS):
            return NotImplemented
        position = self._index.get(id(obj))
        if position is None:
            position = self._index[id(obj)] = len(self._table)
            self._table.append(obj)
        return _shared_spec, (position,)


def _family_columns(family: tuple) -> Optional[tuple]:
    """``family`` as ``(class, shared, names, rows)``: the attributes
    every member holds as the same object, once, then the others' names
    and one row of their values per member.  ``None`` unless every
    member has one class and one set of attributes."""
    cls = type(family[0])
    states = [vars(job) for job in family]
    lead = states[0]
    if any(type(job) is not cls for job in family) or any(
            state.keys() != lead.keys() for state in states):
        return None
    shared = {name: value for name, value in lead.items()
              if all(state[name] is value for state in states)}
    names = tuple(name for name in lead if name not in shared)
    return cls, shared, names, tuple(
        tuple(state[name] for name in names) for state in states)


def _rebuild_task(run_family: Callable, columns: tuple) -> _Task:
    """Unpickling side of :func:`_family_columns`: the task's families,
    each member rebuilt as pickle rebuilds a dataclass, without
    ``__init__``."""
    families = []
    for cls, shared, names, rows in columns:
        members = []
        for row in rows:
            job = cls.__new__(cls)
            vars(job).update(shared)
            vars(job).update(zip(names, row))
            members.append(job)
        families.append(tuple(members))
    return _Task(run_family, tuple(families))


def _ship(tasks: Sequence[_Task],
          ) -> Tuple[List[Union[bytes, Exception]], Tuple[object, ...]]:
    """Pickle every task against one spec table: ``(per-task bytes,
    table)``.  A task that cannot be pickled gets the exception in
    place of its bytes, so it fails alone."""
    table: List[object] = []
    index: Dict[int, int] = {}
    blobs: List[Union[bytes, Exception]] = []
    for task in tasks:
        buffer = io.BytesIO()
        try:
            _SpecPickler(buffer, table, index).dump(task)
        except Exception as exc:  # noqa: BLE001 - fails this task only
            blobs.append(exc)
        else:
            blobs.append(buffer.getvalue())
    return blobs, tuple(table)


def _install_specs(table: Tuple[object, ...]) -> None:
    """Install this worker's spec table for the dispatch."""
    global _worker_specs
    _worker_specs = table


def _init_worker(table: Tuple[object, ...]) -> None:
    """Pool initializer: the dispatch's spec table, and the null metrics
    backend.  Metrics a worker records die with it, so a forked worker
    records nothing, as a ``spawn`` worker already does; the parent
    records every engine-level metric."""
    _install_specs(table)
    disable_metrics()


def _run_shipped(blob: bytes, ctx: Optional[TraceContext]) -> Any:
    """Pool entry point: rebuild the task against this worker's spec
    table, then run it as :func:`_run_task`."""
    return _run_task(pickle.loads(blob), ctx)


def _failed(task: _Task, reason: str) -> List[Tag]:
    """Every member's tag once the engine gives up on ``task``."""
    return [("failed", reason, 0.0, time.time())] * task.size


def _status(tags: Sequence[Tag]) -> str:
    """Span label summarizing a task's member statuses."""
    return "/".join(sorted({tag[0] for tag in tags}))


# ----- wave runners ----------------------------------------------------------

#: One execution as a wave runner reports it: ``(task index, output,
#: failure, retryable)``.  Either ``output`` is what :func:`_run_task`
#: returned and ``failure`` is ``None``, or ``output`` is ``None`` and
#: ``failure`` says why the execution failed; ``retryable`` is False
#: for a failure every attempt would repeat.
Ran = Tuple[int, Any, Optional[str], bool]


def _serial_wave(tasks: Sequence[_Task], pending: Sequence[int],
                 context: Callable[[int], Optional[TraceContext]],
                 ) -> Iterator[Ran]:
    """Run each pending task in-process, in order, taking its trace
    context as it starts."""
    for idx in pending:
        try:
            out = _run_task(tasks[idx], context(idx))
        except Exception as exc:  # noqa: BLE001 - retried
            yield idx, None, f"{type(exc).__name__}: {exc}", True
        else:
            yield idx, out, None, True


class _Pool:
    """The pooled wave runner: ships the tasks once (:func:`_ship`),
    keeps one process pool across waves, and rebuilds it after a wave
    in which a worker died."""

    def __init__(self, tasks: Sequence[_Task], workers: int):
        # Imported here, not at the top: a serial engine (``jobs=1``,
        # every CLI command's default) never loads the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        self._blobs, specs = _ship(tasks)
        self._new_pool = lambda: ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(specs,))
        self._pool = self._new_pool()

    def wave(self, pending: Sequence[int],
             context: Callable[[int], Optional[TraceContext]],
             ) -> Iterator[Ran]:
        """Submit every pending task, then yield each as it completes.
        A dead worker breaks the pool, which fails every task still in
        flight."""
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        futures = {}
        for idx in pending:
            blob = self._blobs[idx]
            if isinstance(blob, bytes):
                futures[self._pool.submit(_run_shipped, blob,
                                          context(idx))] = idx
            else:
                # No worker can receive it, and a retry would fail the
                # same way.
                yield (idx, None,
                       f"cannot ship: {type(blob).__name__}: {blob}", False)
        died = False
        for future in as_completed(futures):
            try:
                out = future.result()
            except BrokenProcessPool:
                died = True
                yield futures[future], None, "a pool worker died", True
            except Exception as exc:  # noqa: BLE001 - retried
                yield (futures[future], None,
                       f"{type(exc).__name__}: {exc}", True)
            else:
                yield futures[future], out, None, True
        if died:
            self.close()
            self._pool = self._new_pool()

    def close(self) -> None:
        """Shut the pool down, dropping tasks that never started.  Idle
        workers exit in the background: joining them would add their
        interpreter teardown to every pooled batch's wall."""
        self._pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class _Kind:
    """What the dispatcher needs to know about one job kind.

    ``hit_types`` screens cache hits (a key collision with another
    outcome kind reads as a miss); ``stacked`` kinds count their
    multi-job families in ``jobs_batched`` (one stacked simulation
    kernel call) wherever they are packed, every other job of a
    multi-job task counts in ``jobs_chunked``.
    """

    run_family: Callable[[Sequence], List[Tag]]
    hit_types: Tuple[type, ...]
    stacked: bool


_SIM_KIND = _Kind(run_sim_family, (TimingResult, OutOfMemoryError),
                  stacked=True)
_MODEL_KIND = _Kind(run_model_family, (PredictedTime,), stacked=False)
_ADVISOR_KIND = _Kind(run_advisor_family, (AdvisorShardResult,),
                      stacked=False)

#: Engine counters mirrored into telemetry as per-batch deltas.
_COUNTER_METRICS = {
    "retries": "engine_retries_total",
    "jobs_batched": "engine_jobs_batched_total",
    "jobs_chunked": "engine_jobs_chunked_total",
}


@dataclass(frozen=True)
class EngineStats:
    """Structured snapshot of an engine's counters.

    Previously the cache hit rate was only recoverable by parsing the
    CLI's printed status line; this object is the programmatic form —
    what manifests embed and telemetry mirrors.
    """

    cache: CacheStats
    executed: int
    jobs_completed: int
    busy_s: float
    exec_s_total: float
    queue_wait_s_total: float
    worker_s_total: float
    retries: int = 0
    failures: int = 0
    jobs_chunked: int = 0
    jobs_batched: int = 0

    @property
    def mean_exec_s(self) -> float:
        """Mean wall time of an actually-executed job."""
        return self.exec_s_total / self.executed if self.executed else 0.0

    @property
    def pool_utilization(self) -> float:
        """Fraction of allocated worker-seconds spent executing (1.0 =
        every worker busy the whole time a batch held it)."""
        return (self.exec_s_total / self.worker_s_total
                if self.worker_s_total > 0 else 0.0)

    def to_dict(self) -> dict:
        """JSON-serializable rendering (for manifests)."""
        return {
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_stores": self.cache.stores,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_memory_hits": self.cache.memory_hits,
            "cache_pack_hits": self.cache.pack_hits,
            "cache_evictions": self.cache.evictions,
            "executed": self.executed,
            "jobs_completed": self.jobs_completed,
            "busy_s": self.busy_s,
            "exec_s_total": self.exec_s_total,
            "queue_wait_s_total": self.queue_wait_s_total,
            "worker_s_total": self.worker_s_total,
            "mean_exec_s": self.mean_exec_s,
            "pool_utilization": self.pool_utilization,
            "retries": self.retries,
            "failures": self.failures,
            "jobs_chunked": self.jobs_chunked,
            "jobs_batched": self.jobs_batched,
        }

    def describe(self) -> str:
        """One-line human rendering (the CLI's post-sweep status)."""
        text = (f"{self.jobs_completed} jobs ({self.executed} executed, "
                f"{self.cache.describe()}), "
                f"{self.exec_s_total:.1f} s simulating, "
                f"{self.pool_utilization:.0%} pool utilization")
        if self.retries or self.failures:
            text += (f", {self.retries} retried, "
                     f"{self.failures} failed")
        return text


class ExperimentEngine:
    """Runs batches of jobs with optional parallelism and an optional
    result cache.

    Attributes:
        jobs: Worker process count; 1 (the default) runs in-process.
        cache: A :class:`SimulationCache`, or ``None`` to recompute
            everything.

    Failed executions are retried per :data:`MAX_RETRIES` and
    :data:`RETRY_BACKOFF_S`.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[SimulationCache] = None):
        """Validate and store the worker count and the cache."""
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Jobs actually executed (cache misses) over the engine's
        #: lifetime.
        self.executed = 0
        #: Wall-clock seconds spent inside the ``run_*_outcomes`` calls.
        self.busy_s = 0.0
        #: Outcomes returned (hits + misses) over the lifetime.
        self.jobs_completed = 0
        #: Summed per-job execution wall time (inside workers).
        self.exec_s_total = 0.0
        #: Summed submission-to-start wait of executed jobs.
        self.queue_wait_s_total = 0.0
        #: Worker-seconds allocated (workers x batch wall time).
        self.worker_s_total = 0.0
        #: Failed task executions that were re-submitted.
        self.retries = 0
        #: Jobs that ended in an error outcome: the engine gave up on
        #: them, or their evaluation failed deterministically.
        self.failures = 0
        #: Jobs that ran in a multi-job task other than as members of
        #: a stacked simulation family: a family packed with others,
        #: or a model-eval or advisor family of more than one job.
        self.jobs_chunked = 0
        #: Jobs evaluated through a stacked cross-config kernel call
        #: (a :class:`SimJob` family of more than one job).
        self.jobs_batched = 0
        self._log = get_logger("engine")
        # Serializes whole-batch submissions so a long-lived process
        # (the serving scheduler) can share one engine across threads:
        # stats, the process pool, and cache round-trips all assume one
        # batch in flight.  Reentrant, so a submission that itself
        # submits (e.g. an advisor pricer running inside a scheduler
        # batch) does not deadlock.
        self._submission_lock = threading.RLock()

    # ----- entry points ------------------------------------------------------

    def run_outcomes(self, batch: Sequence[SimJob]) -> List[JobOutcome]:
        """Run every simulation job; outcomes come back in input order.

        Cache hits are served without simulating; misses run serially
        or on the process pool, families of jobs that differ only in
        faults and seed as one stacked kernel call each, then populate
        the cache.  Thread-safe: batches submitted concurrently are
        serialized, in submission order.
        """
        return self._dispatch(_SIM_KIND, batch)

    def run_model_outcomes(self, batch: Sequence[ModelEvalJob],
                           ) -> List[JobOutcome]:
        """Evaluate model jobs; outcomes come back in input order.

        Cache hits are served per point.  Misses are grouped into
        *families* (equal :meth:`ModelEvalJob.family_key` — jobs that
        differ only along vectorizable axes) and each family runs the
        grid kernel **once**.  Results fan back out to per-point
        outcomes and per-point cache entries, so fingerprints and
        cached bytes are exactly what per-job evaluation would have
        produced.  A point whose evaluation fails carries its exception
        and is never cached.
        """
        return self._dispatch(_MODEL_KIND, batch)

    def run_advisor_outcomes(self, batch: Sequence[AdvisorShardJob],
                             ) -> List[JobOutcome]:
        """Evaluate advisor pricing shards; outcomes in input order.

        Same contract as :meth:`run_model_outcomes` — per-shard cache
        entries, candidate families packed into a few pool tasks, and
        one grid call per family: the members' world sizes × bandwidth
        span, split only where it would exceed
        :data:`~repro.core.grid.MAX_GRID_POINTS` (see
        :func:`~repro.engine.advisorjobs.evaluate_advisor_family`).
        Reentrant: the advisor pricer may run inside a scheduler batch
        that already holds the submission lock.
        """
        return self._dispatch(_ADVISOR_KIND, batch)

    def run(self, job: SimJob) -> TimingResult:
        """Run one job; raises the stored OOM like the raw simulator."""
        return self.run_outcomes([job])[0].unwrap()

    # ----- the dispatcher ----------------------------------------------------

    def _dispatch(self, kind: _Kind, batch: Sequence) -> List[JobOutcome]:
        """The one batch body behind every ``run_*_outcomes`` method.

        One batched cache lookup; misses grouped into families and
        packed into tasks; serial or pooled execution; fan-out to
        per-job outcomes; one batched cache store; one telemetry
        record.  Under an enabled tracer the batch runs inside an
        ``engine-batch`` span, so task and cache spans nest under it.
        """
        with self._submission_lock:
            tracer = get_tracer()
            with tracer.span("engine-batch", track="engine",
                             jobs=str(len(batch))):
                return self._dispatch_locked(kind, list(batch), tracer)

    def _dispatch_locked(self, kind: _Kind, jobs: List,
                         tracer: Any) -> List[JobOutcome]:
        """:meth:`_dispatch` with the submission lock held."""
        start = time.perf_counter()
        outcomes: List[Any] = [None] * len(jobs)
        keys: List[str] = []
        misses = list(range(len(jobs)))
        if self.cache is not None:
            # ONE batched cache pass (and one cache-lock acquisition)
            # for the whole batch, instead of a disk round-trip per job.
            lookup_span = tracer.begin("cache-lookup", track="cache",
                                       jobs=str(len(jobs)))
            keys = [job.fingerprint() for job in jobs]
            hits = self.cache.lookup_many(keys)
            misses = []
            for i, job in enumerate(jobs):
                hit = hits.get(keys[i])
                if not isinstance(hit, kind.hit_types):
                    misses.append(i)
                elif isinstance(hit, OutOfMemoryError):
                    outcomes[i] = JobOutcome(job=job, oom=hit, cached=True)
                else:
                    outcomes[i] = JobOutcome(job=job, result=hit,
                                             cached=True)
            tracer.finish(lookup_span, hits=str(len(jobs) - len(misses)))

        before = {name: getattr(self, name) for name in _COUNTER_METRICS}
        workers = 1
        if misses:
            tasks, members = self._plan(kind, [jobs[i] for i in misses])
            submitted_unix = time.time()
            if self.jobs > 1:
                workers = min(self.jobs, len(tasks), os.cpu_count() or 1)
            results, attempts = self._execute(tasks, workers)
            self.executed += len(misses)
            store_entries: List[Tuple[str, object]] = []
            for task, positions, tags, attempt in zip(tasks, members,
                                                      results, attempts):
                for family in task.families:
                    if kind.stacked and len(family) > 1:
                        self.jobs_batched += len(family)
                    elif task.size > 1:
                        self.jobs_chunked += len(family)
                for k, tag in zip(positions, tags):
                    i = misses[k]
                    outcome = self._outcome(jobs[i], tag, attempt,
                                            submitted_unix)
                    outcomes[i] = outcome
                    self.exec_s_total += outcome.exec_s
                    self.queue_wait_s_total += outcome.queue_wait_s
                    # Errors are environmental (a killed worker) or
                    # belong to a bad configuration: never cached, so
                    # a later run re-executes them.
                    if self.cache is not None and tag[0] in ("ok", "oom"):
                        store_entries.append(
                            (keys[i], outcome.oom if tag[0] == "oom"
                             else outcome.result))
            if store_entries:
                # One batched store: a single pack append + fsync for
                # every miss the batch produced.
                with tracer.span("cache-store", track="cache",
                                 entries=str(len(store_entries))):
                    self.cache.store_many(store_entries)  # type: ignore[arg-type]

        batch_wall = time.perf_counter() - start
        self.busy_s += batch_wall
        if misses:
            self.worker_s_total += workers * batch_wall
        self.jobs_completed += len(jobs)
        self._record_batch(outcomes, {
            name: getattr(self, name) - before[name]
            for name in _COUNTER_METRICS})
        return outcomes

    def _chunk_size(self, n_families: int, workers: int) -> int:
        """How many families one pool task should carry.

        Targets ~4 tasks per worker (enough slack for load balancing)
        and degrades to 1 — no packing — for small batches and on the
        serial path (there is no IPC to amortize).
        """
        if self.jobs == 1:
            return 1
        return max(1, math.ceil(n_families / (workers * 4)))

    def _plan(self, kind: _Kind, jobs: Sequence,
              ) -> Tuple[List[_Task], List[List[int]]]:
        """Group misses into families and pack families into tasks.

        Families are packed into ``ceil(families / _chunk_size)`` tasks,
        each family onto the task with the fewest members so far,
        families of two or more first; with a chunk size of 1 every
        family is its own task, in that order.  Jobs whose
        ``family_inputs()`` are the same objects share one
        ``family_key()`` call.  Returns the tasks and, per task, the
        positions in ``jobs`` of its members in execution order.
        """
        groups: Dict[str, List[int]] = {}
        keys: Dict[Tuple[int, ...], str] = {}
        for k, job in enumerate(jobs):
            # The jobs keep every input alive, so an id is never reused
            # within this call.
            same = tuple(map(id, job.family_inputs()))
            key = keys.get(same)
            if key is None:
                key = keys[same] = job.family_key()
            groups.setdefault(key, []).append(k)
        families = sorted(groups.values(), key=lambda group: len(group) == 1)
        size = self._chunk_size(len(families),
                                min(self.jobs, os.cpu_count() or 1))
        packs: List[List[List[int]]] = [
            [] for _ in range(math.ceil(len(families) / size))]
        loads = [(0, t) for t in range(len(packs))]
        for family in families:
            load, t = heapq.heappop(loads)
            packs[t].append(family)
            heapq.heappush(loads, (load + len(family), t))
        tasks = [_Task(kind.run_family,
                       tuple(tuple(jobs[k] for k in family)
                             for family in pack))
                 for pack in packs]
        members = [[k for family in pack for k in family] for pack in packs]
        return tasks, members

    def _outcome(self, job: Any, tag: Tag, attempts: int,
                 submitted_unix: float) -> JobOutcome:
        """Rehydrate one member's tag into its outcome."""
        status, payload, exec_s, started_unix = tag
        fields: Dict[str, Any] = {}
        if status == "ok":
            fields["result"] = payload
        elif status == "oom":
            message, required, budget = payload  # type: ignore[misc]
            fields["oom"] = OutOfMemoryError(
                message, required_bytes=required, budget_bytes=budget)
        else:
            # "error" carries the member's exception, "failed" the
            # reason the engine gave up (already logged as it did).
            self.failures += 1
            if status == "error":
                self._log.warning(
                    "engine.job_failed", job=job.describe(),
                    reason=f"{type(payload).__name__}: {payload}")
            fields["error"] = payload
        return JobOutcome(
            job=job, exec_s=exec_s, attempts=attempts,
            queue_wait_s=max(0.0, started_unix - submitted_unix), **fields)

    # ----- task execution (serial / pooled, with retries) --------------------

    def _execute(self, tasks: Sequence[_Task], workers: int,
                 ) -> Tuple[List[List[Tag]], List[int]]:
        """Run ``tasks`` in waves: in-process, or on a pool of
        ``workers`` when the engine is pooled.

        Returns ``(per-task member tags, attempt counts)`` aligned with
        ``tasks``.  OOM and per-member evaluation errors never retry
        (family executors return them as tags).  A failed execution — an
        unexpected exception, or a pool worker that died — is retried in
        the next wave after exponential backoff, until it has had
        :data:`MAX_RETRIES` retries; then its members degrade to
        ``"failed"`` tags.  While traced, each task has one span on track
        ``engine`` from its first start to its final result, and every
        attempt records under it.
        """
        tracer = get_tracer()
        results: List[Optional[List[Tag]]] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        spans: List[Any] = [None] * len(tasks)

        def context(idx: int) -> Optional[TraceContext]:
            """The trace context of an attempt at task ``idx`` starting
            now (``None`` when the tracer is off)."""
            if not tracer.enabled:
                return None
            if spans[idx] is None:
                spans[idx] = tracer.begin(tasks[idx].describe(),
                                          track="engine")
            return (tracer.trace_id, spans[idx].span_id, time.time())

        # A pooled engine keeps pool semantics even for a lone task:
        # execution (and the chaos hook) must never run in the parent.
        pool = _Pool(tasks, workers) if self.jobs > 1 else None
        pending = list(range(len(tasks)))
        wave = 0
        try:
            while pending:
                if wave:
                    time.sleep(RETRY_BACKOFF_S * 2 ** (wave - 1))
                wave += 1
                for idx in pending:
                    attempts[idx] += 1
                retry: List[int] = []
                ran = (pool.wave(pending, context) if pool is not None
                       else _serial_wave(tasks, pending, context))
                for idx, out, failure, retryable in ran:
                    task = tasks[idx]
                    if failure is None:
                        if tracer.enabled:
                            out, recorded = out
                            tracer.merge(recorded)
                        results[idx] = out
                    elif retryable and attempts[idx] <= MAX_RETRIES:
                        self.retries += 1
                        self._log.warning("engine.job_retry",
                                          job=task.describe(),
                                          attempt=attempts[idx],
                                          reason=failure)
                        retry.append(idx)
                        continue
                    else:
                        self._log.warning("engine.job_failed",
                                          job=task.describe(),
                                          attempts=attempts[idx],
                                          reason=failure)
                        results[idx] = _failed(task, failure)
                    if spans[idx] is not None:
                        tracer.finish(spans[idx], attempts=str(attempts[idx]),
                                      outcome=_status(results[idx]))
                pending = sorted(retry)
        finally:
            if pool is not None:
                pool.close()
        return results, attempts  # type: ignore[return-value]

    def _record_batch(self, outcomes: Sequence[JobOutcome],
                      deltas: Dict[str, int]) -> None:
        """Mirror one batch's outcomes and counter deltas into the
        telemetry registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        executed = [outcome for outcome in outcomes if not outcome.cached]
        # Per-label counts and bulk observations: the same values the
        # one-outcome-at-a-time calls record (``observe_many`` is
        # bit-identical to an ``observe`` loop), and no metric that
        # would have stayed untouched is created.
        for metric, labels, count in (
                ("engine_jobs_total", {"cached": "true"},
                 len(outcomes) - len(executed)),
                ("engine_jobs_total", {"cached": "false"}, len(executed)),
                ("engine_oom_outcomes_total", {},
                 sum(outcome.oom is not None for outcome in outcomes)),
                ("engine_failed_jobs_total", {},
                 sum(outcome.error is not None for outcome in outcomes))):
            if count:
                registry.counter(metric, **labels).inc(count)
        if executed:
            registry.histogram("engine_job_exec_s").observe_many(
                [outcome.exec_s for outcome in executed])
            registry.histogram("engine_queue_wait_s").observe_many(
                [outcome.queue_wait_s for outcome in executed])
        for name, delta in deltas.items():
            if delta:
                registry.counter(_COUNTER_METRICS[name]).inc(delta)
        registry.gauge("engine_pool_utilization").set(
            self.stats().pool_utilization)

    # ----- statistics --------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """The cache's counters (zeros when no cache is attached)."""
        return (self.cache.stats if self.cache is not None
                else CacheStats())

    def stats(self) -> EngineStats:
        """A structured snapshot of every engine counter."""
        return EngineStats(
            cache=self.cache_stats.snapshot(),
            executed=self.executed,
            jobs_completed=self.jobs_completed,
            busy_s=self.busy_s,
            exec_s_total=self.exec_s_total,
            queue_wait_s_total=self.queue_wait_s_total,
            worker_s_total=self.worker_s_total,
            retries=self.retries,
            failures=self.failures,
            jobs_chunked=self.jobs_chunked,
            jobs_batched=self.jobs_batched,
        )
