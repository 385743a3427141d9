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
(retries, timeouts and pool rebuilds written once), fan-out to per-job
outcomes, one batched cache store.

``ExperimentEngine()`` with no arguments is a serial, cache-less
drop-in for the old inline loops, which is what experiment runners
default to when no engine is passed.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..compression.kernel_cost import KernelProfile
from ..compression.schemes import Scheme
from ..core.perf_model import PredictedTime
from ..errors import ConfigurationError, EngineError, OutOfMemoryError
from ..faults import FaultSchedule
from ..hardware import ClusterConfig
from ..models import ModelSpec
from ..network import Fabric
from ..simulator import DDPConfig, DDPSimulator, TimingResult
from ..telemetry.logs import get_logger
from ..telemetry.metrics import get_registry
from ..telemetry.tracing import (
    TraceContext,
    TraceRecorder,
    get_tracer,
    set_tracer,
)
from .advisorjobs import (
    AdvisorShardJob,
    AdvisorShardOutcome,
    AdvisorShardResult,
    evaluate_advisor_family,
)
from .cache import CacheStats, SimulationCache
from .fingerprint import (
    FINGERPRINT_VERSION,
    cluster_fingerprint,
    config_fingerprint,
    digest,
    fabric_fingerprint,
    faults_fingerprint,
    model_fingerprint,
    profile_fingerprint,
    scheme_fingerprint,
)
from .modeljobs import ModelEvalJob, ModelEvalOutcome, evaluate_family

#: Environment variable for chaos testing the engine itself: set it to a
#: sentinel file path and the first pooled worker to pick up a task
#: SIGKILLs itself (once — creating the sentinel claims the kill).  The
#: reliability test suite uses this to prove a sweep survives a dying
#: worker; it is a no-op unless explicitly set.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_ONCE"

#: Chaos hook for timeout testing: ``<sentinel-path>:<seconds>`` makes
#: the first executor to claim the sentinel sleep that long before
#: evaluating, which a per-job timeout then catches.
CHAOS_SLEEP_ENV = "REPRO_CHAOS_SLEEP_ONCE"


def _chaos_hook() -> None:
    """Honour the chaos-testing environment hooks (see the two
    ``REPRO_CHAOS_*`` constants).  Exactly-once semantics come from
    ``O_CREAT | O_EXCL`` on the sentinel: one process wins the claim,
    every other execution proceeds normally."""
    kill_path = os.environ.get(CHAOS_KILL_ENV)
    if kill_path and _claim_sentinel(kill_path):
        os.kill(os.getpid(), signal.SIGKILL)
    sleep_spec = os.environ.get(CHAOS_SLEEP_ENV)
    if sleep_spec:
        path, _, seconds = sleep_spec.rpartition(":")
        if path and _claim_sentinel(path):
            time.sleep(float(seconds))


def _claim_sentinel(path: str) -> bool:
    """Atomically create ``path``; True only for the single winner."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


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

        The ``faults`` field only enters the hash when a non-empty
        schedule is attached: fault-free jobs keep the exact keys they
        had before fault injection existed, so no cache directory is
        invalidated by upgrading.
        """
        payload = {
            "version": FINGERPRINT_VERSION,
            "model": model_fingerprint(self.model),
            "cluster": cluster_fingerprint(self.cluster),
            "scheme": scheme_fingerprint(self.scheme),
            "fabric": fabric_fingerprint(self.fabric),
            "config": config_fingerprint(self.config),
            "profile": profile_fingerprint(self.profile),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "seed": self.seed,
        }
        fault_payload = faults_fingerprint(self.faults)
        if fault_payload is not None:
            payload["faults"] = fault_payload
        return digest(payload)

    def family_key(self) -> str:
        """Grouping key for cross-config batch execution.

        Jobs with equal keys share every structural input — model,
        cluster, scheme, fabric, config, profile, batch size and
        iteration protocol — and differ at most in fault schedule and
        seed, which is exactly the axis
        :func:`repro.simulator.batch.run_batch_many` stacks into one
        kernel call.  The key is *not* a cache key (it deliberately
        drops ``faults`` and ``seed``); outcomes are still cached per
        job under :meth:`fingerprint`.  Memoized per instance — the
        engine recomputes it for every miss in every batch.
        """
        cached = self.__dict__.get("_family_key")
        if cached is not None:
            return cached
        payload = {
            "version": FINGERPRINT_VERSION,
            "model": model_fingerprint(self.model),
            "cluster": cluster_fingerprint(self.cluster),
            "scheme": scheme_fingerprint(self.scheme),
            "fabric": fabric_fingerprint(self.fabric),
            "config": config_fingerprint(self.config),
            "profile": profile_fingerprint(self.profile),
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "warmup": self.warmup,
        }
        key = digest(payload)
        object.__setattr__(self, "_family_key", key)
        return key

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
    """What one job produced: a timing result, a deterministic OOM, or
    — after exhausting the engine's retry budget — a failure.

    ``exec_s`` is the simulation's own wall time inside its worker (0
    for cache hits); ``queue_wait_s`` is how long the job sat between
    submission and a worker picking it up (across retries, it spans
    submission to the *successful* attempt's start).  ``attempts``
    counts executions: 1 for the normal case, more when the engine
    retried a crashed/timed-out worker.
    """

    job: SimJob
    result: Optional[TimingResult] = None
    oom: Optional[OutOfMemoryError] = None
    error: Optional[str] = None
    cached: bool = False
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether a timing result came back."""
        return self.result is not None

    @property
    def failed(self) -> bool:
        """Whether the engine gave up on this job (crash/timeout/error
        through every retry) — distinct from a deterministic OOM, which
        is a *simulation* outcome, not an engine failure."""
        return self.error is not None

    def unwrap(self) -> TimingResult:
        """The result, or re-raise the OOM / engine failure."""
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
    family executor.  A task is one family of two or more members, or a
    run of singletons (families of one) packed to amortize pool IPC."""

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
            return f"{len(self.families)} singletons [{lead}, ...]"
        if self.size > 1:
            return f"family of {self.size} jobs [{lead}]"
        return lead


def _execute_task(task: _Task) -> List[Tag]:
    """Pool (and serial) entry point: honour the chaos hooks, then run
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


def _failed(task: _Task, reason: str) -> List[Tag]:
    """Every member's tag once the engine gives up on ``task``."""
    return [("failed", reason, 0.0, time.time())] * task.size


def _status(tags: Sequence[Tag]) -> str:
    """Span label summarizing a task's member statuses."""
    return "/".join(sorted({tag[0] for tag in tags}))


def _engine_failure(job: Any, reason: str, attempts: int) -> EngineError:
    """The exception an eval outcome carries when the engine gave up."""
    return EngineError(f"{job.describe()} failed after {attempts} "
                       f"attempt(s): {reason}")


@dataclass(frozen=True)
class _Kind:
    """What the dispatcher needs to know about one job kind.

    ``hit_types`` screens cache hits (a key collision with another
    outcome kind reads as a miss); ``stacked`` kinds count their
    multi-job families in ``jobs_batched`` (one stacked simulation
    kernel call), every other multi-job task counts in
    ``jobs_chunked``; ``give_up`` builds the outcome's ``error`` from a
    failure reason and attempt count.
    """

    run_family: Callable[[Sequence], List[Tag]]
    outcome_cls: type
    hit_types: Tuple[type, ...]
    stacked: bool
    give_up: Callable[[Any, str, int], object]


_SIM_KIND = _Kind(run_sim_family, JobOutcome,
                  (TimingResult, OutOfMemoryError), stacked=True,
                  give_up=lambda job, reason, attempts: reason)
_MODEL_KIND = _Kind(run_model_family, ModelEvalOutcome, (PredictedTime,),
                    stacked=False, give_up=_engine_failure)
_ADVISOR_KIND = _Kind(run_advisor_family, AdvisorShardOutcome,
                      (AdvisorShardResult,), stacked=False,
                      give_up=_engine_failure)

#: Engine counters mirrored into telemetry as per-batch deltas.
_COUNTER_METRICS = {
    "retries": "engine_retries_total",
    "timeouts": "engine_timeouts_total",
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
    timeouts: int = 0
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
            "cache_quarantined": self.cache.quarantined,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_memory_hits": self.cache.memory_hits,
            "cache_pack_hits": self.cache.pack_hits,
            "cache_disk_hits": self.cache.disk_hits,
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
            "timeouts": self.timeouts,
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
        max_retries: How many times a failed execution (crashed pool
            worker, timeout, unexpected exception) is retried before
            its jobs degrade to failure outcomes.  0 disables retries.
        retry_backoff_s: Base of the exponential backoff slept before
            retry *k* (``retry_backoff_s * 2**(k-1)`` seconds).
        job_timeout_s: Wall-clock budget for one executed job, or
            ``None`` (default) for no limit.  Under a budget every job
            runs as its own task, so the budget means per job.  On the
            pool path it is charged per submission wave: a job queued
            behind ``k`` others on the same worker gets ``(k+1)``
            budgets, so queue wait does not count against it.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[SimulationCache] = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 job_timeout_s: Optional[float] = None):
        """Validate and store the execution policy (see class docstring
        for what each knob controls)."""
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ConfigurationError(
                f"job_timeout_s must be positive, got {job_timeout_s}")
        self.jobs = jobs
        self.cache = cache
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.job_timeout_s = job_timeout_s
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
        #: Executions killed for exceeding ``job_timeout_s``.
        self.timeouts = 0
        #: Jobs that ran in a multi-job task other than a stacked
        #: simulation family: a packed run of singletons, or a
        #: model-eval or advisor family of more than one job.
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
                           ) -> List[ModelEvalOutcome]:
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
                             ) -> List[AdvisorShardOutcome]:
        """Evaluate advisor pricing shards; outcomes in input order.

        Same contract as :meth:`run_model_outcomes` — per-shard cache
        entries, one task per candidate family — except a family's
        members each run their own bounded grid call instead of fusing
        into one.  Reentrant: the advisor pricer may run inside a
        scheduler batch that already holds the submission lock.
        """
        return self._dispatch(_ADVISOR_KIND, batch)

    def run(self, job: SimJob) -> TimingResult:
        """Run one job; raises the stored OOM like the raw simulator."""
        return self.run_outcomes([job])[0].unwrap()

    # ----- the dispatcher ----------------------------------------------------

    def _dispatch(self, kind: _Kind, batch: Sequence) -> List:
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
                         tracer: Any) -> List:
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
                    outcomes[i] = kind.outcome_cls(job=job, oom=hit,
                                                   cached=True)
                else:
                    outcomes[i] = kind.outcome_cls(job=job, result=hit,
                                                   cached=True)
            tracer.finish(lookup_span, hits=str(len(jobs) - len(misses)))

        before = {name: getattr(self, name) for name in _COUNTER_METRICS}
        workers = 1
        if misses:
            tasks, members = self._plan(kind, [jobs[i] for i in misses])
            submitted_unix = time.time()
            if self.jobs > 1:
                # A pooled engine keeps pool semantics even for a lone
                # task: execution (and the chaos hooks) must never run
                # in the parent process.
                workers = min(self.jobs, len(tasks), os.cpu_count() or 1)
                results, attempts = self._run_parallel(tasks, workers)
            else:
                results, attempts = self._run_serial(tasks)
            self.executed += len(misses)
            store_entries: List[Tuple[str, object]] = []
            for task, positions, tags, attempt in zip(tasks, members,
                                                      results, attempts):
                if task.size > 1:
                    if kind.stacked and len(task.families) == 1:
                        self.jobs_batched += task.size
                    else:
                        self.jobs_chunked += task.size
                for k, tag in zip(positions, tags):
                    i = misses[k]
                    outcome = self._outcome(kind, jobs[i], tag, attempt,
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

    def _chunk_size(self, n_singletons: int, workers: int) -> int:
        """How many singleton families one pool task should carry.

        Targets ~4 tasks per worker (enough slack for load balancing)
        and degrades to 1 — no packing — for small batches, on the
        serial path (there is no IPC to amortize), and under a per-job
        timeout (whose budget accounting is per task and must keep
        meaning per job).
        """
        if self.jobs == 1 or self.job_timeout_s is not None:
            return 1
        return max(1, math.ceil(n_singletons / (workers * 4)))

    def _plan(self, kind: _Kind, jobs: Sequence,
              ) -> Tuple[List[_Task], List[List[int]]]:
        """Group misses into families and pack families into tasks.

        A family of two or more is one task; singletons are packed into
        runs of :meth:`_chunk_size`.  Under ``job_timeout_s`` every job
        is its own family.  Returns the tasks and, per task, the
        positions in ``jobs`` of its members in execution order.
        """
        groups: Dict[object, List[int]] = {}
        for k, job in enumerate(jobs):
            key = k if self.job_timeout_s is not None else job.family_key()
            groups.setdefault(key, []).append(k)
        families = [group for group in groups.values() if len(group) > 1]
        singles = [group for group in groups.values() if len(group) == 1]
        size = self._chunk_size(len(singles),
                                min(self.jobs, os.cpu_count() or 1))
        packs = [[family] for family in families] + [
            singles[i:i + size] for i in range(0, len(singles), size)]
        tasks = [_Task(kind.run_family,
                       tuple(tuple(jobs[k] for k in family)
                             for family in pack))
                 for pack in packs]
        members = [[k for family in pack for k in family] for pack in packs]
        return tasks, members

    def _outcome(self, kind: _Kind, job: Any, tag: Tag, attempts: int,
                 submitted_unix: float) -> Any:
        """Rehydrate one member's tag into its kind's outcome."""
        status, payload, exec_s, started_unix = tag
        fields: Dict[str, Any] = {}
        if status == "ok":
            fields["result"] = payload
        elif status == "oom":
            message, required, budget = payload  # type: ignore[misc]
            fields["oom"] = OutOfMemoryError(
                message, required_bytes=required, budget_bytes=budget)
        elif status == "error":
            self.failures += 1
            self._log.warning("engine.job_failed", job=job.describe(),
                              reason=f"{type(payload).__name__}: {payload}")
            fields["error"] = payload
        else:
            self.failures += 1
            fields["error"] = kind.give_up(job, payload, attempts)
        return kind.outcome_cls(
            job=job, exec_s=exec_s, attempts=attempts,
            queue_wait_s=max(0.0, started_unix - submitted_unix), **fields)

    # ----- task execution (serial / pooled, with retries) --------------------

    @staticmethod
    def _call(tracer: Any, span: Any, task: _Task) -> tuple:
        """``(fn, *args)`` that executes ``task``: bare, or traced under
        ``span`` when the tracer is on."""
        if span is None:
            return (_execute_task, task)
        return (_traced_call, (tracer.trace_id, span.span_id, time.time()),
                task)

    def _run_serial(self, tasks: Sequence[_Task],
                    ) -> Tuple[List[List[Tag]], List[int]]:
        """Execute tasks in-process, retrying unexpected exceptions.

        Returns ``(per-task member tags, attempt counts)`` aligned with
        ``tasks``.  OOM and per-member evaluation errors never retry
        (family executors return them as tags); anything else gets
        ``max_retries`` fresh attempts with exponential backoff before
        the task's members degrade to ``"failed"`` tags.
        """
        tracer = get_tracer()
        results: List[Optional[List[Tag]]] = [None] * len(tasks)
        attempt_counts = [0] * len(tasks)
        for idx, task in enumerate(tasks):
            span = (tracer.begin(task.describe(), track="engine")
                    if tracer.enabled else None)
            while results[idx] is None:
                if attempt_counts[idx]:
                    time.sleep(self.retry_backoff_s
                               * 2 ** (attempt_counts[idx] - 1))
                attempt_counts[idx] += 1
                fn, *args = self._call(tracer, span, task)
                try:
                    out = fn(*args)
                except Exception as exc:  # noqa: BLE001 - retried
                    self._register_failure(idx, attempt_counts, tasks,
                                           results, [],
                                           f"{type(exc).__name__}: {exc}")
                    continue
                if span is not None:
                    out, spans = out
                    tracer.merge(spans)
                results[idx] = out
            if span is not None:
                tracer.finish(span, attempts=str(attempt_counts[idx]),
                              outcome=_status(results[idx]))
        return results, attempt_counts  # type: ignore[return-value]

    def _run_parallel(self, tasks: Sequence[_Task], workers: int,
                      ) -> Tuple[List[List[Tag]], List[int]]:
        """Execute tasks on a process pool that survives dying workers.

        Tasks are submitted in waves; a wave's tasks that failed
        (``BrokenProcessPool``, an exception, or a blown
        ``job_timeout_s`` deadline) are retried in the next wave after
        exponential backoff, until their attempt budget runs out.  A
        broken or deadlocked pool is killed and rebuilt between waves,
        and tasks that were merely queued behind a hung one are
        resubmitted without it counting against their budget.  Results
        come back aligned with ``tasks`` regardless of completion
        order.
        """
        tracer = get_tracer()
        results: List[Optional[List[Tag]]] = [None] * len(tasks)
        attempt_counts = [0] * len(tasks)
        # One open span per task while traced; a retried task keeps its
        # span (attempts land as sibling children under it), and the
        # span closes at the moment its result becomes final.
        task_spans: List[Any] = [None] * len(tasks)

        def _close_span(idx: int) -> None:
            span = task_spans[idx]
            if span is not None and results[idx] is not None:
                tracer.finish(span, attempts=str(attempt_counts[idx]),
                              outcome=_status(results[idx]))
                task_spans[idx] = None

        pending = list(range(len(tasks)))
        wave = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while pending:
                if wave:
                    time.sleep(self.retry_backoff_s * 2 ** (wave - 1))
                wave += 1
                future_to_idx = {}
                deadlines: Dict[object, float] = {}
                now = time.monotonic()
                for k, idx in enumerate(pending):
                    attempt_counts[idx] += 1
                    if tracer.enabled and task_spans[idx] is None:
                        task_spans[idx] = tracer.begin(
                            tasks[idx].describe(), track="engine")
                    future = pool.submit(*self._call(
                        tracer, task_spans[idx], tasks[idx]))
                    future_to_idx[future] = idx
                    if self.job_timeout_s is not None:
                        # Queue position k lands ~(k // workers) tasks
                        # deep on its worker; grant a budget per slot so
                        # queue wait is not charged against the task.
                        deadlines[future] = now + self.job_timeout_s * (
                            k // workers + 1)
                retry: List[int] = []
                not_done = set(future_to_idx)
                rebuild = False
                while not_done:
                    timeout = None
                    if deadlines:
                        next_deadline = min(deadlines[f] for f in not_done)
                        timeout = max(0.0, next_deadline - time.monotonic())
                    done, not_done = wait(not_done, timeout=timeout,
                                          return_when=FIRST_COMPLETED)
                    broken = False
                    for future in done:
                        idx = future_to_idx[future]
                        try:
                            out = future.result()
                            if tracer.enabled:
                                out, spans = out
                                tracer.merge(spans)
                            results[idx] = out
                        except BrokenProcessPool:
                            broken = True
                            self._register_failure(
                                idx, attempt_counts, tasks, results,
                                retry, "a pool worker died")
                        except Exception as exc:  # noqa: BLE001
                            self._register_failure(
                                idx, attempt_counts, tasks, results,
                                retry, f"{type(exc).__name__}: {exc}")
                        _close_span(idx)
                    if broken:
                        # The pool is unusable; every in-flight future is
                        # lost with it.  Fail them over to the next wave.
                        for future in not_done:
                            self._register_failure(
                                future_to_idx[future], attempt_counts,
                                tasks, results, retry, "a pool worker died")
                            _close_span(future_to_idx[future])
                        not_done = set()
                        rebuild = True
                    elif not done and not_done:
                        # wait() timed out: at least one deadline blew.
                        now = time.monotonic()
                        for future in list(not_done):
                            if deadlines.get(future, float("inf")) <= now:
                                idx = future_to_idx[future]
                                self.timeouts += 1
                                self._register_failure(
                                    idx, attempt_counts, tasks, results,
                                    retry, f"timed out after "
                                           f"{self.job_timeout_s:g} s")
                                _close_span(idx)
                                not_done.discard(future)
                        # The hung worker still holds its process; only a
                        # pool teardown reclaims it.  Collateral tasks
                        # are resubmitted for free.
                        for future in not_done:
                            idx = future_to_idx[future]
                            attempt_counts[idx] -= 1
                            retry.append(idx)
                        not_done = set()
                        rebuild = True
                if rebuild:
                    self._kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                pending = sorted(retry)
        finally:
            self._kill_pool(pool)
            if tracer.enabled:
                # Safety net for abnormal exits: no span stays open.
                for idx in range(len(tasks)):
                    _close_span(idx)
        return results, attempt_counts  # type: ignore[return-value]

    def _register_failure(self, idx: int, attempt_counts: List[int],
                          tasks: Sequence[_Task],
                          results: List[Optional[List[Tag]]],
                          retry: List[int], reason: str) -> None:
        """Route one failed task execution: resubmit it, or give up and
        degrade its members to ``"failed"`` tags."""
        task = tasks[idx]
        if attempt_counts[idx] > self.max_retries:
            self._log.warning("engine.job_failed", job=task.describe(),
                              attempts=attempt_counts[idx], reason=reason)
            results[idx] = _failed(task, reason)
        else:
            self.retries += 1
            self._log.warning("engine.job_retry", job=task.describe(),
                              attempt=attempt_counts[idx], reason=reason)
            retry.append(idx)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung or dead workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            if proc.is_alive():
                proc.terminate()

    def _record_batch(self, outcomes: Sequence[Any],
                      deltas: Dict[str, int]) -> None:
        """Mirror one batch's outcomes and counter deltas into the
        telemetry registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        for outcome in outcomes:
            registry.counter(
                "engine_jobs_total",
                cached=str(outcome.cached).lower()).inc()
            if getattr(outcome, "oom", None) is not None:
                registry.counter("engine_oom_outcomes_total").inc()
            if outcome.error is not None:
                registry.counter("engine_failed_jobs_total").inc()
            if not outcome.cached:
                registry.histogram("engine_job_exec_s").observe(
                    outcome.exec_s)
                registry.histogram("engine_queue_wait_s").observe(
                    outcome.queue_wait_s)
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
            timeouts=self.timeouts,
            jobs_chunked=self.jobs_chunked,
            jobs_batched=self.jobs_batched,
        )
