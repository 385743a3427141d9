"""Sweep execution: fan simulation jobs out over processes, memoize.

The paper's methodology (§6) and every scaling figure reduce to the
same shape of work: a grid of independent ``DDPSimulator.run`` calls —
model × scheme × cluster, 110 iterations each.  The grid is
embarrassingly parallel and heavily redundant across figures (the
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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    _execute_advisor_family,
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
from .modeljobs import (
    ModelEvalJob,
    ModelEvalOutcome,
    _execute_model_family,
    evaluate_family,
)

#: Environment variable for chaos testing the engine itself: set it to a
#: sentinel file path and the first pooled worker to pick up a job
#: SIGKILLs itself (once — creating the sentinel claims the kill).  The
#: reliability test suite uses this to prove a sweep survives a dying
#: worker; it is a no-op unless explicitly set.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_ONCE"

#: Chaos hook for timeout testing: ``<sentinel-path>:<seconds>`` makes
#: the first executor to claim the sentinel sleep that long before
#: simulating, which a per-job timeout then catches.
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


def _payload_label(payload: object) -> str:
    """Short span name for whatever an execute_fn consumes (a job, a
    chunk, a family — anything with ``describe()``)."""
    describe = getattr(payload, "describe", None)
    if callable(describe):
        return describe()
    return type(payload).__name__


def _traced_call(ctx: TraceContext, fn: Callable, payload: object):
    """Execution wrapper that records spans under a propagated context.

    ``ctx`` is the submitting process's ``(trace_id, parent_span_id,
    submitted_unix_s)``.  A local :class:`TraceRecorder` seeded with
    that context is installed for the duration of ``fn`` — so spans the
    execution emits (including the simulator's own) parent across the
    process boundary — plus a ``queue-wait`` span covering submission
    to pickup and an ``exec`` span around the call itself.  Returns
    ``(fn's result, recorded spans)`` for the parent to merge; a killed
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
        with collector.span(_payload_label(payload), track="exec",
                            pid=str(os.getpid())):
            out = fn(payload)
    finally:
        set_tracer(previous)
    return out, collector.drain()


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


def _execute_job(job: SimJob) -> Tuple[str, object, float, float]:
    """Process-pool entry point: run one job, tag the outcome.

    OOM is data (the sweep reports it as a row), so it travels back as a
    value instead of an exception; anything else propagates to the
    parent, which retries and ultimately degrades the job to a failure
    outcome.  The tag carries the job's own wall time and the wall-clock
    instant it started (``time.time``, comparable across processes to
    ~ms precision), from which the parent derives queue wait.
    """
    _chaos_hook()
    started_unix = time.time()
    started = time.perf_counter()
    sim = job.build_simulator()
    try:
        result = sim.run(job.batch_size, iterations=job.iterations,
                         warmup=job.warmup, seed=job.seed)
    except OutOfMemoryError as exc:
        return ("oom", (str(exc), exc.required_bytes, exc.budget_bytes),
                time.perf_counter() - started, started_unix)
    return ("ok", result, time.perf_counter() - started, started_unix)


@dataclass(frozen=True)
class _JobChunk:
    """Several consecutive misses bundled into one pool submission.

    Chunking amortizes per-task IPC (pickling the model and cluster
    once per chunk instead of once per job) on large sweeps; each job
    inside still executes — and tags its outcome — individually, so
    fan-out back to per-job outcomes is exact.
    """

    jobs: Tuple[SimJob, ...]

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        return (f"chunk of {len(self.jobs)} jobs "
                f"[{self.jobs[0].describe()}, ...]")


def _execute_job_chunk(chunk: _JobChunk) -> Tuple[str, object, float, float]:
    """Process-pool entry point for a chunk: run members in order.

    The payload is the list of per-job tagged outcomes, each carrying
    its own wall time and start instant, so the parent rehydrates them
    exactly as it would unchunked ones.  An unexpected exception fails
    the whole chunk back to the parent, which retries it wholesale.
    """
    started_unix = time.time()
    started = time.perf_counter()
    tags = [_execute_job(job) for job in chunk.jobs]
    return ("chunk", tags, time.perf_counter() - started, started_unix)


@dataclass(frozen=True)
class _SimFamily:
    """Jobs sharing a :meth:`SimJob.family_key`, bundled for one
    stacked kernel call.

    Unlike a :class:`_JobChunk` (an IPC-amortization grouping of
    unrelated jobs), a family's members are structurally identical —
    the batch kernel prices their shared state once and evaluates all
    members' iterations as one array computation.
    """

    jobs: Tuple[SimJob, ...]

    def describe(self) -> str:
        """Short human label for logs and error messages."""
        return (f"family of {len(self.jobs)} jobs "
                f"[{self.jobs[0].describe()}]")


def _execute_sim_family(family: _SimFamily) -> Tuple[str, object, float, float]:
    """Process-pool entry point for a family: one stacked kernel call.

    The payload mirrors :func:`_execute_job_chunk`'s — a list of
    per-job tagged outcomes — so the parent fans results back out with
    the same machinery.  A family the batch kernel cannot serve (a
    deterministic OOM, which is per-member data, or a configuration it
    rejects) falls back to executing members individually, so family
    batching can only add speed, never failure modes; unexpected
    exceptions still propagate for the parent to retry.
    """
    _chaos_hook()
    started_unix = time.time()
    started = time.perf_counter()
    jobs = family.jobs
    lead = jobs[0]
    try:
        # Deferred import: batch.py sits below the simulator package
        # this module already imports.
        from ..simulator.batch import run_batch_many
        sims = [job.build_simulator() for job in jobs]
        for sim in sims:
            if sim._injector is not None:
                sim._injector.reset_run_counters()
        results = run_batch_many(
            sims, lead.batch_size, iterations=lead.iterations,
            warmup=lead.warmup, seeds=[job.seed for job in jobs])
    except (OutOfMemoryError, ConfigurationError):
        tags = [_execute_job(job) for job in jobs]
        return ("chunk", tags, time.perf_counter() - started, started_unix)
    elapsed = time.perf_counter() - started
    share = elapsed / len(jobs)
    tags = [("ok", result, share, started_unix) for result in results]
    return ("chunk", tags, elapsed, started_unix)


def _outcome_from_tagged(job: SimJob, tagged: Tuple[str, object, float, float],
                         submitted_unix: float,
                         cached: bool = False,
                         attempts: int = 1) -> JobOutcome:
    """Rehydrate a worker's tagged return into a :class:`JobOutcome`."""
    kind, payload, exec_s, started_unix = tagged
    queue_wait_s = max(0.0, started_unix - submitted_unix)
    if kind == "error":
        return JobOutcome(job=job, error=str(payload), cached=cached,
                          exec_s=exec_s, queue_wait_s=queue_wait_s,
                          attempts=attempts)
    if kind == "oom":
        message, required, budget = payload  # type: ignore[misc]
        return JobOutcome(job=job, oom=OutOfMemoryError(
            message, required_bytes=required, budget_bytes=budget),
            cached=cached, exec_s=exec_s, queue_wait_s=queue_wait_s,
            attempts=attempts)
    return JobOutcome(job=job, result=payload, cached=cached,  # type: ignore[arg-type]
                      exec_s=exec_s, queue_wait_s=queue_wait_s,
                      attempts=attempts)


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
        """Mean wall time of an actually-executed simulation."""
        return self.exec_s_total / self.executed if self.executed else 0.0

    @property
    def pool_utilization(self) -> float:
        """Fraction of allocated worker-seconds spent simulating (1.0 =
        every worker busy the whole time ``run_outcomes`` held it)."""
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
    """Runs batches of :class:`SimJob` with optional parallelism and
    an optional result cache.

    Attributes:
        jobs: Worker process count; 1 (the default) runs in-process.
        cache: A :class:`SimulationCache`, or ``None`` to recompute
            everything.
        max_retries: How many times a failed execution (crashed pool
            worker, timeout, unexpected exception) is retried before
            the job degrades to a failure outcome.  0 disables retries.
        retry_backoff_s: Base of the exponential backoff slept before
            retry *k* (``retry_backoff_s * 2**(k-1)`` seconds).
        job_timeout_s: Wall-clock budget for one executed job, or
            ``None`` (default) for no limit.  On the pool path the
            budget is charged per submission wave: a job queued behind
            ``k`` others on the same worker gets ``(k+1)`` budgets, so
            queue wait does not count against it.
        chunking: Collapse compatible work into fewer executions:
            large pooled :class:`SimJob` batches are submitted in
            chunks (amortizing per-task IPC), and
            :class:`~repro.engine.modeljobs.ModelEvalJob` families run
            one grid-kernel call each.  Rows, fingerprints, and cached
            bytes are identical either way — chunking is purely an
            execution detail.  ``False`` restores one execution per
            job.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[SimulationCache] = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.05,
                 job_timeout_s: Optional[float] = None,
                 chunking: bool = True):
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
        self.chunking = chunking
        #: Simulations actually executed (cache misses) over the
        #: engine's lifetime.
        self.executed = 0
        #: Wall-clock seconds spent inside ``run_outcomes``.
        self.busy_s = 0.0
        #: Outcomes returned (hits + misses) over the lifetime.
        self.jobs_completed = 0
        #: Summed per-job simulation wall time (inside workers).
        self.exec_s_total = 0.0
        #: Summed submission-to-start wait of executed jobs.
        self.queue_wait_s_total = 0.0
        #: Worker-seconds allocated (workers x batch wall time).
        self.worker_s_total = 0.0
        #: Failed executions that were re-submitted.
        self.retries = 0
        #: Jobs the engine ultimately gave up on (error outcomes).
        self.failures = 0
        #: Executions killed for exceeding ``job_timeout_s``.
        self.timeouts = 0
        #: Jobs that ran as part of a collapsed execution (a pooled
        #: SimJob chunk, or a model-eval family of more than one job).
        self.jobs_chunked = 0
        #: Jobs evaluated through a stacked cross-config kernel call
        #: (a :class:`_SimFamily` of more than one job).
        self.jobs_batched = 0
        self._log = get_logger("engine")
        # Serializes whole-batch submissions so a long-lived process
        # (the serving scheduler) can share one engine across threads:
        # stats, the process pool, and cache round-trips all assume one
        # batch in flight.  Reentrant, so a submission that itself
        # submits (e.g. an advisor pricer running inside a scheduler
        # batch) does not deadlock.
        self._submission_lock = threading.RLock()

    # ----- execution ---------------------------------------------------------

    def run_outcomes(self, batch: Sequence[SimJob]) -> List[JobOutcome]:
        """Run every job; outcomes come back in input order.

        Cache hits are served without simulating; misses run serially
        or on the process pool, then populate the cache.  Under an
        enabled tracer the whole batch runs inside an ``engine-batch``
        span, so job/cache spans nest under it.  Thread-safe: batches
        submitted concurrently are serialized, in submission order.
        """
        with self._submission_lock:
            tracer = get_tracer()
            if not tracer.enabled:
                return self._run_outcomes_traced(batch)
            with tracer.span("engine-batch", track="engine",
                             jobs=str(len(batch))):
                return self._run_outcomes_traced(batch)

    def _run_outcomes_traced(self, batch: Sequence[SimJob],
                             ) -> List[JobOutcome]:
        """The body of :meth:`run_outcomes` (split out so the tracing
        wrapper above stays flat)."""
        start = time.perf_counter()
        tracer = get_tracer()
        outcomes: List[Optional[JobOutcome]] = [None] * len(batch)
        miss_indices: List[int] = []
        keys: List[Optional[str]] = [None] * len(batch)

        if self.cache is not None:
            # ONE batched cache pass (and one cache-lock acquisition)
            # for the whole batch, instead of a disk round-trip per job.
            lookup_span = tracer.begin("cache-lookup", track="cache",
                                       jobs=str(len(batch)))
            for i, job in enumerate(batch):
                keys[i] = job.fingerprint()
            hits = self.cache.lookup_many(
                [key for key in keys if key is not None])
            for i, job in enumerate(batch):
                hit = hits.get(keys[i])
                if hit is None:
                    miss_indices.append(i)
                elif isinstance(hit, OutOfMemoryError):
                    outcomes[i] = JobOutcome(job=job, oom=hit, cached=True)
                else:
                    outcomes[i] = JobOutcome(job=job, result=hit,
                                             cached=True)
            tracer.finish(lookup_span,
                          hits=str(len(batch) - len(miss_indices)))
        else:
            miss_indices = list(range(len(batch)))

        miss_jobs = [batch[i] for i in miss_indices]
        workers = 1
        retries_before = self.retries
        timeouts_before = self.timeouts
        if miss_jobs:
            submitted_unix = time.time()
            tagged_results, attempt_counts, workers = \
                self._execute_misses(miss_jobs)
            self.executed += len(miss_jobs)
            store_entries: List[Tuple[str, object]] = []
            for i, tagged, attempts in zip(miss_indices, tagged_results,
                                           attempt_counts):
                outcome = _outcome_from_tagged(batch[i], tagged,
                                               submitted_unix,
                                               attempts=attempts)
                outcomes[i] = outcome
                self.exec_s_total += outcome.exec_s
                self.queue_wait_s_total += outcome.queue_wait_s
                # Engine failures are environmental (a killed worker, a
                # hung process) — never cached, so a later run retries.
                if self.cache is not None and not outcome.failed:
                    key = keys[i]
                    assert key is not None
                    store_entries.append(
                        (key, outcome.result if outcome.ok
                         else outcome.oom))
            if store_entries:
                # One batched store: a single pack append + fsync for
                # every miss the batch produced.
                with tracer.span("cache-store", track="cache",
                                 entries=str(len(store_entries))):
                    self.cache.store_many(store_entries)  # type: ignore[arg-type]

        batch_wall = time.perf_counter() - start
        self.busy_s += batch_wall
        if miss_jobs:
            self.worker_s_total += workers * batch_wall
        self.jobs_completed += len(batch)
        self._record_batch(outcomes,
                           retries_delta=self.retries - retries_before,
                           timeouts_delta=self.timeouts - timeouts_before)
        return [o for o in outcomes if o is not None]

    def _execute_misses(self, miss_jobs: Sequence[SimJob],
                        ) -> Tuple[List[tuple], List[int], int]:
        """Execute cache misses, family-batching where profitable.

        Misses are grouped by :meth:`SimJob.family_key`; families of
        two or more run as one stacked kernel call each
        (:func:`_execute_sim_family`), pooled one-per-task when
        ``jobs > 1``.  Everything else — family singletons, all misses
        under ``chunking=False`` — flows through the existing serial /
        chunked / parallel machinery.  Returns ``(tagged results,
        attempt counts, peak worker count)`` aligned with
        ``miss_jobs``.
        """
        families, leftover = self._sim_families(miss_jobs)
        tagged: List[Optional[tuple]] = [None] * len(miss_jobs)
        attempts: List[int] = [1] * len(miss_jobs)
        workers = 1
        if families:
            fams = [_SimFamily(tuple(miss_jobs[k] for k in group))
                    for group in families]
            if self.jobs > 1:
                # A pooled engine keeps pool semantics even for a lone
                # family: execution (and the chaos hooks) must never
                # run in the parent process.
                fam_workers = min(self.jobs, len(fams),
                                  (os.cpu_count() or 1))
                workers = max(workers, fam_workers)
                fam_tags, fam_attempts = self._run_parallel(
                    fams, fam_workers, execute_fn=_execute_sim_family)
            else:
                fam_tags, fam_attempts = self._run_serial(
                    fams, execute_fn=_execute_sim_family)
            batched = 0
            for group, tag, att in zip(families, fam_tags, fam_attempts):
                if tag[0] == "chunk":
                    for k, member_tag in zip(group, tag[1]):
                        tagged[k] = member_tag
                else:  # whole-family failure: members share the error
                    for k in group:
                        tagged[k] = tag
                    # The run paths count one failure per *item*; a
                    # family item degrades every member job.
                    self.failures += len(group) - 1
                for k in group:
                    attempts[k] = att
                batched += len(group)
            self.jobs_batched += batched
            registry = get_registry()
            if registry.enabled:
                registry.counter("engine_jobs_batched_total").inc(batched)
        if leftover:
            rest = [miss_jobs[k] for k in leftover]
            if self.jobs > 1 and len(rest) > 1:
                rest_workers = min(self.jobs, len(rest),
                                   (os.cpu_count() or 1))
                workers = max(workers, rest_workers)
                chunk_size = self._chunk_size(len(rest), rest_workers)
                if chunk_size > 1:
                    rest_tags, rest_attempts = self._run_chunked(
                        rest, rest_workers, chunk_size)
                else:
                    rest_tags, rest_attempts = self._run_parallel(
                        rest, rest_workers)
            else:
                rest_tags, rest_attempts = self._run_serial(rest)
            for k, tag, att in zip(leftover, rest_tags, rest_attempts):
                tagged[k] = tag
                attempts[k] = att
        return tagged, attempts, workers  # type: ignore[return-value]

    def _sim_families(self, miss_jobs: Sequence[SimJob],
                      ) -> Tuple[List[List[int]], List[int]]:
        """Partition miss positions into batchable families and the rest.

        Only families of two or more are worth a stacked call.
        """
        if not self.chunking or self.job_timeout_s is not None:
            # Like chunking, family batching is incompatible with a
            # per-job timeout: the budget is per pool submission and
            # must keep meaning per job.
            return [], list(range(len(miss_jobs)))
        groups: Dict[str, List[int]] = {}
        leftover: List[int] = []
        for k, job in enumerate(miss_jobs):
            groups.setdefault(job.family_key(), []).append(k)
        families: List[List[int]] = []
        for members in groups.values():
            if len(members) >= 2:
                families.append(members)
            else:
                leftover.extend(members)
        leftover.sort()
        return families, leftover

    # ----- closed-form model evaluations -------------------------------------

    def run_model_outcomes(self, batch: Sequence[ModelEvalJob],
                           ) -> List[ModelEvalOutcome]:
        """Evaluate model jobs; outcomes come back in input order.

        Cache hits are served per point.  Misses are grouped into
        *families* (equal :meth:`ModelEvalJob.family_key` — jobs that
        differ only along vectorizable axes) and each family runs the
        grid kernel **once**: in-process when serial, one pool task per
        family when ``jobs > 1``.  Results fan back out to per-point
        outcomes and per-point cache entries, so fingerprints and
        cached bytes are exactly what per-job evaluation would have
        produced; ``chunking=False`` falls back to evaluating each job
        individually.  Thread-safe: concurrent submissions serialize on
        the engine's reentrant submission lock.
        """
        with self._submission_lock:
            return self._run_eval_batch(
                batch, hit_type=PredictedTime, outcome_cls=ModelEvalOutcome,
                family_fn=evaluate_family, pool_fn=_execute_model_family)

    def run_advisor_outcomes(self, batch: Sequence[AdvisorShardJob],
                             ) -> List[AdvisorShardOutcome]:
        """Evaluate advisor pricing shards; outcomes in input order.

        Same contract and machinery as :meth:`run_model_outcomes` —
        per-shard cache entries, candidate families pooled one task
        each — except a family's members each run their own bounded
        grid call instead of fusing into one
        (:func:`~repro.engine.advisorjobs.evaluate_advisor_family`).
        Thread-safe and reentrant: the advisor pricer may run inside a
        scheduler batch that already holds the submission lock.
        """
        with self._submission_lock:
            return self._run_eval_batch(
                batch, hit_type=AdvisorShardResult,
                outcome_cls=AdvisorShardOutcome,
                family_fn=evaluate_advisor_family,
                pool_fn=_execute_advisor_family)

    def _run_eval_batch(self, batch: Sequence, hit_type: type,
                        outcome_cls: type, family_fn: Callable,
                        pool_fn: Callable) -> List:
        """Shared body of the closed-form batch entry points, lock held.

        ``hit_type`` screens cache hits (a key collision with another
        outcome kind reads as a miss), ``outcome_cls`` wraps results
        (:class:`ModelEvalOutcome` / :class:`AdvisorShardOutcome` share
        a constructor), ``family_fn`` evaluates one family in-process
        and ``pool_fn`` is its process-pool entry point.
        """
        start = time.perf_counter()
        jobs = list(batch)
        outcomes: List[Optional[object]] = [None] * len(jobs)
        keys: List[Optional[str]] = [None] * len(jobs)
        miss_indices: List[int] = []
        if self.cache is not None:
            # Same batched single-pass lookup as run_outcomes.
            for i, job in enumerate(jobs):
                keys[i] = job.fingerprint()
            hits = self.cache.lookup_many(
                [key for key in keys if key is not None])
            for i, job in enumerate(jobs):
                hit = hits.get(keys[i])
                if isinstance(hit, hit_type):
                    outcomes[i] = outcome_cls(job=job, result=hit,
                                              cached=True)
                else:
                    miss_indices.append(i)
        else:
            miss_indices = list(range(len(jobs)))

        groups: List[List[int]]
        if self.chunking:
            families: Dict[str, List[int]] = {}
            for i in miss_indices:
                families.setdefault(jobs[i].family_key(), []).append(i)
            groups = list(families.values())
        else:
            groups = [[i] for i in miss_indices]
        chunked = sum(len(group) for group in groups if len(group) > 1)

        workers = 1
        if groups:
            if self.jobs > 1 and len(groups) > 1:
                workers = min(self.jobs, len(groups), (os.cpu_count() or 1))
                evaluated = self._eval_families_pooled(
                    jobs, groups, workers, family_fn=family_fn,
                    pool_fn=pool_fn)
            else:
                evaluated = [self._eval_family_inprocess(jobs, group,
                                                         family_fn)
                             for group in groups]
            self.executed += len(miss_indices)
            self.jobs_chunked += chunked
            store_entries: List[Tuple[str, object]] = []
            for group, (results, errors, elapsed) in zip(groups, evaluated):
                share = elapsed / len(group)
                for offset, i in enumerate(group):
                    outcome = outcome_cls(
                        job=jobs[i], result=results[offset],
                        error=errors[offset], exec_s=share)
                    outcomes[i] = outcome
                    self.exec_s_total += share
                    # Evaluation failures (bad configurations) are never
                    # cached; re-running reports them afresh.
                    if self.cache is not None and outcome.ok:
                        key = keys[i]
                        assert key is not None
                        store_entries.append((key, outcome.result))
            if self.cache is not None and store_entries:
                # One pack append + fsync for the whole batch.
                self.cache.store_many(store_entries)

        batch_wall = time.perf_counter() - start
        self.busy_s += batch_wall
        if miss_indices:
            self.worker_s_total += workers * batch_wall
        self.jobs_completed += len(jobs)
        self._record_model_batch(outcomes, chunked)
        return [o for o in outcomes if o is not None]

    def _eval_family_inprocess(self, jobs: Sequence,
                               group: Sequence[int],
                               family_fn: Callable = evaluate_family,
                               ) -> Tuple[List[Optional[object]],
                                          List[Optional[Exception]], float]:
        """One family, one ``family_fn`` call, in this process.

        If the family call raises, fall back to per-point evaluation so
        only the offending job(s) fail — the rest of the family still
        produces results.
        """
        members = [jobs[i] for i in group]
        tracer = get_tracer()
        family_span = tracer.begin(f"grid-family x{len(members)}",
                                   track="engine", size=str(len(members)))
        started = time.perf_counter()
        try:
            results: List[Optional[object]] = list(family_fn(members))
            errors: List[Optional[Exception]] = [None] * len(members)
        except Exception:  # noqa: BLE001 - isolated per point below
            results, errors = [], []
            for job in members:
                try:
                    results.append(job.evaluate())
                    errors.append(None)
                except Exception as exc:  # noqa: BLE001 - reported per job
                    results.append(None)
                    errors.append(exc)
                    self.failures += 1
                    self._log.warning(
                        "engine.model_job_failed", job=job.describe(),
                        reason=f"{type(exc).__name__}: {exc}")
        tracer.finish(family_span)
        return results, errors, time.perf_counter() - started

    def _eval_families_pooled(self, jobs: Sequence,
                              groups: Sequence[Sequence[int]], workers: int,
                              family_fn: Callable = evaluate_family,
                              pool_fn: Callable = _execute_model_family,
                              ) -> List[Tuple[List[Optional[object]],
                                              List[Optional[Exception]],
                                              float]]:
        """One pool task per family; any failed task (a died worker, a
        bad configuration) falls back to in-process evaluation of that
        family, so pooled evaluation can only add speed, not failure
        modes."""
        tracer = get_tracer()
        evaluated = []
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = []
            fam_spans: List[Optional[object]] = []
            for group in groups:
                members = tuple(jobs[i] for i in group)
                if tracer.enabled:
                    span = tracer.begin(f"grid-family x{len(group)}",
                                        track="engine",
                                        size=str(len(group)))
                    fam_spans.append(span)
                    futures.append(pool.submit(
                        _traced_call,
                        (tracer.trace_id, span.span_id, time.time()),
                        pool_fn, members))
                else:
                    fam_spans.append(None)
                    futures.append(pool.submit(pool_fn, members))
            for group, future, span in zip(groups, futures, fam_spans):
                try:
                    out = future.result()
                    if span is not None:
                        out, spans = out
                        tracer.merge(spans)
                    results, elapsed = out
                except Exception as exc:  # noqa: BLE001 - incl. broken pool
                    self._log.warning(
                        "engine.model_family_retry", size=len(group),
                        reason=f"{type(exc).__name__}: {exc}")
                    evaluated.append(
                        self._eval_family_inprocess(jobs, group, family_fn))
                    continue
                finally:
                    if span is not None:
                        tracer.finish(span)
                evaluated.append((list(results), [None] * len(group),
                                  elapsed))
        finally:
            self._kill_pool(pool)
        return evaluated

    def _record_model_batch(self,
                            outcomes: Sequence[Optional[ModelEvalOutcome]],
                            chunked: int) -> None:
        """Mirror one model-eval batch's outcomes into telemetry."""
        registry = get_registry()
        if not registry.enabled:
            return
        for outcome in outcomes:
            if outcome is None:
                continue
            registry.counter(
                "engine_jobs_total",
                cached=str(outcome.cached).lower()).inc()
            if outcome.error is not None:
                registry.counter("engine_failed_jobs_total").inc()
        if chunked:
            registry.counter("engine_jobs_chunked_total").inc(chunked)

    # ----- miss execution (serial / pooled, with retries) --------------------

    def _run_serial(self, miss_jobs: Sequence,
                    execute_fn: Optional[Callable] = None,
                    ) -> Tuple[List[tuple], List[int]]:
        """Execute misses in-process, retrying unexpected exceptions.

        Returns ``(tagged results, attempt counts)`` aligned with
        ``miss_jobs``.  OOM never retries (it comes back as a tagged
        value, not an exception); anything else gets ``max_retries``
        fresh attempts with exponential backoff before degrading to an
        ``("error", ...)`` tag.
        """
        if execute_fn is None:
            # Resolved at call time so tests can monkeypatch the
            # module-level _execute_job.
            execute_fn = _execute_job
        tracer = get_tracer()
        tagged: List[tuple] = []
        attempt_counts: List[int] = []
        for job in miss_jobs:
            attempt = 1
            job_span = None
            if tracer.enabled:
                job_span = tracer.begin(_payload_label(job), track="engine")
            while True:
                try:
                    if job_span is not None:
                        result, spans = _traced_call(
                            (tracer.trace_id, job_span.span_id,
                             time.time()),
                            execute_fn, job)
                        tracer.merge(spans)
                    else:
                        result = execute_fn(job)
                    break
                except Exception as exc:  # noqa: BLE001 - retried below
                    reason = f"{type(exc).__name__}: {exc}"
                    if attempt > self.max_retries:
                        self.failures += 1
                        self._log.warning("engine.job_failed",
                                          job=job.describe(),
                                          attempts=attempt, reason=reason)
                        result = ("error", reason, 0.0, time.time())
                        break
                    self.retries += 1
                    self._log.warning("engine.job_retry",
                                      job=job.describe(),
                                      attempt=attempt, reason=reason)
                    time.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
                    attempt += 1
            tagged.append(result)
            attempt_counts.append(attempt)
            if job_span is not None:
                tracer.finish(job_span, attempts=str(attempt),
                              outcome=result[0])
        return tagged, attempt_counts

    def _chunk_size(self, n_misses: int, workers: int) -> int:
        """How many consecutive misses one pool submission should carry.

        Targets ~4 chunks per worker (enough slack for load balancing)
        and degrades to 1 — no chunking — for small batches, when
        chunking is disabled, or under a per-job timeout (whose budget
        accounting is per submission and must keep meaning per job).
        """
        if not self.chunking or self.job_timeout_s is not None:
            return 1
        return max(1, math.ceil(n_misses / (workers * 4)))

    def _run_chunked(self, miss_jobs: Sequence[SimJob], workers: int,
                     chunk_size: int) -> Tuple[List[tuple], List[int]]:
        """Pool path for large batches: submit misses in chunks.

        Retry/failure machinery operates on whole chunks (a crashed
        worker retries its chunk's jobs together; a chunk that exhausts
        the retry budget degrades every member to an error outcome).
        Per-job tags come back exactly as on the unchunked path, in
        order.
        """
        chunks = [_JobChunk(tuple(miss_jobs[i:i + chunk_size]))
                  for i in range(0, len(miss_jobs), chunk_size)]
        chunk_tags, chunk_attempts = self._run_parallel(
            chunks, workers, execute_fn=_execute_job_chunk)
        tagged: List[tuple] = []
        attempt_counts: List[int] = []
        for chunk, tag, attempts in zip(chunks, chunk_tags, chunk_attempts):
            if tag[0] == "chunk":
                tagged.extend(tag[1])
            else:  # whole-chunk failure: members share the error tag
                tagged.extend([tag] * len(chunk.jobs))
            attempt_counts.extend([attempts] * len(chunk.jobs))
        self.jobs_chunked += len(miss_jobs)
        registry = get_registry()
        if registry.enabled:
            registry.counter("engine_jobs_chunked_total").inc(len(miss_jobs))
        return tagged, attempt_counts

    def _run_parallel(self, miss_jobs: Sequence, workers: int,
                      execute_fn: Optional[Callable] = None,
                      ) -> Tuple[List[tuple], List[int]]:
        """Execute misses on a process pool that survives dying workers.

        Jobs are submitted in waves; a wave's survivors that failed
        (``BrokenProcessPool``, an exception, or a blown
        ``job_timeout_s`` deadline) are retried in the next wave after
        exponential backoff, until their attempt budget runs out.  A
        broken or deadlocked pool is killed and rebuilt between waves,
        and jobs that were merely queued behind a hung one are
        resubmitted without it counting against their budget.  Results
        come back aligned with ``miss_jobs`` regardless of completion
        order.
        """
        if execute_fn is None:
            # Resolved at call time so tests can monkeypatch the
            # module-level _execute_job.
            execute_fn = _execute_job
        tracer = get_tracer()
        tagged: List[Optional[tuple]] = [None] * len(miss_jobs)
        attempt_counts = [0] * len(miss_jobs)
        # One open job span per item while traced; a retried item keeps
        # its span (attempts land as sibling children under it), and the
        # span closes at the moment its tag becomes final.
        job_spans: List[Optional[object]] = [None] * len(miss_jobs)

        def _close_span(idx: int) -> None:
            span = job_spans[idx]
            if span is not None and tagged[idx] is not None:
                tracer.finish(span, attempts=str(attempt_counts[idx]),
                              outcome=tagged[idx][0])
                job_spans[idx] = None

        pending = list(range(len(miss_jobs)))
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
                    if tracer.enabled:
                        if job_spans[idx] is None:
                            job_spans[idx] = tracer.begin(
                                _payload_label(miss_jobs[idx]),
                                track="engine")
                        future = pool.submit(
                            _traced_call,
                            (tracer.trace_id, job_spans[idx].span_id,
                             time.time()),
                            execute_fn, miss_jobs[idx])
                    else:
                        future = pool.submit(execute_fn, miss_jobs[idx])
                    future_to_idx[future] = idx
                    if self.job_timeout_s is not None:
                        # Queue position k lands ~(k // workers) jobs
                        # deep on its worker; grant a budget per slot so
                        # queue wait is not charged against the job.
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
                            result = future.result()
                            if tracer.enabled:
                                result, spans = result
                                tracer.merge(spans)
                            tagged[idx] = result
                        except BrokenProcessPool:
                            broken = True
                            self._register_failure(
                                idx, attempt_counts, miss_jobs, tagged,
                                retry, "a pool worker died")
                        except Exception as exc:  # noqa: BLE001
                            self._register_failure(
                                idx, attempt_counts, miss_jobs, tagged,
                                retry, f"{type(exc).__name__}: {exc}")
                        _close_span(idx)
                    if broken:
                        # The pool is unusable; every in-flight future is
                        # lost with it.  Fail them over to the next wave.
                        for future in not_done:
                            self._register_failure(
                                future_to_idx[future], attempt_counts,
                                miss_jobs, tagged, retry,
                                "a pool worker died")
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
                                    idx, attempt_counts, miss_jobs,
                                    tagged, retry,
                                    f"timed out after "
                                    f"{self.job_timeout_s:g} s")
                                _close_span(idx)
                                not_done.discard(future)
                        # The hung worker still holds its process; only a
                        # pool teardown reclaims it.  Collateral jobs are
                        # resubmitted for free.
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
                for idx in range(len(miss_jobs)):
                    _close_span(idx)
        return tagged, attempt_counts  # type: ignore[return-value]

    def _register_failure(self, idx: int, attempt_counts: List[int],
                          miss_jobs: Sequence,
                          tagged: List[Optional[tuple]],
                          retry: List[int], reason: str) -> None:
        """Route one failed execution: resubmit it, or give up and
        degrade it to an ``("error", ...)`` outcome."""
        job = miss_jobs[idx]
        if attempt_counts[idx] > self.max_retries:
            self.failures += 1
            self._log.warning("engine.job_failed", job=job.describe(),
                              attempts=attempt_counts[idx], reason=reason)
            tagged[idx] = ("error", reason, 0.0, time.time())
        else:
            self.retries += 1
            self._log.warning("engine.job_retry", job=job.describe(),
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

    def _record_batch(self, outcomes: Sequence[Optional[JobOutcome]],
                      retries_delta: int = 0,
                      timeouts_delta: int = 0) -> None:
        """Mirror one batch's outcomes into the telemetry registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        for outcome in outcomes:
            if outcome is None:
                continue
            registry.counter(
                "engine_jobs_total",
                cached=str(outcome.cached).lower()).inc()
            if outcome.oom is not None:
                registry.counter("engine_oom_outcomes_total").inc()
            if outcome.failed:
                registry.counter("engine_failed_jobs_total").inc()
            if not outcome.cached:
                registry.histogram("engine_job_exec_s").observe(
                    outcome.exec_s)
                registry.histogram("engine_queue_wait_s").observe(
                    outcome.queue_wait_s)
        if retries_delta:
            registry.counter("engine_retries_total").inc(retries_delta)
        if timeouts_delta:
            registry.counter("engine_timeouts_total").inc(timeouts_delta)
        registry.gauge("engine_pool_utilization").set(
            self.stats().pool_utilization)

    def run(self, job: SimJob) -> TimingResult:
        """Run one job; raises the stored OOM like the raw simulator."""
        return self.run_outcomes([job])[0].unwrap()

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
