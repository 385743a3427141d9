"""The persistent scheduler: one engine, many concurrent requests.

The one-shot :class:`~repro.engine.ExperimentEngine` runs a batch and
returns; this module keeps it alive for the process lifetime behind an
admission queue, the way vLLM's continuous-batching scheduler keeps a
model executor alive behind one.  A single background thread loops:

1. wait until the queue is non-empty, then linger until the oldest
   queued request is one *batch window* old (``batch_window_s``,
   default 20 ms) so closely-spaced requests land in the same batch.
   The linger ends early once no open client connection can add to
   the batch: the HTTP front end reports its open connections
   (:meth:`ServingScheduler.connection_opened`) and which of them are
   blocked waiting on a request that is not yet terminal
   (``wait(..., connection=True)``), and when every one is, nothing
   else can arrive.  The window then counts from when the previous
   batch formed rather than from the oldest request's arrival, so
   batches still form at most once a window and a closed loop of
   clients is served at a pace the clock sets, not the host's speed.
   It does not report a connection blocked on its first request,
   since clients that connect together may not all be accepted yet.
   Requests that queued behind a running batch drain at once;
2. drain up to ``max_batch_requests`` requests, dropping any whose
   deadline expired while queued;
3. price every what-if in place — the
   :func:`repro.core.recommend_for_inputs` call ``repro recommend``
   makes, on a memoized calibration — without touching the engine;
   expand the rest into engine jobs (a simulate request one
   :class:`~repro.engine.SimJob` per seed, an advise request its
   sweep's shards) and submit **all of them in one engine call** per
   job type.  The engine's family batching then collapses compatible
   jobs *across requests* into single kernel calls;
4. finish each kind as soon as it is done — what-ifs, then
   simulations, then sweeps — and wake its waiters, so a what-if never
   waits on a sweep coalesced into the same batch.  A request whose
   planning or finishing raises :class:`~repro.errors.ConfigurationError`
   fails as ``invalid`` (HTTP 400); any other failure is internal.

Admission control happens in :meth:`ServingScheduler.submit`, on the
caller's thread: per-tenant token buckets and the queue-depth cap
reject before any work is queued (:mod:`repro.serving.quota`).
Deadlines are a wall-clock budget per request from submission, checked
when the batch is formed — a request that waited out its budget in the
queue is expired, never executed.  A batch already running is not
interrupted.

Scheduler state is observable through the PR-7 telemetry registry:
``serving_queue_depth`` and ``serving_batch_occupancy`` gauges,
``serving_requests_total`` / ``serving_rejected_total`` /
``serving_requests_expired_total`` counters, a
``serving_request_latency_s`` histogram per request kind, and a
``serving_batch_linger_s`` histogram of how long each batch's oldest
request waited in the queue.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

# numpy loads ``numpy.random`` (every seeded draw) and ``numpy.ma``
# (``np.unique`` asks it) on first attribute access.  Every route uses
# both, so they load with the server, like the simulator modules below.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from ..analysis.advisor import SweepPlan, SweepSpec, finish_sweep, plan_sweep
from ..compression.schemes import SyncSGDScheme
from ..core import (
    CalibrationReport,
    PerfModelInputs,
    calibrate,
    recommend_for_inputs,
    solve_crossover,
)
from ..engine import AdvisorShardJob, ExperimentEngine, SimJob
from ..errors import ConfigurationError
# The simulator imports its kernel and span reconstruction on first use
# (they import it back).  The routes run both — simulate runs the
# kernel, calibration replays an iteration — so they load with the
# server instead of on its first request.
from ..simulator import batch as _batch  # noqa: F401
from ..simulator import reconstruct as _reconstruct  # noqa: F401
from ..telemetry.logs import get_logger
from ..telemetry.metrics import get_registry
from ..telemetry.tracing import get_tracer
from .quota import AdmissionError, TenantQuotas
from .requests import AdviseRequest, SimulateRequest, WhatIfRequest

Request = Union[WhatIfRequest, SimulateRequest, AdviseRequest]

#: Terminal request states; :meth:`ServingScheduler.wait` returns when
#: one is reached.
TERMINAL_STATES = ("done", "failed", "expired")

#: Calibrations a scheduler keeps, least recently used evicted first.
#: The key holds the requested bandwidth, so without a bound the memo
#: would grow with every distinct client input for the server's life.
#: The bench's serve-mixed mix cycles through 64 what-if configs.
CALIBRATION_MEMO_SIZE = 256

#: Finished requests a scheduler remembers for ``GET /v1/jobs/<id>``,
#: the earliest finished forgotten first.  A queued or running request,
#: or a finished one a waiter is still blocked on, is never forgotten.
#: Far above what a closed loop holds between its submit and its poll
#: (the bench's serve-mixed runs two clients); at the ~10 KiB an advise
#: result keeps, the bound holds about 10 MiB.
FINISHED_STATES_KEPT = 1024


@dataclass
class RequestState:
    """One admitted request's lifecycle, shared with waiting clients.

    ``rows`` grows as results stream back (one row per candidate
    verdict or per simulated seed); ``result`` is the assembled
    response body once the request is ``done``.  ``invalid`` marks a
    ``failed`` request that could not be served as asked — a
    :class:`~repro.errors.ConfigurationError` while planning or
    finishing it, such as a batch no candidate fits in memory — rather
    than one the engine or the scheduler failed.  All mutation happens
    under the scheduler's condition lock.
    """

    id: str
    request: Request
    tenant: str
    submitted_unix: float
    submitted_monotonic: float
    deadline_monotonic: Optional[float]
    status: str = "queued"
    rows: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    finished_unix: Optional[float] = None
    invalid: bool = False

    @property
    def kind(self) -> str:
        """``"whatif"``, ``"simulate"``, or ``"advise"``."""
        return self.request.kind

    def to_dict(self) -> Dict[str, Any]:
        """JSON view served by ``GET /v1/jobs/<id>``."""
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "rows": list(self.rows),
            "result": self.result,
            "error": self.error,
        }


class ServingScheduler:
    """Owns an :class:`~repro.engine.ExperimentEngine` for the process
    lifetime and multiplexes concurrent requests onto it.

    Attributes:
        engine: The shared engine; its content-addressed cache (if any)
            is shared by every tenant, which is exactly why admission
            control exists — a cold-cache tenant's burst must not
            starve everyone else's hits.
        queue_depth: Admission queue capacity; submissions beyond it
            are rejected 503 (``reason="queue_full"``).
        quotas: Per-tenant token buckets (:class:`TenantQuotas`).
        batch_window_s: Upper bound on how long a request lingers,
            from its arrival, before its batch forms — the knob trading
            latency for coalescing opportunity on an idle scheduler.
            Once every open client connection is blocked on a queued
            request, the window counts from when the previous batch
            formed instead, so the batch forms sooner.
        max_batch_requests: Most requests drained into one batch.
        default_timeout_s: Deadline applied to requests that do not
            carry their own ``timeout_s``; ``None`` disables deadlines.
    """

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 queue_depth: int = 64,
                 quota_rps: Optional[float] = None,
                 quota_burst: float = 10.0,
                 batch_window_s: float = 0.02,
                 max_batch_requests: int = 8,
                 default_timeout_s: Optional[float] = 300.0):
        """Validate the policy and start the batch thread (a daemon —
        it dies with the process; call :meth:`close` for a clean stop)."""
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        # Negated comparisons, so NaN (which compares false) fails too.
        if not 0 <= batch_window_s < math.inf:
            raise ConfigurationError(
                f"batch_window_s must be >= 0 and finite, got "
                f"{batch_window_s}")
        if max_batch_requests < 1:
            raise ConfigurationError(
                f"max_batch_requests must be >= 1, got {max_batch_requests}")
        if default_timeout_s is not None \
                and not 0 < default_timeout_s < math.inf:
            raise ConfigurationError(
                f"default_timeout_s must be positive and finite, got "
                f"{default_timeout_s}")
        self.engine = engine if engine is not None else ExperimentEngine()
        self.queue_depth = queue_depth
        self.quotas = TenantQuotas(quota_rps, quota_burst)
        self.batch_window_s = batch_window_s
        self.max_batch_requests = max_batch_requests
        self.default_timeout_s = default_timeout_s
        self.started_unix = time.time()
        #: Batches formed over the scheduler's lifetime.
        self.batches = 0
        #: Requests that shared their batch with at least one other.
        self.requests_coalesced = 0
        #: Requests admitted over the scheduler's lifetime.
        self.requests_seen = 0
        self._cv = threading.Condition()
        self._queue: List[RequestState] = []
        self._states: Dict[str, RequestState] = {}
        # Ids of the finished states in ``_states``, earliest first.
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._closed = False
        # Open client connections, and per request id the connections
        # blocked on it (see :meth:`_nothing_can_arrive`).
        self._connections = 0
        self._blocking: Counter[str] = Counter()
        # When the last batch formed (see :meth:`_run`).
        self._formed_monotonic = -math.inf
        self._log = get_logger("serving")
        # Calibration is deterministic per (model, cluster, batch), so
        # repeat what-if traffic skips the trace-based gamma estimate.
        self._calibrations: OrderedDict[Tuple[str, str, Optional[int]],
                                        CalibrationReport] = OrderedDict()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serving-scheduler",
                                        daemon=True)
        self._thread.start()

    # ----- client surface ----------------------------------------------------

    def submit(self, request: Request, tenant: str = "default",
               ) -> RequestState:
        """Admit a request or raise :class:`AdmissionError`.

        Runs on the caller's thread and never blocks on the engine:
        quota check, queue-depth check, enqueue, return.  The returned
        state object is live — poll it via :meth:`get` / :meth:`wait`.
        """
        registry = get_registry()
        if self._closed:
            registry.counter("serving_rejected_total", reason="closed").inc()
            raise AdmissionError("scheduler is shut down", status=503,
                                 reason="closed")
        try:
            self.quotas.check(tenant)
        except AdmissionError:
            registry.counter("serving_rejected_total", reason="quota").inc()
            raise
        timeout_s = (request.timeout_s if request.timeout_s is not None
                     else self.default_timeout_s)
        now = time.monotonic()
        state = RequestState(
            id=uuid.uuid4().hex[:12],
            request=request,
            tenant=tenant,
            submitted_unix=time.time(),
            submitted_monotonic=now,
            deadline_monotonic=(now + timeout_s
                                if timeout_s is not None else None))
        with self._cv:
            if len(self._queue) >= self.queue_depth:
                registry.counter("serving_rejected_total",
                                 reason="queue_full").inc()
                raise AdmissionError(
                    f"admission queue full ({self.queue_depth} requests)",
                    status=503, reason="queue_full")
            self._queue.append(state)
            self._states[state.id] = state
            self.requests_seen += 1
            registry.counter("serving_requests_total",
                             kind=request.kind).inc()
            registry.gauge("serving_queue_depth").set(len(self._queue))
            self._cv.notify_all()
        return state

    def get(self, request_id: str) -> Optional[RequestState]:
        """Look up a request by id (``None`` if unknown)."""
        with self._cv:
            return self._states.get(request_id)

    def wait(self, request_id: str, timeout_s: Optional[float] = None,
             connection: bool = False) -> Optional[RequestState]:
        """Block until the request reaches a terminal state (or the
        wait times out — the state is returned as-is either way).

        ``connection=True`` says the caller is an open client
        connection that can send nothing else until this returns, so
        while the request is not terminal it counts as blocked.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._cv:
            state = self._states.get(request_id)
            if state is None:
                return None
            if connection:
                self._blocking[request_id] += 1
                self._cv.notify_all()
            try:
                while state.status not in TERMINAL_STATES:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        # A far deadline is no deadline; the lock cannot
                        # wait longer than this.
                        remaining = min(remaining, threading.TIMEOUT_MAX)
                    self._cv.wait(timeout=remaining)
            finally:
                if connection:
                    self._blocking[request_id] -= 1
                    if not self._blocking[request_id]:
                        del self._blocking[request_id]
            return state

    def connection_opened(self) -> None:
        """Count one more open client connection; the HTTP front end
        calls this as it accepts one."""
        with self._cv:
            self._connections += 1

    def connection_closed(self) -> None:
        """Count one client connection fewer; a lingering batch may
        now have every remaining connection waiting on it."""
        with self._cv:
            self._connections -= 1
            self._cv.notify_all()

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop the scheduler thread; queued requests are failed."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            for state in self._queue:
                state.status = "failed"
                state.error = "scheduler shut down"
                state.finished_unix = time.time()
                self._keep_finished(state)
            self._queue.clear()
            get_registry().gauge("serving_queue_depth").set(0)
            self._cv.notify_all()
        self._thread.join(timeout=timeout_s)

    # ----- scheduler loop ----------------------------------------------------

    def _nothing_can_arrive(self) -> bool:
        """Whether every open client connection is blocked on a request
        that is not terminal, so none can add to the next batch.  With
        no connection (no HTTP front end, or none open) anything may
        still arrive.  Called with the condition held."""
        if self._connections <= 0:
            return False
        blocked = sum(count for request_id, count in self._blocking.items()
                      if self._states[request_id].status
                      not in TERMINAL_STATES)
        return blocked >= self._connections

    def _run(self) -> None:
        while True:
            with self._cv:
                # Linger until the oldest request has queued one batch
                # window, so near-simultaneous requests coalesce; those
                # that queued behind a running batch drain at once.
                # Once no open connection can add to the batch, the
                # window counts from when the previous batch formed:
                # lingering buys no coalescing then, but batches still
                # form at most once a window.
                while not self._closed:
                    if not self._queue:
                        self._cv.wait()
                        continue
                    opened = self._queue[0].submitted_monotonic
                    if self._nothing_can_arrive():
                        opened = min(opened, self._formed_monotonic)
                    linger = opened + self.batch_window_s - time.monotonic()
                    if linger <= 0:
                        break
                    self._cv.wait(timeout=min(linger, threading.TIMEOUT_MAX))
                if self._closed:
                    return
                batch = self._queue[:self.max_batch_requests]
                del self._queue[:len(batch)]
                registry = get_registry()
                registry.gauge("serving_queue_depth").set(len(self._queue))
                now = self._formed_monotonic = time.monotonic()
                registry.histogram("serving_batch_linger_s").observe(
                    now - batch[0].submitted_monotonic)
                live: List[RequestState] = []
                for state in batch:
                    if state.deadline_monotonic is not None \
                            and now > state.deadline_monotonic:
                        state.status = "expired"
                        state.error = "deadline expired while queued"
                        registry.counter(
                            "serving_requests_expired_total").inc()
                        self._settle(state)
                    else:
                        state.status = "running"
                        live.append(state)
                self._cv.notify_all()
            if not live:
                continue
            self.batches += 1
            if len(live) > 1:
                self.requests_coalesced += len(live)
            get_registry().gauge("serving_batch_occupancy").set(len(live))
            tracer = get_tracer()
            with tracer.span(f"serving-batch x{len(live)}", track="serving",
                             requests=str(len(live))):
                self._execute_batch(live)

    def _execute_batch(self, live: List[RequestState]) -> None:
        """Plan, run, and finish one batch of admitted requests, one
        request kind at a time."""
        # The coalescing moment: every request of a kind goes through
        # ONE engine call, so the engine's family grouping sees them all
        # at once.  What-ifs plan no jobs and have no engine call: they
        # are priced in place.  Each kind finishes (and wakes its
        # waiters) as soon as it is done, cheapest first, so a what-if
        # never waits on a sweep in its batch.  An engine-level exception
        # fails only the requests of the call that raised — never leaves
        # one hanging.
        steps = (
            ("whatif", self._plan_whatif, None, self._finish_whatif),
            ("simulate", self._plan_simulate, self.engine.run_outcomes,
             self._finish_simulate),
            ("advise", self._plan_advise, self.engine.run_advisor_outcomes,
             self._finish_advise),
        )
        for kind, plan, run, finish in steps:
            jobs: List[Any] = []
            planned: List[Tuple[RequestState, Any, slice]] = []
            for state in live:
                if state.kind != kind:
                    continue
                try:
                    state_jobs, context = plan(state.request)
                except Exception as exc:  # noqa: BLE001 - per request
                    self._fail(state, exc, invalid=isinstance(
                        exc, ConfigurationError))
                    continue
                start = len(jobs)
                jobs.extend(state_jobs)
                planned.append((state, context, slice(start, len(jobs))))
            try:
                outcomes = run(jobs) if jobs else []
            except Exception as exc:  # noqa: BLE001 - per request
                for state, _, _ in planned:
                    self._fail(state, exc)
                continue
            for state, context, span in planned:
                try:
                    finish(state, context, outcomes[span])
                except Exception as exc:  # noqa: BLE001 - per request
                    self._fail(state, exc, invalid=isinstance(
                        exc, ConfigurationError))

    # ----- what-if expansion -------------------------------------------------

    def _calibration(self, request: WhatIfRequest) -> CalibrationReport:
        key = (request.model.name, request.cluster.describe(),
               request.batch_size)
        report = self._calibrations.get(key)
        if report is not None:
            self._calibrations.move_to_end(key)
            return report
        report = calibrate(request.model, request.cluster,
                           batch_size=request.batch_size)
        self._calibrations[key] = report
        if len(self._calibrations) > CALIBRATION_MEMO_SIZE:
            self._calibrations.popitem(last=False)
        return report

    def _plan_whatif(self, request: WhatIfRequest,
                     ) -> Tuple[List[Any], PerfModelInputs]:
        """Calibrate one what-if; it needs no engine jobs."""
        return [], self._calibration(request).inputs

    def _finish_whatif(self, state: RequestState, inputs: PerfModelInputs,
                       _outcomes: List[Any]) -> None:
        """Price the what-if in place, as ``repro recommend`` does, and
        solve each feasible compressed scheme's crossovers."""
        request: WhatIfRequest = state.request
        gpu = request.cluster.gpu
        recommendation = recommend_for_inputs(request.model, inputs, gpu=gpu)
        crossovers = []
        if request.crossovers:
            for verdict in recommendation.verdicts:
                if not verdict.feasible \
                        or isinstance(verdict.scheme, SyncSGDScheme):
                    continue
                crossings = solve_crossover(
                    request.model, verdict.scheme, inputs, 1.0, 30.0,
                    gpu=gpu)
                crossovers.append({
                    "scheme": verdict.scheme_label,
                    "crossings": [{"gbps": c.x, "direction": c.direction}
                                  for c in crossings],
                })
        body = recommendation.to_dict()
        body["rendered"] = recommendation.render()
        body["crossovers"] = crossovers
        with self._cv:
            state.rows.extend(body["verdicts"])
            state.result = body
            state.status = "done"
            self._settle(state)
            self._cv.notify_all()

    # ----- simulate expansion ------------------------------------------------

    def _plan_simulate(self, request: SimulateRequest,
                       ) -> Tuple[List[SimJob], None]:
        return [SimJob(model=request.model, cluster=request.cluster,
                       scheme=request.scheme, batch_size=request.batch_size,
                       iterations=request.iterations, seed=seed)
                for seed in request.seeds], None

    def _finish_simulate(self, state: RequestState, _plan: None,
                         outcomes: List[Any]) -> None:
        request: SimulateRequest = state.request
        rows = []
        for seed, outcome in zip(request.seeds, outcomes):
            row: Dict[str, Any] = {"seed": seed, "cached": outcome.cached}
            if outcome.ok:
                row["mean_s"] = outcome.result.mean
                row["std_s"] = outcome.result.std
                row["iterations"] = len(outcome.result.sync_times)
            elif outcome.oom is not None:
                row["error"] = str(outcome.oom)
            else:
                row["error"] = str(outcome.error)
            rows.append(row)
        scheme_label = request.scheme.label if request.scheme else "syncsgd"
        result = {
            "model": request.model.name,
            "scheme": scheme_label,
            "cluster": request.cluster.describe(),
            "rows": rows,
        }
        with self._cv:
            state.rows.extend(rows)
            state.result = result
            state.status = "done" if all("error" not in r for r in rows) \
                else "failed"
            if state.status == "failed":
                state.error = "; ".join(
                    f"seed {r['seed']}: {r['error']}"
                    for r in rows if "error" in r)
                # A simulated OOM is the configuration's answer (``repro
                # simulate`` exits 2 for it), so the client's error.
                state.invalid = all(o.ok or o.oom is not None
                                    for o in outcomes)
            self._settle(state)
            self._cv.notify_all()

    # ----- advise expansion --------------------------------------------------

    def _plan_advise(self, request: AdviseRequest,
                     ) -> Tuple[List[AdvisorShardJob], SweepPlan]:
        """Expand one advise request into bounded shard jobs.

        :func:`repro.analysis.plan_sweep` does the calibration,
        candidate enumeration, feasibility screen, and sharding; the
        scheduler only splices the resulting jobs into its batch so
        concurrent sweeps coalesce through one engine call.
        """
        spec = SweepSpec(world_sizes=request.world_sizes,
                         min_bandwidth_gbps=request.min_bandwidth_gbps,
                         max_bandwidth_gbps=request.max_bandwidth_gbps,
                         bandwidth_points=request.bandwidth_points,
                         shard_points=request.shard_points)
        plan = plan_sweep(request.model, request.cluster,
                          batch_size=request.batch_size, spec=spec)
        return plan.jobs, plan

    def _finish_advise(self, state: RequestState, plan: SweepPlan,
                       outcomes: List[Any]) -> None:
        request: AdviseRequest = state.request
        report = finish_sweep(plan, outcomes)
        body = report.to_dict()
        body["rendered"] = report.render(top=request.top)
        with self._cv:
            state.rows.extend(body["frontier"])
            state.result = body
            state.status = "done"
            self._settle(state)
            self._cv.notify_all()

    # ----- bookkeeping -------------------------------------------------------

    def _fail(self, state: RequestState, exc: Exception,
              invalid: bool = False) -> None:
        self._log.warning("serving.request_failed", request=state.id,
                          kind=state.kind,
                          reason=f"{type(exc).__name__}: {exc}")
        with self._cv:
            state.status = "failed"
            state.invalid = invalid
            state.error = f"{type(exc).__name__}: {exc}"
            self._settle(state)
            self._cv.notify_all()

    def _settle(self, state: RequestState) -> None:
        """Stamp a state that has just reached a terminal status: its
        finish time and latency, and its place among the finished
        states kept.  Called with the condition held."""
        state.finished_unix = time.time()
        get_registry().histogram(
            "serving_request_latency_s", kind=state.kind).observe(
            max(0.0, state.finished_unix - state.submitted_unix))
        self._keep_finished(state)

    def _keep_finished(self, state: RequestState) -> None:
        """Keep a terminal state, forgetting the earliest beyond
        :data:`FINISHED_STATES_KEPT`.  An earliest one with a waiter
        still blocked on it stays until a later call
        (:meth:`_nothing_can_arrive` reads every blocked id).  Called
        with the condition held."""
        self._finished[state.id] = None
        while len(self._finished) > FINISHED_STATES_KEPT:
            earliest = next(iter(self._finished))
            if earliest in self._blocking:
                break
            del self._finished[earliest]
            del self._states[earliest]

    def stats(self) -> Dict[str, Any]:
        """Point-in-time scheduler counters for ``/healthz``."""
        with self._cv:
            queued = len(self._queue)
        payload: Dict[str, Any] = {
            "uptime_s": time.time() - self.started_unix,
            "queued": queued,
            "requests_seen": self.requests_seen,
            "batches": self.batches,
            "requests_coalesced": self.requests_coalesced,
            "engine": self.engine.stats().to_dict(),
        }
        if self.engine.cache is not None:
            payload["cache"] = self.engine.cache.info()
        return payload
