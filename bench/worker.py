"""One benchmark process: set up a workload, run it, print one JSON line.

``run.py`` spawns this script; the parent passes the wall-clock instant
it spawned the process (``--spawned-at``), so ``setup_s`` covers
interpreter start, imports and workload preparation.  Each timed
batch operation comes with the host's speed around it, timed by
:func:`speed.reference`, from which ``run.py`` normalizes the walls.  A
traced run (``--trace 1``) first measures half the run untraced, then
installs the ledger's wrappers, enables the program's tracer and
measures the other half, so the two halves give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy

import ledger
import repro
import speed
import workloads
from repro.engine import ExperimentEngine, SimulationCache
from repro.serving import ServingScheduler, make_server
from repro.simulator import write_trace_spans
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.tracing import disable_tracing, enable_tracing

#: Requests per client in each phase of a traced serve run: fixed, so
#: the per-request counts of a given seed repeat exactly.
TRACED_SERVE_REQUESTS = 50

#: Server boots timed for ``setup_s`` in one serve run: more than the
#: batch workloads' three spawns, because boot times scatter more.
SERVER_BOOTS = 5

#: Errors kept in the output; the count is always exact.
MAX_ERRORS = 5


class Record:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)


def _reference() -> float:
    """Median of three kernel runs: the host's speed right now."""
    return statistics.median(speed.reference() for _ in range(3))


def _median_ratio(walls: List[float], refs: List[float],
                  base: List[float], base_refs: List[float]) -> float:
    """Median normalized wall of one phase over another's."""
    if not walls or not base:
        return 0.0
    return (statistics.median(map(speed.normalize, walls, refs))
            / statistics.median(map(speed.normalize, base, base_refs)))


# ----- batch workloads ------------------------------------------------------


def _attempt(wl: workloads.BatchWorkload, record: Record,
             ) -> Optional[Tuple[float, int]]:
    """One operation, timed, then checked; ``None`` when it failed."""
    record.attempted += 1
    started = time.perf_counter()
    try:
        units, output = wl.op()
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        record.fail(f"{type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - started
    try:
        wl.check(output)
    except workloads.Mismatch as exc:
        record.fail(str(exc))
        return None
    return wall, units


class Phase:
    """The successful operations of one timed phase, each with the
    reference time measured just before and just after it."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.refs: List[float] = []
        self.units: List[int] = []
        self.spans: Any = ()


def _timed(wl: workloads.BatchWorkload, record: Record,
           seconds: Optional[float], reps: Optional[int],
           tracer: Any = None, book: Optional[ledger.Ledger] = None,
           ) -> Phase:
    """``reps`` operations, or operations until ``seconds`` have passed
    (at least one)."""
    phase = Phase()
    deadline = time.perf_counter() + (seconds or 0.0)
    attempts = 0
    before = speed.reference()
    while (attempts < reps if reps is not None
           else attempts == 0 or time.perf_counter() < deadline):
        attempts += 1
        done = _attempt(wl, record)
        recorded = tracer.drain() if tracer is not None else ()
        after = speed.reference()
        if done is not None:
            phase.walls.append(done[0])
            phase.units.append(done[1])
            phase.refs.append((before + after) / 2)
            if book is not None:
                book.add(recorded)
                phase.spans = recorded
        before = after
    return phase


def _run_batch(workload: str, work_dir: str, seconds: Optional[float],
               reps: Optional[int], trace: bool, trace_out: Optional[str],
               spawned_at: float, setup_only: bool) -> Dict[str, Any]:
    wl = workloads.BATCH_WORKLOADS[workload](work_dir)
    wl.setup()
    out: Dict[str, Any] = {"setup_s": [time.time() - spawned_at],
                           "setup_ref_s": [_reference()]}
    if setup_only:
        return out
    record = Record()
    _attempt(wl, record)  # warm-up, discarded
    if not trace:
        phase = _timed(wl, record, seconds, reps)
        out.update(walls=phase.walls, refs=phase.refs, units=phase.units)
    else:
        half = seconds / 2 if seconds is not None else None
        plain = _timed(wl, record, half, reps)
        book = ledger.Ledger(os.getpid())
        with ledger.Instrumentation():
            tracer = enable_tracing()
            try:
                _attempt(wl, record)  # traced warm-up, discarded
                tracer.drain()
                traced = _timed(wl, record, half, reps, tracer, book)
            finally:
                disable_tracing()
        out["per_layer"] = book.metrics(
            _median_ratio(traced.walls, traced.refs, plain.walls, plain.refs),
            scale=_scale(traced.refs))
        out["fired"] = sorted(book.fired)
        _write_trace(trace_out, traced.spans)
    out.update(attempted=record.attempted, failed=record.failed,
               errors=record.errors)
    return out


def _scale(refs: List[float]) -> float:
    """Factor that normalizes a phase's span times."""
    return speed.normalize(1.0, statistics.median(refs)) if refs else 1.0


def _write_trace(path: Optional[str], spans: Any) -> None:
    if path and spans:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_trace_spans(path, spans)


# ----- serve-mixed ----------------------------------------------------------


def _boot_server(cache_dir: str, log: Any) -> Tuple[subprocess.Popen, int,
                                                     float]:
    """Start ``repro serve`` from the same source tree as this process
    and wait for its "listening on" line."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", cache_dir, "--cache-mem-mb", "64", "--jobs", "1"],
        stdout=subprocess.PIPE, stderr=log, env=env, text=True)
    deadline = time.monotonic() + 60
    while True:
        remaining = deadline - time.monotonic()
        ready = select.select([proc.stdout], [], [], max(remaining, 0))[0]
        line = proc.stdout.readline() if ready else ""
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1)), time.time() - started
        if not ready or not line:
            _stop_server(proc)
            raise RuntimeError("repro serve did not start listening")


def _stop_server(proc: subprocess.Popen) -> None:
    """Interrupt (the server's clean shutdown path), then kill."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _verify(samples: List[workloads.Sample], record: Record) -> None:
    oracle = workloads.ServeOracle()
    for sample in samples:
        record.attempted += 1
        problem = oracle.problem(sample)
        if problem is not None:
            record.fail(problem)


def _serve_in_process(mix: workloads.ServeMix, cache_dir: str,
                      per_client: int,
                      ) -> Tuple[List[workloads.Sample], List[float]]:
    """One fixed-size phase against an in-process scheduler and HTTP
    server; also returns each request's residence in the scheduler
    (submit to finish, from its request state)."""
    engine = ExperimentEngine(jobs=1, cache=SimulationCache(cache_dir,
                                                            memory_mb=64))
    scheduler = ServingScheduler(engine=engine)
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        samples, _ = workloads.drive(server.server_address[1], mix,
                                     per_client=per_client)
    finally:
        server.shutdown()
        server.server_close()
        scheduler.close()
        thread.join(timeout=10)
        engine.cache.close()
    residence = []
    for sample in samples:
        state = (scheduler.get(sample.payload["id"])
                 if sample.payload and "id" in sample.payload else None)
        if state is not None and state.finished_unix is not None:
            residence.append(state.finished_unix - state.submitted_unix)
        else:
            residence.append(0.0)
    return samples, residence


def _run_serve(seed: int, work_dir: str, seconds: Optional[float],
               reps: Optional[int], trace: bool,
               trace_out: Optional[str]) -> Dict[str, Any]:
    mix = workloads.ServeMix(seed)
    record = Record()
    if not trace:
        boots, boot_refs = [], []
        with open(os.path.join(work_dir, "serve.log"), "w") as log:
            for i in range(SERVER_BOOTS):
                proc, port, boot_s = _boot_server(
                    os.path.join(work_dir, f"cache-{i}"), log)
                boots.append(boot_s)
                boot_refs.append(_reference())
                if i < SERVER_BOOTS - 1:
                    _stop_server(proc)
            try:
                samples, wall = workloads.drive(port, mix, seconds=seconds,
                                                per_client=reps)
            finally:
                _stop_server(proc)
        _verify(samples, record)
        out: Dict[str, Any] = {
            "setup_s": boots, "setup_ref_s": boot_refs,
            "walls": [s.latency_s for s in samples],
            "units": [1] * len(samples), "phase_wall": wall}
    else:
        per_client = reps or TRACED_SERVE_REQUESTS
        plain, _ = _serve_in_process(
            mix, os.path.join(work_dir, "cache-plain"), per_client)
        book = ledger.Ledger(os.getpid())
        with ledger.Instrumentation():
            tracer = enable_tracing()
            try:
                samples, residence = _serve_in_process(
                    mix, os.path.join(work_dir, "cache-traced"), per_client)
            finally:
                disable_tracing()
            spans = tracer.drain()
        book.add(spans, ops=len(samples))
        _verify(plain + samples, record)
        latencies = [s.latency_s for s in samples]
        serving = {
            "serving.residence_ms_p50": statistics.median(residence) * 1e3,
            "serving.http_ms_p50": statistics.median(
                [t - r for t, r in zip(latencies, residence)]) * 1e3,
            "serving.refused": sum(s.status in (429, 503)
                                   for s in samples) / len(samples),
        }
        out = {"per_layer": book.metrics(
            statistics.median(latencies)
            / statistics.median(s.latency_s for s in plain), serving),
            "fired": sorted(book.fired)}
        _write_trace(trace_out, spans)
    out.update(attempted=record.attempted, failed=record.failed,
               errors=record.errors)
    return out


def run(workload: str, work_dir: str, seed: int = 0,
        seconds: Optional[float] = None, reps: Optional[int] = None,
        trace: bool = False, trace_out: Optional[str] = None,
        spawned_at: Optional[float] = None,
        setup_only: bool = False) -> Dict[str, Any]:
    """Set up and measure one workload for ``seconds``, or for ``reps``
    operations (per client, for ``serve-mixed``).

    Untraced, returns raw ``setup_s`` and operation ``walls`` with the
    reference-kernel times to normalize them by (``setup_ref_s``, and
    ``refs`` for batch operations) and the ``units`` of work per
    operation; traced, the
    ``per_layer`` metrics and the wrapper spans that ``fired``.  Both
    carry ``attempted``, ``failed``, the first ``errors`` and any
    ``notes`` on what could not be measured.
    """
    if spawned_at is None:
        spawned_at = time.time()
    if workload == "serve-mixed":
        out = _run_serve(seed, work_dir, seconds, reps, trace, trace_out)
    else:
        out = _run_batch(workload, work_dir, seconds, reps, trace, trace_out,
                         spawned_at, setup_only)
    method = multiprocessing.get_start_method()
    out["notes"] = [] if not trace or method == "fork" else [
        f"pool workers start by {method}, not fork, so they lack the "
        "wrappers: layer times inside workers are unmeasured"]
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    # The CLI enables the metrics registry unless --no-telemetry; the
    # workloads stand in for CLI commands, so they pay for it too.
    telemetry_metrics.enable()
    out = run(args.workload, args.work_dir, seed=args.seed,
              seconds=args.seconds, trace=bool(args.trace),
              trace_out=args.trace_out, spawned_at=args.spawned_at,
              setup_only=args.setup_only)
    out["versions"] = {"python": platform.python_version(),
                       "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
