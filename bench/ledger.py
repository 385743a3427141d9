"""Per-layer ledger for the traced benchmark run.

Two halves:

* :class:`Instrumentation` wraps the public functions of each layer at
  run time, at every binding site: the defining module, every ``repro``
  module that imported the name, and the class (plus subclasses) for
  methods.  A traced call records one span through the program's own
  tracer (:mod:`repro.telemetry.tracing`), so the wrappers' spans join
  the program's spans (``engine-batch``, ``exec``, ``queue-wait``,
  ``serving-batch``, ...) in one tree, and spans recorded in forked pool
  workers come back through the engine's ``_traced_call`` merge.
  Nothing under ``src/`` is edited; :meth:`Instrumentation.uninstall`
  restores every original.
* :class:`Ledger` turns the recorded spans into the per-layer metrics
  of ``BENCHMARK.json``.  A layer's time is the self time of its spans:
  span duration minus the part of it that child spans cover.  Times and
  counts are summed over all processes, so on a pooled workload the
  layer times can add up to more than the wall.  Counts are taken on a
  layer's outermost spans only (a call into the layer from outside it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.tracing import get_tracer

#: Track of every span the wrappers record.
TRACK = "bench"


# ----- labels recorded on wrapper spans -----------------------------------


def _cache_stats(call: Dict[str, Any]) -> Tuple[int, int, int]:
    stats = call["self"].stats
    return stats.hits, stats.memory_hits, stats.pack_hits


def _cache_lookup_labels(call, out, before) -> Dict[str, Any]:
    hits, memory_hits, pack_hits = _cache_stats(call)
    return {"keys": len(call["keys"]), "hits": hits - before[0],
            "memory_hits": memory_hits - before[1],
            "pack_hits": pack_hits - before[2]}


def _cache_store_labels(call, out, before) -> Dict[str, Any]:
    return {"entries": len(call["entries"])}


def _engine_counters(call: Dict[str, Any]) -> Tuple[int, int, int, int]:
    engine = call["self"]
    return (engine.executed, engine.jobs_batched + engine.jobs_chunked,
            engine.retries, engine.failures)


def _engine_labels(call, out, before) -> Dict[str, Any]:
    after = _engine_counters(call)
    return {"jobs": len(call["batch"]), "pool": call["self"].jobs,
            "executed": after[0] - before[0],
            "batched": after[1] - before[1],
            "retries": after[2] - before[2],
            "failures": after[3] - before[3]}


def _sim_many_labels(call, out, before) -> Dict[str, Any]:
    members = len(call["sims"])
    return {"iterations": members * call["iterations"], "members": members}


def _sim_labels(call, out, before) -> Dict[str, Any]:
    return {"iterations": call.get("iterations", 1)}


def _grid_labels(call, out, before) -> Dict[str, Any]:
    return {"points": getattr(out, "size", 0)}


def _frontier_labels(call, out, before) -> Dict[str, Any]:
    return {"frontier": len(out.frontier)}


def _train_labels(call, out, before) -> Dict[str, Any]:
    return {"method": call["method"], "bytes": out.bytes_sent_per_worker}


def _collective_labels(call, out, before) -> Dict[str, Any]:
    return {"bytes": sum(getattr(a, "nbytes", 0) for a in call["arrays"])}


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``target`` is ``module:name`` or
    ``module:Class.method``; ``subclasses`` also wraps every subclass
    that defines the method itself.  ``threaded`` probes run on request
    threads, where the tracer's implicit-parent stack belongs to another
    thread, so they record a root span instead of nesting."""

    key: str
    target: str
    label: Optional[Callable] = None
    before: Optional[Callable] = None
    subclasses: bool = False
    threaded: bool = False


PROBES: Tuple[Probe, ...] = (
    Probe("reporting.render", "repro.experiments.runner:ExperimentResult.render_table"),
    Probe("reporting.render", "repro.analysis.advisor:AdvisorReport.render"),
    Probe("reporting.render", "repro.core.advisor:Recommendation.render"),
    Probe("reporting.render", "repro.reporting.reliability:reliability_findings"),
    Probe("engine.fingerprint", "repro.engine.fingerprint:digest"),
    Probe("engine.fingerprint", "repro.engine.engine:SimJob.fingerprint"),
    Probe("engine.fingerprint", "repro.engine.engine:SimJob.family_key"),
    Probe("engine.fingerprint", "repro.engine.modeljobs:ModelEvalJob.fingerprint"),
    Probe("engine.fingerprint", "repro.engine.modeljobs:ModelEvalJob.family_key"),
    Probe("engine.fingerprint", "repro.engine.advisorjobs:AdvisorShardJob.fingerprint"),
    Probe("engine.fingerprint", "repro.engine.advisorjobs:AdvisorShardJob.family_key"),
    Probe("engine.cache.lookup", "repro.engine.cache:SimulationCache.lookup_many",
          _cache_lookup_labels, _cache_stats),
    Probe("engine.cache.store", "repro.engine.cache:SimulationCache.store_many",
          _cache_store_labels),
    Probe("engine.dispatch", "repro.engine.engine:ExperimentEngine.run_outcomes",
          _engine_labels, _engine_counters),
    Probe("engine.dispatch", "repro.engine.engine:ExperimentEngine.run_model_outcomes",
          _engine_labels, _engine_counters),
    Probe("engine.dispatch", "repro.engine.engine:ExperimentEngine.run_advisor_outcomes",
          _engine_labels, _engine_counters),
    Probe("simulator", "repro.simulator.ddp:DDPSimulator.run", _sim_labels),
    Probe("simulator", "repro.simulator.ddp:DDPSimulator.simulate_iteration",
          _sim_labels),
    Probe("simulator", "repro.simulator.batch:run_batch", _sim_labels),
    Probe("simulator", "repro.simulator.batch:run_batch_many", _sim_many_labels),
    Probe("core.grid", "repro.core.grid:syncsgd_time_grid", _grid_labels),
    Probe("core.grid", "repro.core.grid:compressed_time_grid", _grid_labels),
    Probe("core.grid", "repro.core.grid:tradeoff_time_grid", _grid_labels),
    Probe("core.grid", "repro.core.grid:backward_time_grid"),
    Probe("core.perf_model", "repro.core.perf_model:syncsgd_time"),
    Probe("core.perf_model", "repro.core.perf_model:compressed_time"),
    Probe("core.perf_model", "repro.core.perf_model:predict"),
    Probe("analysis.advisor.plan", "repro.analysis.advisor:plan_sweep"),
    Probe("analysis.advisor.pareto", "repro.analysis.advisor:pareto_mask"),
    Probe("analysis.advisor.reduce", "repro.analysis.advisor:finish_sweep",
          _frontier_labels),
    Probe("training.run", "repro.training.distributed:train_with_method",
          _train_labels),
    Probe("training.step", "repro.training.distributed:DistributedTrainer.step"),
    Probe("training.compute", "repro.training.nn:MLP.loss_and_grads"),
    Probe("training.compute", "repro.training.nn:MLP.accuracy"),
    Probe("training.aggregate", "repro.compression.base:Aggregator.step",
          subclasses=True),
    Probe("training.optimizer", "repro.training.optim:Optimizer.step",
          subclasses=True),
    Probe("compression.encode", "repro.compression.base:Compressor.encode",
          subclasses=True),
    Probe("compression.decode", "repro.compression.base:Compressor.decode",
          subclasses=True),
    Probe("collectives.numeric", "repro.collectives.numeric:ring_allreduce",
          _collective_labels),
    Probe("collectives.numeric", "repro.collectives.numeric:tree_allreduce",
          _collective_labels),
    Probe("collectives.numeric",
          "repro.collectives.numeric:parameter_server_reduce",
          _collective_labels),
    Probe("serving.parse", "repro.serving.requests:parse_request",
          threaded=True),
    Probe("serving.admit", "repro.serving.scheduler:ServingScheduler.submit",
          threaded=True),
)


def _wrap(fn: Callable, probe: Probe) -> Callable:
    name = f"{probe.key}:{fn.__qualname__}"
    signature = inspect.signature(fn) if probe.label else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        call: Dict[str, Any] = {}
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
        before = probe.before(call) if probe.before else None
        if probe.threaded:
            start = time.time()
            out = fn(*args, **kwargs)
            tracer.add_span(name, TRACK, start, time.time(), parent_id="")
            return out
        with tracer.span(name, track=TRACK) as span:
            out = fn(*args, **kwargs)
            if probe.label is not None:
                span.annotate(**probe.label(call, out, before))
        return out

    return traced


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


class Instrumentation:
    """Installs the :data:`PROBES` wrappers; a context manager.

    Install before any process pool exists, so forked workers inherit
    the wrapped functions.
    """

    def __init__(self, probes: Iterable[Probe] = PROBES) -> None:
        self.probes = tuple(probes)
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Instrumentation":
        try:
            for probe in self.probes:
                module_name, _, path = probe.target.partition(":")
                module = importlib.import_module(module_name)
                before = len(self._undo)
                if "." in path:
                    self._wrap_method(module, path, probe)
                else:
                    self._wrap_function(getattr(module, path), probe)
                if len(self._undo) == before:
                    raise RuntimeError(f"probe {probe.target} bound nowhere")
        except BaseException:
            self.uninstall()
            raise
        return self

    def _wrap_function(self, original: Callable, probe: Probe) -> None:
        wrapped = _wrap(original, probe)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _wrap_method(self, module: Any, path: str, probe: Probe) -> None:
        class_name, method = path.split(".")
        base = getattr(module, class_name)
        owners = _subclasses(base) if probe.subclasses else [base]
        for owner in owners:
            original = owner.__dict__.get(method)
            if original is None:
                continue
            setattr(owner, method, _wrap(original, probe))
            self._undo.append((owner, method, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


# ----- spans -> per-layer metrics -----------------------------------------

#: Program spans that nest properly (opened with ``with`` or recorded
#: as an explicit interval) and the ledger key they count toward.  Every
#: other program span — per-job and per-family spans, ``cache-lookup``,
#: opened with ``begin()`` and left open across sibling work — is
#: dropped and its children are re-parented to the nearest kept span.
PROGRAM_KEYS = {
    "engine-batch": "engine.dispatch",
    "cache-store": "engine.cache.store",
    "cache-quarantine": "engine.cache.lookup",
    "sim-run": "simulator",
}

#: Ledger key -> per-layer time metric (seconds of self time per op).
TIME_METRICS = {
    "experiments": "experiments.self_s",
    "reporting.render": "reporting.render_s",
    "engine.fingerprint": "engine.fingerprint.s",
    "engine.cache.lookup": "engine.cache.lookup_s",
    "engine.cache.store": "engine.cache.store_s",
    "engine.dispatch": "engine.dispatch.self_s",
    "simulator": "simulator.s",
    "core.grid": "core.grid.s",
    "core.perf_model": "core.perf_model.s",
    "analysis.advisor.plan": "analysis.advisor.plan_s",
    "analysis.advisor.pareto": "analysis.advisor.pareto_s",
    "analysis.advisor.reduce": "analysis.advisor.reduce_s",
    "training.compute": "training.compute_s",
    "training.aggregate": "training.aggregate_s",
    "training.optimizer": "training.optimizer_s",
    "compression.encode": "compression.encode_s",
    "compression.decode": "compression.decode_s",
    "collectives.numeric": "collectives.numeric.s",
}

#: Per-layer count metric -> the ledger keys whose outermost spans it
#: counts.
CALL_METRICS = {
    "reporting.calls": ("reporting.render",),
    "engine.fingerprint.calls": ("engine.fingerprint",),
    "simulator.calls": ("simulator",),
    "core.grid.calls": ("core.grid",),
    "core.perf_model.calls": ("core.perf_model",),
    "training.steps": ("training.step",),
    "compression.calls": ("compression.encode", "compression.decode"),
    "collectives.numeric.calls": ("collectives.numeric",),
}

#: Per-layer metrics that are times (and so get normalized).
TIMES = (*TIME_METRICS.values(), "engine.dispatch.queue_wait_s",
         "engine.dispatch.worker_exec_s", "serving.parse_us_p50",
         "serving.admit_us_p50", "serving.residence_ms_p50",
         "serving.http_ms_p50", "serving.batch_ms_mean")

#: Aggregator method names of the time-to-accuracy exhibit, for
#: ``training.bytes_per_worker.<method>``.
TRAINING_METHODS = ("fp32", "fp16", "powersgd", "topk", "signsgd")


def _group(key: str) -> str:
    """Spans of one group nest inside each other without counting as a
    new call into the layer (encode inside decode, for instance)."""
    return "compression" if key.startswith("compression.") else key


def _key(span: Any) -> Optional[str]:
    if span.track == TRACK:
        return span.name.partition(":")[0]
    if span.track == "exec":
        return "engine.dispatch"
    if span.track == "queue":
        return "queue"
    if span.name.startswith("serving-batch"):
        return "serving.batch"
    return PROGRAM_KEYS.get(span.name)


def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Ledger:
    """Accumulates traced spans, one operation at a time.

    ``main_pid`` is the benchmark's own process: ``queue-wait`` and
    ``exec`` spans recorded anywhere else ran in a pool worker.
    """

    def __init__(self, main_pid: int) -> None:
        self.main_pid = main_pid
        self.ops = 0
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.labels: Dict[Tuple[str, str], float] = {}
        self.bytes_per_method: Dict[str, float] = {}
        self.queue_wait_s = 0.0
        self.worker_exec_s = 0.0
        self.pool_capacity_s = 0.0
        self.members: List[int] = []
        self.parse_s: List[float] = []
        self.admit_s: List[float] = []
        self.batch_s: List[float] = []
        self.occupancy: List[int] = []
        #: Names of the wrapper spans seen, to prove each probe binds.
        self.fired: set = set()

    def add(self, spans: Iterable[Any], ops: int = 1) -> None:
        """Account the spans of ``ops`` finished operations."""
        spans = [s for s in spans if not s.track.startswith("sim:")]
        self.ops += ops
        by_id = {s.span_id: s for s in spans}
        keys = {s.span_id: _key(s) for s in spans}
        lifted: Dict[str, Optional[str]] = {}

        def kept_parent(span_id: Optional[str]) -> Optional[str]:
            # Nearest ancestor that the ledger keeps.
            trail = []
            while span_id and keys.get(span_id) is None:
                if span_id in lifted:
                    span_id = lifted[span_id]
                    break
                trail.append(span_id)
                parent = by_id.get(span_id)
                span_id = parent.parent_id if parent is not None else None
            span_id = span_id or None
            for dropped in trail:
                lifted[dropped] = span_id
            return span_id

        kept = [s for s in spans if keys[s.span_id] is not None]
        parent_of = {s.span_id: kept_parent(s.parent_id) for s in kept}
        children: Dict[str, List[Tuple[float, float]]] = {}
        for span in kept:
            parent = parent_of[span.span_id]
            if parent is not None:
                children.setdefault(parent, []).append(
                    (span.start_unix_s, span.end_unix_s))
        ancestry: Dict[Optional[str], frozenset] = {None: frozenset()}

        def groups_above(span_id: Optional[str]) -> frozenset:
            if span_id not in ancestry:
                parent = parent_of.get(span_id)
                ancestry[span_id] = groups_above(parent) | {
                    _group(keys[span_id])}
            return ancestry[span_id]

        for span in kept:
            key = keys[span.span_id]
            duration = span.end_unix_s - span.start_unix_s
            worker = span.pid != self.main_pid
            if key == "queue":
                if worker:
                    self.queue_wait_s += duration
                continue
            if key == "engine.dispatch" and span.track == "exec" and worker:
                self.worker_exec_s += duration
            self_time = duration - _covered(
                span.start_unix_s, span.end_unix_s,
                children.get(span.span_id, []))
            self.self_s[key] = self.self_s.get(key, 0.0) + self_time
            labels = dict(span.labels)
            if span.track == TRACK:
                self.fired.add(span.name)
            if key == "serving.parse":
                self.parse_s.append(duration)
            elif key == "serving.admit":
                self.admit_s.append(duration)
            elif key == "serving.batch":
                self.batch_s.append(duration)
                self.occupancy.append(int(labels.get("requests", 0)))
            if _group(key) in groups_above(parent_of[span.span_id]):
                continue  # nested inside the same layer
            self.calls[key] = self.calls.get(key, 0) + 1
            for name, value in labels.items():
                if name == "method" or name == "error":
                    continue
                self.labels[(key, name)] = (
                    self.labels.get((key, name), 0.0) + float(value))
            if key == "engine.dispatch" and span.track == TRACK:
                pool = int(labels.get("pool", 1))
                if pool > 1:
                    self.pool_capacity_s += pool * duration
            if key == "simulator" and "members" in labels:
                self.members.append(int(labels["members"]))
            if key == "training.run":
                method = labels["method"]
                self.bytes_per_method[method] = (
                    self.bytes_per_method.get(method, 0.0)
                    + float(labels["bytes"]))

    def metrics(self, trace_overhead: float,
                serving: Optional[Dict[str, float]] = None,
                scale: float = 1.0) -> Dict[str, float]:
        """Every per-layer metric, per operation where it is a total;
        every time is multiplied by ``scale`` (the host-speed
        normalization of :mod:`speed`)."""
        ops = max(self.ops, 1)

        def label(key: str, name: str) -> float:
            return self.labels.get((key, name), 0.0)

        out = {metric: self.self_s.get(key, 0.0) / ops
               for key, metric in TIME_METRICS.items()}
        for metric, keys in CALL_METRICS.items():
            out[metric] = sum(self.calls.get(k, 0) for k in keys) / ops
        lookups = label("engine.cache.lookup", "keys")
        executed = label("engine.dispatch", "executed")
        out.update({
            "engine.cache.keys": lookups / ops,
            "engine.cache.hit_ratio": (label("engine.cache.lookup", "hits")
                                       / lookups if lookups else 0.0),
            "engine.cache.memory_hits":
                label("engine.cache.lookup", "memory_hits") / ops,
            "engine.cache.pack_hits":
                label("engine.cache.lookup", "pack_hits") / ops,
            "engine.cache.stores": label("engine.cache.store", "entries") / ops,
            "engine.dispatch.jobs": label("engine.dispatch", "jobs") / ops,
            "engine.dispatch.executed": executed / ops,
            "engine.dispatch.batched_ratio": (
                label("engine.dispatch", "batched") / executed
                if executed else 0.0),
            "engine.dispatch.queue_wait_s": self.queue_wait_s / ops,
            "engine.dispatch.worker_exec_s": self.worker_exec_s / ops,
            "engine.dispatch.pool_utilization": (
                self.worker_exec_s / self.pool_capacity_s
                if self.pool_capacity_s else 0.0),
            "engine.dispatch.retries": label("engine.dispatch", "retries") / ops,
            "engine.dispatch.failures":
                label("engine.dispatch", "failures") / ops,
            "simulator.iterations": label("simulator", "iterations") / ops,
            "simulator.members_per_call": (
                float(statistics.mean(self.members)) if self.members
                else 0.0),
            "core.grid.points": label("core.grid", "points") / ops,
            "analysis.advisor.frontier_size":
                label("analysis.advisor.reduce", "frontier") / ops,
            "collectives.numeric.bytes":
                label("collectives.numeric", "bytes") / ops,
            "serving.parse_us_p50": _median(self.parse_s) * 1e6,
            "serving.admit_us_p50": _median(self.admit_s) * 1e6,
            "serving.batch_ms_mean": (statistics.mean(self.batch_s) * 1e3
                                      if self.batch_s else 0.0),
            "serving.occupancy_mean": (float(statistics.mean(self.occupancy))
                                       if self.occupancy else 0.0),
            "telemetry.trace_overhead": trace_overhead,
        })
        for method in TRAINING_METHODS:
            out[f"training.bytes_per_worker.{method}"] = (
                self.bytes_per_method.get(method, 0.0) / ops)
        serving = serving or {}
        for metric in ("serving.residence_ms_p50", "serving.http_ms_p50",
                       "serving.refused"):
            out[metric] = serving.get(metric, 0.0)
        for metric in TIMES:
            out[metric] *= scale
        return out
