"""Span-based run tracing: tracer, Prometheus exposition, engine spans.

Covers the telemetry tracer contract (null backend, recorder, context
propagation), the Prometheus text renderer and its validator, the
engine's span instrumentation (serial, pooled, and chaos-killed runs
all yield one coherent trace), the Perfetto exporter for tracer spans,
and the CLI surface (``--trace-run``, ``repro metrics``).
"""

import json
import os

import pytest

from repro.engine import ExperimentEngine, SimJob, SimulationCache
from repro.engine.engine import CHAOS_KILL_ENV
from repro.errors import ConfigurationError
from repro.hardware import cluster_for_gpus
from repro.simulator import tracer_spans_to_events, write_trace_spans
from repro.telemetry import (
    NullTracer,
    TraceRecorder,
    TraceSpan,
    build_manifest,
    disable_tracing,
    enable_tracing,
    escape_label_value,
    format_key,
    get_tracer,
    parse_key,
    render_prometheus,
    set_tracer,
    validate_prometheus_text,
)
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.metrics import metric_key


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    """Restore the process-global tracer and registry after each test."""
    previous_tracer = get_tracer()
    previous_registry = telemetry_metrics.get_registry()
    yield
    set_tracer(previous_tracer)
    telemetry_metrics.set_registry(previous_registry)


@pytest.fixture
def small_jobs(tiny_model):
    return [
        SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
               batch_size=4, iterations=6, warmup=1, seed=seed)
        for seed in range(4)
    ]


@pytest.fixture
def singleton_jobs(tiny_model):
    # Distinct batch sizes give every job its own family, so each one
    # executes (and is traced) as its own task.
    return [
        SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
               batch_size=batch_size, iterations=6, warmup=1)
        for batch_size in (4, 5, 6, 7)
    ]


class TestTraceSpan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceSpan(name="", track="t", start_unix_s=0.0,
                      end_unix_s=1.0, trace_id="t", span_id="1",
                      parent_id=None, pid=1)
        with pytest.raises(ConfigurationError):
            TraceSpan(name="n", track="", start_unix_s=0.0,
                      end_unix_s=1.0, trace_id="t", span_id="1",
                      parent_id=None, pid=1)
        with pytest.raises(ConfigurationError):
            TraceSpan(name="n", track="t", start_unix_s=2.0,
                      end_unix_s=1.0, trace_id="t", span_id="1",
                      parent_id=None, pid=1)

    def test_duration(self):
        span = TraceSpan(name="n", track="t", start_unix_s=1.5,
                         end_unix_s=4.0, trace_id="t", span_id="1",
                         parent_id=None, pid=1)
        assert span.duration_s == 2.5


class TestNullTracer:
    def test_default_tracer_is_null_and_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_handles_are_shared_noop_singletons(self):
        tracer = NullTracer()
        a = tracer.span("x", track="t")
        b = tracer.begin("y", track="t")
        assert a is b
        with a:
            a.annotate(k="v")
        tracer.finish(a)
        tracer.add_span("z", "t", 0.0, 1.0)
        tracer.merge([])
        assert tracer.drain() == ()
        assert tracer.spans == ()

    def test_set_tracer_rejects_none(self):
        with pytest.raises(ConfigurationError):
            set_tracer(None)


class TestTraceRecorder:
    def test_context_manager_nesting_sets_parents(self):
        tracer = TraceRecorder()
        with tracer.span("outer", track="a") as outer:
            with tracer.span("inner", track="b") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.drain()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[1].parent_id is None
        assert all(s.trace_id == tracer.trace_id for s in spans)

    def test_begin_does_not_become_implicit_parent(self):
        tracer = TraceRecorder()
        first = tracer.begin("first", track="t")
        second = tracer.begin("second", track="t")
        # Both parent to the (empty) stack root, not to each other.
        assert second.parent_id is None
        tracer.finish(first)
        tracer.finish(second)
        explicit = tracer.begin("third", track="t",
                                parent_id=first.span_id)
        tracer.finish(explicit)
        assert tracer.drain()[-1].parent_id == first.span_id

    def test_root_parent_seeds_cross_process_lineage(self):
        tracer = TraceRecorder(trace_id="trace-1", root_parent_id="p.1")
        with tracer.span("local", track="exec"):
            pass
        (span,) = tracer.drain()
        assert span.trace_id == "trace-1"
        assert span.parent_id == "p.1"
        assert span.pid == os.getpid()

    def test_add_span_clamps_clock_skew(self):
        tracer = TraceRecorder()
        tracer.add_span("queue-wait", track="queue",
                        start_unix_s=10.0, end_unix_s=9.999)
        (span,) = tracer.drain()
        assert span.end_unix_s == span.start_unix_s == 10.0

    def test_labels_stringified_and_error_annotated(self):
        tracer = TraceRecorder()
        with pytest.raises(ValueError):
            with tracer.span("boom", track="t", n=3):
                raise ValueError("nope")
        (span,) = tracer.drain()
        labels = dict(span.labels)
        assert labels["n"] == "3"
        assert labels["error"] == "ValueError"

    def test_merge_adopts_foreign_spans(self):
        tracer = TraceRecorder(trace_id="shared")
        worker = TraceRecorder(trace_id="shared", root_parent_id="p.9")
        with worker.span("remote", track="exec"):
            pass
        tracer.merge(worker.drain())
        assert [s.name for s in tracer.spans] == ["remote"]

    def test_span_ids_are_pid_qualified_and_unique(self):
        tracer = TraceRecorder()
        ids = {tracer.begin(f"s{i}", track="t").span_id
               for i in range(10)}
        assert len(ids) == 10
        assert all(i.startswith(f"{os.getpid():x}.") for i in ids)

    def test_enable_disable_roundtrip(self):
        tracer = enable_tracing()
        assert get_tracer() is tracer and tracer.enabled
        disable_tracing()
        assert not get_tracer().enabled


class TestPromEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_format_key_escapes_and_parse_key_inverts(self):
        key = metric_key("m", {"path": 'C:\\x', "msg": 'say "hi"\n'})
        formatted = format_key(key)
        assert "\n" not in formatted
        assert parse_key(formatted) == key

    def test_parse_key_plain(self):
        assert parse_key("hits") == ("hits", ())

    def test_parse_key_rejects_malformed(self):
        for bad in ('m{a="x"', 'm{a=x}', "m{=}", 'm{a="x" b="y"}'):
            with pytest.raises(ConfigurationError):
                parse_key(bad)


class TestRenderPrometheus:
    def snapshot(self):
        telemetry_metrics.enable()
        registry = telemetry_metrics.get_registry()
        registry.counter("jobs_total", scheme='power"sgd').inc(3)
        registry.gauge("pool_utilization").set(0.5)
        registry.histogram("exec_s").observe(1.0)
        registry.histogram("exec_s").observe(3.0)
        return registry.snapshot()

    def test_families_typed_and_samples_escaped(self):
        text = render_prometheus(self.snapshot())
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{scheme="power\\"sgd"} 3.0' in text
        assert "# TYPE pool_utilization gauge" in text
        assert "# TYPE exec_s summary" in text
        assert 'exec_s{quantile="0.5"}' in text
        assert "exec_s_sum 4.0" in text
        assert "exec_s_count 2.0" in text

    def test_render_output_validates_clean(self):
        assert validate_prometheus_text(
            render_prometheus(self.snapshot())) == []

    def test_validator_flags_bad_lines(self):
        problems = validate_prometheus_text(
            "ok_total 1.0\nbad line here\n2bad_name 1.0\n")
        assert len(problems) == 2
        assert problems[0].startswith("line 2:")

    def test_empty_snapshot_renders_empty(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        assert render_prometheus(empty) == ""
        with pytest.raises(ConfigurationError):
            render_prometheus({"counters": {}})


class TestEngineTracing:
    def run_traced(self, batch, tmp_path=None, **engine_kwargs):
        tracer = enable_tracing()
        cache = (SimulationCache(str(tmp_path / "cache"))
                 if tmp_path is not None else None)
        engine = ExperimentEngine(cache=cache, **engine_kwargs)
        outcomes = engine.run_outcomes(batch)
        spans = tracer.drain()
        disable_tracing()
        return outcomes, spans

    def test_serial_run_emits_nested_spans(self, singleton_jobs,
                                           tmp_path):
        small_jobs = singleton_jobs
        outcomes, spans = self.run_traced(small_jobs, tmp_path)
        assert all(o.ok for o in outcomes)
        by_id = {s.span_id: s for s in spans}
        names = [s.name for s in spans]
        assert "engine-batch" in names
        assert "cache-lookup" in names
        # Stores are batched: ONE cache-store span carrying every miss
        # the batch produced, not one span per job.
        (store_span,) = [s for s in spans if s.name == "cache-store"]
        assert dict(store_span.labels)["entries"] == str(len(small_jobs))
        (batch_span,) = [s for s in spans if s.name == "engine-batch"]
        job_spans = [s for s in spans
                     if s.track == "engine" and s.name != "engine-batch"]
        assert len(job_spans) == len(small_jobs)
        for job_span in job_spans:
            assert job_span.parent_id == batch_span.span_id
        for span in spans:
            if span.track in ("exec", "queue"):
                assert by_id[span.parent_id].track == "engine"
        # The simulator's own spans rode along (sim-run + streams).
        assert any(s.track == "sim" for s in spans)
        assert any(s.track.startswith("sim:") for s in spans)

    def test_pooled_run_parents_across_processes(self, singleton_jobs):
        small_jobs = singleton_jobs
        outcomes, spans = self.run_traced(small_jobs, jobs=2)
        assert all(o.ok for o in outcomes)
        assert len({s.trace_id for s in spans}) == 1
        worker_spans = [s for s in spans if s.pid != os.getpid()]
        assert worker_spans, "no spans came back from pool workers"
        parent_ids = {s.span_id for s in spans if s.pid == os.getpid()}
        for span in worker_spans:
            if span.track in ("exec", "queue"):
                assert span.parent_id in parent_ids
        job_spans = [s for s in spans
                     if s.track == "engine" and s.name != "engine-batch"]
        assert len(job_spans) == len(small_jobs)
        assert all(dict(s.labels)["outcome"] == "ok" for s in job_spans)

    def test_untraced_run_records_nothing(self, small_jobs):
        assert not get_tracer().enabled
        engine = ExperimentEngine(jobs=2)
        outcomes = engine.run_outcomes(small_jobs)
        assert all(o.ok for o in outcomes)
        assert get_tracer().drain() == ()

    def test_chaos_kill_yields_one_coherent_trace(self, singleton_jobs,
                                                  tmp_path, monkeypatch):
        """A killed worker's retry lands as a sibling attempt: the dead
        attempt ships no spans, the successful one parents normally, and
        the whole run stays a single trace."""
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        tracer = enable_tracing()
        engine = ExperimentEngine(jobs=2, retry_backoff_s=0.0)
        small_jobs = singleton_jobs
        outcomes = engine.run_outcomes(small_jobs)
        spans = tracer.drain()
        disable_tracing()
        assert all(o.ok for o in outcomes)
        assert engine.stats().retries >= 1
        assert len({s.trace_id for s in spans}) == 1
        job_spans = [s for s in spans
                     if s.track == "engine" and s.name != "engine-batch"]
        assert len(job_spans) == len(small_jobs)
        # At least one job needed a second attempt...
        assert any(int(dict(s.labels)["attempts"]) >= 2
                   for s in job_spans)
        # ...and every job span has exactly one exec child: the killed
        # attempt contributed nothing, the surviving one everything.
        execs = [s for s in spans if s.track == "exec"]
        for job_span in job_spans:
            children = [s for s in execs
                        if s.parent_id == job_span.span_id]
            assert len(children) == 1

    def test_tracing_does_not_change_results(self, small_jobs):
        plain = ExperimentEngine().run_outcomes(small_jobs)
        enable_tracing()
        traced = ExperimentEngine().run_outcomes(small_jobs)
        disable_tracing()
        for a, b in zip(plain, traced):
            assert a.unwrap() == b.unwrap()


class TestTracerExport:
    def record(self):
        tracer = TraceRecorder(trace_id="t-1")
        with tracer.span("run", track="cli"):
            with tracer.span("job", track="engine", scheme="powersgd"):
                pass
        return tracer.drain()

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            tracer_spans_to_events([])

    def test_event_shape(self):
        spans = self.record()
        events = tracer_spans_to_events(spans)
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "engine" for e in metas)
        tracks = {e["args"]["name"] for e in metas
                  if e["name"] == "thread_name"}
        assert tracks == {"cli", "engine"}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(spans)
        assert min(e["ts"] for e in xs) == 0.0  # rebased
        job = next(e for e in xs if e["name"] == "job")
        assert job["args"]["trace_id"] == "t-1"
        assert job["args"]["scheme"] == "powersgd"
        assert job["args"]["parent_id"] is not None

    def test_write_returns_byte_count(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_trace_spans(str(path), self.record())
        assert n == path.stat().st_size
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestManifestTrace:
    def kwargs(self):
        return dict(command="experiment fig3", config={"id": "fig3"},
                    wall_time_s=1.0,
                    metrics={"counters": {}, "gauges": {},
                             "histograms": {}},
                    results={})

    def test_absent_by_default(self):
        assert "trace" not in build_manifest(**self.kwargs())

    def test_recorded_when_given(self):
        info = {"mode": "reconstructed-batch", "spans_total": 7,
                "export_bytes_total": 123, "path": "run.json"}
        manifest = build_manifest(trace=info, **self.kwargs())
        assert manifest["trace"] == info


class TestCLITracing:
    def test_experiment_trace_run_writes_perfetto_file(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        trace_path = tmp_path / "run.json"
        cache_dir = tmp_path / "cache"
        assert main(["experiment", "fig3", "--jobs", "2",
                     "--cache", str(cache_dir),
                     "--trace-run", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote run trace" in out
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        procs = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert "engine" in procs.values()
        assert any(n.startswith("worker-") for n in procs.values())
        xs = [e for e in events if e.get("ph") == "X"]
        names = {e["name"] for e in xs}
        assert "experiment fig3" in names
        assert "exhibit fig3" in names
        assert "queue-wait" in names
        # Manifest records the trace section and counters.
        manifest = json.loads(
            (cache_dir / "manifest.json").read_text())
        assert manifest["trace"]["mode"] == "reconstructed-batch"
        assert manifest["trace"]["spans_total"] == len(xs)
        counters = manifest["metrics"]["counters"]
        assert counters[
            'trace_spans_total{mode="reconstructed-batch"}'] == len(xs)
        assert counters["trace_export_bytes_total"] == \
            manifest["trace"]["export_bytes_total"]
        # The Prometheus snapshot landed beside the manifest, valid.
        prom = (cache_dir / "metrics.prom").read_text()
        assert validate_prometheus_text(prom) == []
        assert "trace_spans_total" in prom

    def test_metrics_subcommand_text_and_prom(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = tmp_path / "cache"
        assert main(["experiment", "fig3", "--cache",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--cache", str(cache_dir)]) == 0
        text = capsys.readouterr().out
        assert "engine_jobs_total" in text
        assert main(["metrics", "--cache", str(cache_dir),
                     "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert validate_prometheus_text(prom) == []
        assert "# TYPE engine_jobs_total counter" in prom

    def test_metrics_subcommand_requires_a_source(self, capsys):
        from repro.cli import main
        assert main(["metrics"]) == 2

    def test_metrics_subcommand_rejects_missing_manifest(self, tmp_path):
        from repro.cli import main
        assert main(["metrics", "--manifest",
                     str(tmp_path / "nope.json")]) == 2
