"""Telemetry subsystem: metrics registry, structured logs, manifests."""

import io
import json

import numpy as np
import pytest

from repro.engine.fingerprint import digest
from repro.errors import ConfigurationError
from repro.telemetry import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    StructuredLogger,
    build_manifest,
    format_key,
    get_logger,
    get_registry,
    metric_key,
    read_manifest,
    set_registry,
    verify_manifest,
    write_manifest,
)
from repro.telemetry import logs as telemetry_logs
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.metrics import MAX_HISTOGRAM_SAMPLES

from . import oracle


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    """Restore the process-global registry and log sink after each test."""
    previous = get_registry()
    yield
    set_registry(previous)
    telemetry_logs.configure()


class TestMetricKey:
    def test_no_labels(self):
        assert format_key(metric_key("hits", {})) == "hits"

    def test_labels_sorted_and_stringified(self):
        key = metric_key("calls", {"b": 2, "a": "x"})
        assert key == ("calls", (("a", "x"), ("b", "2")))
        assert format_key(key) == 'calls{a="x",b="2"}'

    def test_label_order_does_not_matter(self):
        assert metric_key("m", {"a": 1, "b": 2}) \
            == metric_key("m", {"b": 2, "a": 1})

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_key("", {})


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == pytest.approx(13.0)


class TestHistogram:
    def test_aggregates(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_percentile_range_validated(self):
        with pytest.raises(ConfigurationError):
            Histogram().percentile(101)

    def test_empty_summary_is_zeros(self):
        s = Histogram().summary()
        assert s["count"] == 0 and s["mean"] == 0.0 and s["p99"] == 0.0

    def test_summary_keys(self):
        h = Histogram()
        h.observe(1.0)
        assert set(h.summary()) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99"}

    def test_sample_cap_keeps_exact_aggregates(self):
        h = Histogram()
        h._samples = [0.0] * MAX_HISTOGRAM_SAMPLES  # simulate a full buffer
        h.count = MAX_HISTOGRAM_SAMPLES
        h.observe(7.0)
        assert h.count == MAX_HISTOGRAM_SAMPLES + 1
        assert h.max == 7.0
        assert len(h._samples) == MAX_HISTOGRAM_SAMPLES


def same_state(hist, ref):
    return (hist.count == ref.count
            and np.float64(hist.total).tobytes()
            == np.float64(ref.total).tobytes()
            and np.float64(hist.min).tobytes() == np.float64(ref.min).tobytes()
            and np.float64(hist.max).tobytes() == np.float64(ref.max).tobytes()
            and np.asarray(hist._samples).tobytes()
            == np.asarray(ref.samples).tobytes())


class TestObserveMany:
    """``observe_many`` equals a loop of ``observe``: count, total bits,
    min, max and retained samples, NaN and the sample cap included."""

    @staticmethod
    def batch(rng):
        size = int(rng.integers(0, 300))
        values = rng.choice([rng.normal(0.0, 1e3, size),
                             rng.lognormal(-8.0, 2.0, size),
                             rng.integers(-5, 5, size).astype(float)])
        if size and rng.random() < 0.4:
            values[rng.random(size) < 0.2] = np.nan
        if size and rng.random() < 0.2:
            values[int(rng.integers(0, size))] = float(
                rng.choice([np.inf, -np.inf, -0.0]))
        return values

    def test_matches_observe_loop(self):
        rng = np.random.default_rng(2505)
        for _ in range(40):
            hist, ref = Histogram(), oracle.HistogramOracle()
            for _ in range(int(rng.integers(1, 6))):
                values = self.batch(rng)
                if rng.random() < 0.3:
                    for v in values:
                        hist.observe(v)
                else:
                    hist.observe_many(values)
                for v in values:
                    ref.observe(v)
                assert same_state(hist, ref)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0], [-0.0, 0.0], [np.nan, -0.0, 0.0, np.nan], [np.nan]])
    def test_ties_keep_the_first_extreme(self, values):
        """0.0 and -0.0 compare equal: the loop keeps whichever came
        first (NumPy's min and max return the last)."""
        hist, ref = Histogram(), oracle.HistogramOracle()
        hist.observe_many(values)
        for v in values:
            ref.observe(v)
        assert same_state(hist, ref)

    def test_fills_to_the_sample_cap(self):
        rng = np.random.default_rng(2506)
        hist, ref = Histogram(), oracle.HistogramOracle()
        start = MAX_HISTOGRAM_SAMPLES - 7
        hist._samples = [1.0] * start
        ref.samples = [1.0] * start
        for _ in range(3):
            values = rng.normal(size=5)
            hist.observe_many(values)
            for v in values:
                ref.observe(v)
            assert same_state(hist, ref)
        assert len(hist._samples) == MAX_HISTOGRAM_SAMPLES

    def test_null_metric_accepts_bulk(self):
        NullRegistry().histogram("x").observe_many([1.0, 2.0])


class TestMetricsRegistry:
    def test_same_name_and_labels_share_a_metric(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="b").inc()
        snap = reg.snapshot()
        assert snap["counters"]['hits{kind="a"}'] == 2.0
        assert snap["counters"]['hits{kind="b"}'] == 1.0

    def test_snapshot_sections_and_sorting(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc()
        reg.gauge("util").set(0.5)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["gauges"]["util"] == 0.5
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.histogram("h", scheme="powersgd").observe(0.25)
        json.dumps(reg.snapshot())


#: Engine metrics that read the wall clock, so differ between runs.
WALL_CLOCK_METRICS = ("engine_job_exec_s", "engine_queue_wait_s",
                      "engine_pool_utilization")


def _deterministic_snapshot(registry):
    snap = registry.snapshot()
    return json.dumps(
        {section: {key: value for key, value in metrics.items()
                   if not key.startswith(WALL_CLOCK_METRICS)}
         for section, metrics in snap.items()},
        sort_keys=True)


class TestLookupCache:
    """The per-call lookup cache in front of ``metric_key`` changes no
    metric's identity."""

    def test_label_order_shares_a_metric(self):
        reg = MetricsRegistry()
        first = reg.counter("c", a="x", b="y")
        assert reg.counter("c", b="y", a="x") is first
        assert reg.counter("c", a="x", b="y") is first
        assert list(reg.snapshot()["counters"]) == ['c{a="x",b="y"}']

    def test_int_and_str_values_share_a_metric(self):
        for order in ((1, "1"), ("1", 1)):
            reg = MetricsRegistry()
            handles = [reg.histogram("h", n=value)
                       for value in order + order]
            assert all(h is handles[0] for h in handles)
            assert list(reg.snapshot()["histograms"]) == ['h{n="1"}']

    def test_equal_keys_with_different_text_stay_apart(self):
        # 1 == 1.0 == True as dict keys, but their label texts differ.
        reg = MetricsRegistry()
        for value in (1, 1, "1", True, True, 1.0, 1.0, "True"):
            reg.counter("c", n=value).inc()
        assert reg.snapshot()["counters"] == {
            'c{n="1"}': 3.0, 'c{n="1.0"}': 2.0, 'c{n="True"}': 3.0}

    def test_unhashable_label_takes_the_canonical_path(self):
        reg = MetricsRegistry()
        reg.counter("c", v=[1, 2]).inc()
        reg.counter("c", v=[1, 2]).inc()
        reg.counter("c", v="[1, 2]").inc()
        assert reg.snapshot()["counters"] == {'c{v="[1, 2]"}': 3.0}

    def test_kinds_do_not_share_handles(self):
        reg = MetricsRegistry()
        assert reg.counter("m", k="a") is not reg.histogram("m", k="a")
        assert reg.gauge("m", k="a") is reg.gauge("m", k="a")

    def test_empty_name_still_rejected(self):
        reg = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                reg.counter("", k="a")

    def test_threads_racing_to_create_get_the_kept_metric(self):
        """Every thread's handle, cached or not, is the one the registry
        keeps, so no thread counts into an orphan."""
        import sys
        import threading
        reg = MetricsRegistry()
        threads, barrier = 8, threading.Barrier(8)
        seen = [[] for _ in range(threads)]

        def worker(index):
            barrier.wait(timeout=10)
            for round_ in range(200):
                labels = {"a": str(round_), "b": "x"}
                if index % 2:
                    labels = dict(reversed(list(labels.items())))
                seen[index].append(reg.counter("race", **labels))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,))
                    for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        for round_ in range(200):
            kept = reg.counter("race", a=str(round_), b="x")
            assert all(handles[round_] is kept for handles in seen)

    def test_random_calls_snapshot_like_the_uncached_registry(self):
        rng = np.random.default_rng(26)
        values = ("a", "b", 1, "1", 2.5, True, None, "x\"y")
        cached, uncached = MetricsRegistry(), oracle.UncachedRegistry()
        for _ in range(3000):
            name = ("m_a", "m_b", "m_c")[int(rng.integers(3))]
            keys = list(rng.permutation(["k1", "k2", "k3"])
                        [:int(rng.integers(0, 4))])
            labels = {str(k): values[int(rng.integers(len(values)))]
                      for k in keys}
            if rng.random() < 0.05:
                labels["k4"] = [int(rng.integers(3))]
            kind = int(rng.integers(3))
            amount = float(rng.random())
            for reg in (cached, uncached):
                if kind == 0:
                    reg.counter(name, **labels).inc(amount)
                elif kind == 1:
                    reg.gauge(name, **labels).set(amount)
                else:
                    reg.histogram(name, **labels).observe(amount)
        assert json.dumps(cached.snapshot()) \
            == json.dumps(uncached.snapshot())

    def test_exhibit_snapshots_match_the_uncached_registry(self):
        from repro.experiments import run_fig4, run_fig8, run_reliability
        snapshots = []
        for reg in (MetricsRegistry(), oracle.UncachedRegistry()):
            set_registry(reg)
            run_reliability()
            run_fig4()
            run_fig8()
            snapshots.append(_deterministic_snapshot(reg))
        assert snapshots[0] == snapshots[1]
        assert '"sim_faults_active_total{kind=\\"degraded\\"}"' \
            in snapshots[0]


class TestNullRegistry:
    def test_disabled_and_inert(self):
        reg = NullRegistry()
        assert reg.enabled is False
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(1)
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_handles_are_the_shared_singleton(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.histogram("b", x="y")


class TestGlobalRegistry:
    def test_default_is_null(self):
        # The autouse fixture restores whatever was installed; within a
        # fresh process the default is the null backend.
        telemetry_metrics.disable()
        assert not get_registry().enabled

    def test_enable_installs_live_registry(self):
        reg = telemetry_metrics.enable()
        assert get_registry() is reg and reg.enabled

    def test_set_registry_returns_previous(self):
        first = telemetry_metrics.enable()
        previous = set_registry(MetricsRegistry())
        assert previous is first

    def test_none_rejected(self):
        with pytest.raises(ConfigurationError):
            set_registry(None)


class TestStructuredLogs:
    def test_text_rendering_keeps_error_prefix(self):
        sink = io.StringIO()
        telemetry_logs.configure(level="debug", stream=sink)
        get_logger("t").error("boom", code=2)
        assert sink.getvalue() == "error: boom code=2\n"

    def test_threshold_filters(self):
        sink = io.StringIO()
        telemetry_logs.configure(level="warning", stream=sink)
        log = get_logger("t")
        log.debug("quiet")
        log.info("quiet")
        log.warning("loud")
        assert sink.getvalue() == "warning: loud\n"

    def test_json_mode_one_object_per_line(self):
        sink = io.StringIO()
        telemetry_logs.configure(level="debug", json_mode=True, stream=sink)
        log = get_logger("repro.test")
        log.info("first", n=1)
        log.error("second")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["level"] == "info"
        assert first["logger"] == "repro.test"
        assert first["event"] == "first"
        assert first["n"] == 1
        assert isinstance(first["ts"], float)

    def test_json_reserved_key_collision_prefixed(self):
        sink = io.StringIO()
        telemetry_logs.configure(level="debug", json_mode=True, stream=sink)
        get_logger("t").info("e", level="inner")
        record = json.loads(sink.getvalue())
        assert record["level"] == "info"
        assert record["field_level"] == "inner"

    def test_json_non_serializable_field_repred(self):
        sink = io.StringIO()
        telemetry_logs.configure(level="debug", json_mode=True, stream=sink)
        get_logger("t").info("e", obj={1, 2})
        record = json.loads(sink.getvalue())
        assert record["obj"].startswith("{")  # repr of a set

    def test_get_logger_cached(self):
        assert get_logger("same") is get_logger("same")

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            telemetry_logs.configure(level="loud")
        with pytest.raises(ConfigurationError):
            get_logger("t").log("loud", "e")

    def test_empty_logger_name_rejected(self):
        with pytest.raises(ConfigurationError):
            StructuredLogger("")


class TestManifest:
    CONFIG = {"command": "experiment", "id": "table1", "jobs": 2}

    def test_build_fields(self):
        m = build_manifest("experiment table1", dict(self.CONFIG), 1.5)
        assert m["manifest_version"] == MANIFEST_VERSION
        assert m["command"] == "experiment table1"
        assert m["config"] == self.CONFIG
        assert m["wall_time_s"] == 1.5
        assert m["package"]["name"] == "repro"
        assert m["metrics"] == {} and m["results"] == {}

    def test_fingerprint_is_engine_digest_of_config(self):
        m = build_manifest("x", dict(self.CONFIG), 0.0)
        assert m["fingerprint"] == digest(self.CONFIG)

    def test_verify_roundtrip_and_tamper_detection(self):
        m = build_manifest("x", dict(self.CONFIG), 0.0)
        assert verify_manifest(m)
        m["config"]["jobs"] = 99
        assert not verify_manifest(m)

    def test_verify_malformed_is_false(self):
        assert not verify_manifest({})
        assert not verify_manifest({"config": {}, "fingerprint": None})

    def test_negative_wall_time_rejected(self):
        with pytest.raises(ConfigurationError):
            build_manifest("x", {}, -1.0)

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / MANIFEST_FILENAME)
        m = build_manifest("x", dict(self.CONFIG), 2.0,
                           metrics={"counters": {"a": 1.0}, "gauges": {},
                                    "histograms": {}},
                           results={"exhibits": {"table1": {"rows": 5}}})
        write_manifest(path, m)
        loaded = read_manifest(path)
        assert loaded == m
        assert verify_manifest(loaded)

    def test_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        write_manifest(str(path), build_manifest("x", {}, 0.0))
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_FILENAME]

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_manifest(str(tmp_path / "nope.json"))

    def test_read_non_object_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            read_manifest(str(path))
