"""Engine statistics and the telemetry recorded across the stack."""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis import SweepSpec, advise
from repro.collectives import allgather_time, ring_allreduce_time
from repro.engine import EngineStats, ExperimentEngine, SimJob
from repro.engine.engine import _COUNTER_METRICS, JobOutcome, _init_worker
from repro.errors import OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.simulator import DDPConfig, DDPSimulator
from repro.telemetry import metrics as telemetry_metrics


@pytest.fixture(autouse=True)
def _isolate_registry():
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def jobs_for(rn50, n=2):
    return [SimJob(model=rn50, cluster=cluster_for_gpus(8), batch_size=64,
                   iterations=4, warmup=1, seed=seed) for seed in range(n)]


class TestEngineStats:
    def test_counts_executed_and_completed(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        stats = engine.stats()
        assert stats.executed == 2
        assert stats.jobs_completed == 2
        assert stats.exec_s_total > 0
        assert stats.busy_s >= stats.exec_s_total * 0.5
        assert stats.mean_exec_s == pytest.approx(
            stats.exec_s_total / 2)

    def test_pool_utilization_bounded(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        # Serial execution: the one "worker" is busy nearly the whole
        # batch, so utilization approaches (and never exceeds) 1.
        assert 0.0 < engine.stats().pool_utilization <= 1.0

    def test_cache_hits_do_not_count_as_executed(self, rn50, tmp_path,
                                                 open_cache):
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        batch = jobs_for(rn50, 2)
        engine.run_outcomes(batch)
        outcomes = engine.run_outcomes(batch)  # all hits now
        stats = engine.stats()
        assert stats.executed == 2
        assert stats.jobs_completed == 4
        assert stats.cache.hits == 2
        assert all(o.cached and o.exec_s == 0.0 for o in outcomes)

    def test_outcomes_carry_timing(self, rn50):
        engine = ExperimentEngine()
        outcomes = engine.run_outcomes(jobs_for(rn50, 2))
        for o in outcomes:
            assert o.exec_s > 0.0
            assert o.queue_wait_s >= 0.0

    def test_to_dict_json_serializable(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 1))
        payload = engine.stats().to_dict()
        json.dumps(payload)
        assert payload["executed"] == 1
        assert payload["mean_exec_s"] == pytest.approx(
            payload["exec_s_total"])
        assert 0.0 < payload["pool_utilization"] <= 1.0

    def test_describe_mentions_jobs_and_utilization(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 2))
        text = engine.stats().describe()
        assert "2 jobs" in text and "pool utilization" in text

    def test_idle_engine_stats_are_zero(self):
        stats = ExperimentEngine().stats()
        assert stats == EngineStats(
            cache=stats.cache, executed=0, jobs_completed=0, busy_s=0.0,
            exec_s_total=0.0, queue_wait_s_total=0.0, worker_s_total=0.0)
        assert stats.mean_exec_s == 0.0
        assert stats.pool_utilization == 0.0


class TestEngineTelemetry:
    def test_jobs_recorded_by_cache_status(self, rn50, tmp_path, open_cache):
        registry = telemetry_metrics.enable()
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        batch = jobs_for(rn50, 2)
        engine.run_outcomes(batch)
        engine.run_outcomes(batch)
        counters = registry.snapshot()["counters"]
        assert counters['engine_jobs_total{cached="false"}'] == 2.0
        assert counters['engine_jobs_total{cached="true"}'] == 2.0
        assert counters["cache_misses_total"] == 2.0
        assert counters["cache_hits_total"] == 2.0
        assert counters["cache_stores_total"] == 2.0

    def test_exec_histograms_only_for_executed(self, rn50):
        registry = telemetry_metrics.enable()
        ExperimentEngine().run_outcomes(jobs_for(rn50, 2))
        hist = registry.snapshot()["histograms"]
        assert hist["engine_job_exec_s"]["count"] == 2
        assert hist["engine_queue_wait_s"]["count"] == 2

    def test_null_registry_records_nothing(self, rn50):
        telemetry_metrics.disable()
        engine = ExperimentEngine()
        engine.run_outcomes(jobs_for(rn50, 1))
        assert telemetry_metrics.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        # ...but the engine's own counters still work.
        assert engine.stats().executed == 1


def record_per_outcome(registry, outcomes, deltas):
    """The one-outcome-at-a-time recording ``_record_batch`` bulks."""
    for outcome in outcomes:
        registry.counter("engine_jobs_total",
                         cached=str(outcome.cached).lower()).inc()
        if getattr(outcome, "oom", None) is not None:
            registry.counter("engine_oom_outcomes_total").inc()
        if outcome.error is not None:
            registry.counter("engine_failed_jobs_total").inc()
        if not outcome.cached:
            registry.histogram("engine_job_exec_s").observe(outcome.exec_s)
            registry.histogram("engine_queue_wait_s").observe(
                outcome.queue_wait_s)
    for name, delta in deltas.items():
        if delta:
            registry.counter(_COUNTER_METRICS[name]).inc(delta)
    registry.gauge("engine_pool_utilization").set(0.0)


def _registry_enabled():
    return telemetry_metrics.get_registry().enabled


class TestBatchRecord:
    @pytest.mark.parametrize("seed", range(4))
    def test_bulk_record_equals_per_outcome_loop(self, rn50, seed):
        rng = np.random.default_rng([17, seed])
        job = jobs_for(rn50, 1)[0]
        oom = OutOfMemoryError("does not fit", required_bytes=2,
                               budget_bytes=1)
        outcomes = []
        for _ in range(int(rng.integers(1, 40))):
            cached = bool(rng.random() < 0.4)
            kind = int(rng.integers(3))
            outcomes.append(JobOutcome(
                job=job, cached=cached,
                oom=oom if kind == 1 else None,
                error="gave up" if kind == 2 and not cached else None,
                exec_s=0.0 if cached else float(rng.random() * 10.0
                                                ** rng.integers(-6, 1)),
                queue_wait_s=0.0 if cached else float(rng.random())))
        deltas = {name: int(rng.integers(0, 3)) for name in _COUNTER_METRICS}
        bulk = telemetry_metrics.enable()
        ExperimentEngine()._record_batch(outcomes, deltas)
        loop = telemetry_metrics.MetricsRegistry()
        record_per_outcome(loop, outcomes, deltas)
        assert bulk.snapshot() == loop.snapshot()


class TestPoolWorkerTelemetry:
    def test_pool_workers_record_into_the_null_registry(self):
        telemetry_metrics.enable()
        with ProcessPoolExecutor(max_workers=1, initializer=_init_worker,
                                 initargs=((),)) as pool:
            assert pool.submit(_registry_enabled).result() is False
        assert telemetry_metrics.get_registry().enabled

    def test_pooled_outcomes_unchanged_with_telemetry_on(self, rn50):
        spec = SweepSpec(world_sizes=(8, 16), bandwidth_points=32,
                         shard_points=16)
        cluster = cluster_for_gpus(32)
        want = advise(rn50, cluster, spec=spec).render()
        sims = jobs_for(rn50, 3)
        want_sims = [o.unwrap() for o in ExperimentEngine().run_outcomes(
            sims)]
        registry = telemetry_metrics.enable()
        engine = ExperimentEngine(jobs=2)
        assert advise(rn50, cluster, spec=spec,
                      engine=engine).render() == want
        assert [o.unwrap() for o in engine.run_outcomes(sims)] == want_sims
        counters = registry.snapshot()["counters"]
        assert counters['engine_jobs_total{cached="false"}'] \
            == engine.jobs_completed


class TestSimulatorTelemetry:
    def test_iteration_metrics_recorded(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8),
                           config=DDPConfig(compute_jitter=0.0,
                                            comm_jitter=0.0))
        trace = sim.simulate_iteration(64, np.random.default_rng(0))
        snap = registry.snapshot()
        assert snap["counters"]['sim_iterations_total{scheme="syncsgd"}'] \
            == 1.0
        assert snap["counters"]['sim_wire_bytes_total{scheme="syncsgd"}'] \
            == pytest.approx(trace.wire_bytes_total())
        assert snap["histograms"][
            'sim_sync_time_s{scheme="syncsgd"}']["count"] == 1
        assert snap["histograms"][
            'sim_overlap_s{scheme="syncsgd"}']["mean"] \
            == pytest.approx(trace.compute_comm_overlap())
        occupancy = snap["histograms"][
            'sim_comm_occupancy{scheme="syncsgd"}']["mean"]
        assert 0.0 < occupancy <= 1.0

    def test_span_kind_labels_bounded(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        sim.simulate_iteration(64, np.random.default_rng(0))
        hist = registry.snapshot()["histograms"]
        # Numeric suffixes are stripped: one "bucket" series, not one
        # series per bucket index.
        bucket_keys = [k for k in hist if k.startswith("sim_comm_span_s")
                       and "bucket" in k]
        assert bucket_keys == ['sim_comm_span_s{kind="bucket"}']

    def test_oom_counted(self, rn50):
        registry = telemetry_metrics.enable()
        sim = DDPSimulator(rn50, cluster_for_gpus(8))
        with pytest.raises(OutOfMemoryError):
            sim.simulate_iteration(100_000, np.random.default_rng(0))
        counters = registry.snapshot()["counters"]
        key = 'sim_oom_total{model="resnet50",scheme="syncsgd"}'
        assert counters[key] == 1.0

    def test_timeline_identical_with_and_without_telemetry(self, rn50):
        config = DDPConfig()
        cluster = cluster_for_gpus(8)
        telemetry_metrics.disable()
        plain = DDPSimulator(rn50, cluster, config=config) \
            .simulate_iteration(64, np.random.default_rng(42))
        telemetry_metrics.enable()
        recorded = DDPSimulator(rn50, cluster, config=config) \
            .simulate_iteration(64, np.random.default_rng(42))
        assert plain.spans == recorded.spans
        assert plain.sync_end == recorded.sync_end
        assert plain.iteration_end == recorded.iteration_end


class TestCollectiveTelemetry:
    def test_calls_and_bytes_counted(self):
        registry = telemetry_metrics.enable()
        ring_allreduce_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6)
        ring_allreduce_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6)
        counters = registry.snapshot()["counters"]
        assert counters[
            'collective_calls_total{algorithm="ring_allreduce"}'] == 2.0
        assert counters[
            'collective_bytes_total{algorithm="ring_allreduce"}'] \
            == 2.0 * 2**20

    def test_incast_degradation_counted(self):
        registry = telemetry_metrics.enable()
        allgather_time(2**20, p=8, bandwidth=1.25e9, alpha=25e-6,
                       incast_factor=1.5)
        counters = registry.snapshot()["counters"]
        assert counters[
            'collective_incast_degraded_total'
            '{algorithm="allgather"}'] == 1.0
