"""Experiment engine: parallel fan-out must be invisible in results."""

import pytest

from repro.compression.schemes import (
    PowerSGDScheme,
    SignSGDScheme,
    TopKScheme,
)
from repro.engine import ExperimentEngine, SimJob
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.experiments.scaling import run_scaling_sweep
from repro.hardware import cluster_for_gpus
from repro.models import get_model


@pytest.fixture(scope="module")
def small_grid():
    """A mixed batch: two models, three schemes, one OOM point."""
    rn50 = get_model("resnet50")
    bert = get_model("bert-base")
    jobs = [
        SimJob(model=rn50, cluster=cluster_for_gpus(8),
               scheme=scheme, batch_size=64, iterations=8, warmup=2)
        for scheme in (None, PowerSGDScheme(4), TopKScheme(0.01))
    ]
    jobs.append(SimJob(model=bert, cluster=cluster_for_gpus(16),
                       scheme=PowerSGDScheme(4), batch_size=12,
                       iterations=8, warmup=2))
    jobs.append(SimJob(model=bert, cluster=cluster_for_gpus(48),
                       scheme=SignSGDScheme(), batch_size=12,
                       iterations=8, warmup=2))  # deterministic OOM
    return jobs


def _comparable(outcomes):
    """Project outcomes onto (describe, sync_times | oom bytes)."""
    rows = []
    for outcome in outcomes:
        if outcome.oom is not None:
            rows.append((outcome.job.describe(), "oom",
                         outcome.oom.required_bytes))
        else:
            rows.append((outcome.job.describe(),
                         outcome.result.sync_times))
    return rows


class TestParallelEquivalence:
    def test_parallel_rows_identical_to_serial(self, small_grid):
        serial = ExperimentEngine(jobs=1).run_outcomes(small_grid)
        fanned = ExperimentEngine(jobs=4).run_outcomes(small_grid)
        assert _comparable(serial) == _comparable(fanned)

    def test_parallel_with_cache_identical(self, small_grid, tmp_path,
                                           open_cache):
        serial = ExperimentEngine().run_outcomes(small_grid)
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(jobs=4, cache=cache)
        cold = engine.run_outcomes(small_grid)
        warm = engine.run_outcomes(small_grid)
        assert _comparable(cold) == _comparable(serial)
        assert _comparable(warm) == _comparable(serial)
        assert all(o.cached for o in warm)
        assert cache.stats.hits == len(small_grid)
        assert engine.executed == len(small_grid)  # cold misses only

    def test_scaling_sweep_engine_matches_default(self):
        kwargs = dict(
            experiment_id="t", title="t",
            schemes=[PowerSGDScheme(4)],
            workloads=[("resnet50", 64)], gpu_counts=[8, 16],
            iterations=6, warmup=1)
        default = run_scaling_sweep(**kwargs)
        fanned = run_scaling_sweep(
            engine=ExperimentEngine(jobs=2), **kwargs)
        assert default.rows == fanned.rows
        assert default.notes == fanned.notes

    def test_outcomes_preserve_input_order(self, small_grid):
        outcomes = ExperimentEngine(jobs=4).run_outcomes(small_grid)
        assert [o.job.describe() for o in outcomes] \
            == [j.describe() for j in small_grid]


class TestEngineProtocol:
    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(jobs=0)

    def test_run_raises_cached_oom(self, small_grid):
        oom_job = small_grid[-1]
        engine = ExperimentEngine()
        with pytest.raises(OutOfMemoryError):
            engine.run(oom_job)

    def test_invalid_job_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            SimJob(model=get_model("resnet50"),
                   cluster=cluster_for_gpus(8), iterations=5, warmup=5)

    def test_empty_batch(self):
        assert ExperimentEngine(jobs=4).run_outcomes([]) == []

    def test_busy_and_executed_counters(self, small_grid):
        engine = ExperimentEngine()
        engine.run_outcomes(small_grid)
        assert engine.executed == len(small_grid)
        assert engine.busy_s > 0.0
