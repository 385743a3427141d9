"""One outcome type for every job kind.

Simulation, model-eval and advisor jobs all come back as
:class:`~repro.engine.JobOutcome`.  Each way a job can end — a cache
hit, an ok result, a simulated OOM, a per-member evaluation error, the
engine giving up — must read the same whichever kind of job it was.
"""

import pytest

from repro.compression.schemes import PowerSGDScheme, SignSGDScheme
from repro.core import PerfModelInputs, bandwidth_sweep
from repro.engine import (
    AdvisorShardJob,
    ExperimentEngine,
    JobOutcome,
    ModelEvalJob,
    SimJob,
    SimulationCache,
)
from repro.engine.engine import CHAOS_KILL_ENV
from repro.errors import ConfigurationError, EngineError, OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.units import gbps_to_bytes_per_s

INPUTS = PerfModelInputs(world_size=16,
                         bandwidth_bytes_per_s=gbps_to_bytes_per_s(10.0),
                         batch_size=32)

RUN = {
    "sim": ExperimentEngine.run_outcomes,
    "model": ExperimentEngine.run_model_outcomes,
    "advisor": ExperimentEngine.run_advisor_outcomes,
}


class BadPointScheme(PowerSGDScheme):
    """A scheme no point can be priced with: a configuration error."""

    def cost(self, model, world_size, profile):
        raise ConfigurationError("no such point")


def make_job(kind, model, scheme=None):
    """One small job of ``kind``."""
    scheme = scheme or PowerSGDScheme(rank=4)
    if kind == "sim":
        return SimJob(model=model, cluster=cluster_for_gpus(8),
                      scheme=scheme, batch_size=32, iterations=6, warmup=1)
    if kind == "model":
        return ModelEvalJob(model=model, scheme=scheme, inputs=INPUTS)
    return AdvisorShardJob(model=model, scheme=scheme, inputs=INPUTS,
                           world_size=16, bw_lo_gbps=1.0, bw_hi_gbps=40.0,
                           bw_points=64, start=0, count=16)


def run_one(kind, engine, job):
    return RUN[kind](engine, [job])[0]


def summary(outcome):
    """Every field but the job and its result, which are the kind's
    own; an evaluation error by its type, timings as zero or not."""
    error = outcome.error
    return {
        "type": type(outcome),
        "ok": outcome.ok,
        "failed": outcome.failed,
        "cached": outcome.cached,
        "oom": outcome.oom is not None,
        "error": error if error is None or isinstance(error, str)
        else type(error),
        "attempts": outcome.attempts,
        "exec_s > 0": outcome.exec_s > 0,
        "queue_wait_s >= 0": outcome.queue_wait_s >= 0,
    }


def expected(**changes):
    """The summary of a cold ok outcome, with ``changes``."""
    base = {"type": JobOutcome, "ok": True, "failed": False,
            "cached": False, "oom": False, "error": None, "attempts": 1,
            "exec_s > 0": True, "queue_wait_s >= 0": True}
    base.update(changes)
    return base


@pytest.mark.parametrize("kind", sorted(RUN))
def test_ok_then_cache_hit(kind, resnet50, tmp_path):
    job = make_job(kind, resnet50)
    cache = SimulationCache(str(tmp_path))
    cold = run_one(kind, ExperimentEngine(cache=cache), job)
    assert summary(cold) == expected()
    assert cold.unwrap() is cold.result
    cache.close()

    cache = SimulationCache(str(tmp_path))
    hit = run_one(kind, ExperimentEngine(cache=cache), job)
    assert summary(hit) == expected(cached=True, **{"exec_s > 0": False})
    assert (hit.exec_s, hit.queue_wait_s) == (0.0, 0.0)
    assert hit.job is job
    assert hit.result == cold.result
    cache.close()


def test_simulated_oom_cold_and_cached(bert_base, tmp_path):
    job = SimJob(model=bert_base, cluster=cluster_for_gpus(48),
                 scheme=SignSGDScheme(), batch_size=12, iterations=6,
                 warmup=2)
    cache = SimulationCache(str(tmp_path))
    engine = ExperimentEngine(cache=cache)
    cold = run_one("sim", engine, job)
    hit = run_one("sim", engine, job)
    assert summary(cold) == expected(ok=False, oom=True)
    assert summary(hit) == expected(ok=False, oom=True, cached=True,
                                    **{"exec_s > 0": False})
    assert cold.result is None and hit.result is None
    assert str(hit.oom) == str(cold.oom)
    with pytest.raises(OutOfMemoryError):
        hit.unwrap()
    assert engine.failures == 0
    cache.close()


@pytest.mark.parametrize("kind", ["model", "advisor"])
def test_evaluation_error_keeps_its_type(kind, resnet50, tmp_path):
    job = make_job(kind, resnet50, scheme=BadPointScheme(rank=4))
    cache = SimulationCache(str(tmp_path))
    engine = ExperimentEngine(cache=cache)
    for _ in range(2):  # never cached: the rerun evaluates again
        outcome = run_one(kind, engine, job)
        assert summary(outcome) == expected(
            ok=False, failed=True, error=ConfigurationError)
        with pytest.raises(ConfigurationError, match="no such point") \
                as raised:
            outcome.unwrap()
        assert raised.value is outcome.error
    assert engine.failures == 2
    cache.close()


def test_bad_whatif_point_raises_as_itself(resnet50):
    with pytest.raises(ConfigurationError, match="no such point"):
        bandwidth_sweep(resnet50, BadPointScheme(rank=4), [5.0, 10.0],
                        INPUTS, engine=ExperimentEngine())


@pytest.mark.parametrize("kind", sorted(RUN))
def test_engine_give_up(kind, resnet50, tmp_path, monkeypatch,
                        retry_policy):
    # The chaos hook SIGKILLs the pool worker that picks up the task;
    # with no retry budget the engine gives up on its first attempt.
    monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
    job = make_job(kind, resnet50)
    retry_policy(max_retries=0)
    engine = ExperimentEngine(jobs=2)
    outcome = run_one(kind, engine, job)
    assert (tmp_path / "kill.sentinel").exists()
    assert summary(outcome) == expected(
        ok=False, failed=True, error="a pool worker died",
        **{"exec_s > 0": False})
    assert outcome.result is None
    with pytest.raises(EngineError) as raised:
        outcome.unwrap()
    assert str(raised.value) == (f"{job.describe()} failed after 1 "
                                 f"attempt(s): a pool worker died")
    assert engine.failures == 1
