"""Engine survival of its own failures: crashes, timeouts, bad cache.

The chaos hooks (``REPRO_CHAOS_*``) make a *real* pool worker die or
hang exactly once, which is the only honest way to test the recovery
path — monkeypatching the executor never exercises
``BrokenProcessPool``.
"""

import time

import pytest

from repro.engine import ExperimentEngine, SimJob, SimulationCache
from repro.engine.engine import CHAOS_KILL_ENV, CHAOS_SLEEP_ENV
from repro.errors import ConfigurationError, EngineError
from repro.hardware import cluster_for_gpus


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
    # runs as its own task through the retry loop under test.
    return [
        SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
               batch_size=batch_size, iterations=6, warmup=1)
        for batch_size in (4, 5, 6)
    ]


class TestPolicyValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ExperimentEngine(retry_backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            ExperimentEngine(job_timeout_s=0)


class TestSerialRetry:
    def test_transient_failure_is_retried(self, singleton_jobs,
                                          monkeypatch):
        calls = {"n": 0}
        real = SimJob.evaluate

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blip")
            return real(job)

        monkeypatch.setattr(SimJob, "evaluate", flaky)
        engine = ExperimentEngine(max_retries=2, retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(singleton_jobs[:2])
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2
        assert outcomes[1].attempts == 1
        assert engine.stats().retries == 1
        assert engine.stats().failures == 0

    def test_permanent_failure_degrades_not_raises(self, singleton_jobs,
                                                   monkeypatch):
        def doomed(job):
            raise RuntimeError("the disk is on fire")

        monkeypatch.setattr(SimJob, "evaluate", doomed)
        engine = ExperimentEngine(max_retries=1, retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(singleton_jobs)
        assert all(o.failed for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert "the disk is on fire" in outcomes[0].error
        stats = engine.stats()
        assert stats.failures == 3
        assert stats.retries == 3
        with pytest.raises(EngineError, match="after 2 attempt"):
            outcomes[0].unwrap()
        assert ", 3 retried, 3 failed" in stats.describe()

    def test_zero_retries_fails_immediately(self, small_jobs, monkeypatch):
        monkeypatch.setattr(
            SimJob, "evaluate",
            lambda job: (_ for _ in ()).throw(RuntimeError("boom")))
        engine = ExperimentEngine(max_retries=0)
        outcomes = engine.run_outcomes(small_jobs[:1])
        assert outcomes[0].failed and outcomes[0].attempts == 1
        assert engine.stats().retries == 0

    def test_family_failure_is_retried_wholesale(self, small_jobs,
                                                 monkeypatch):
        # Jobs differing only by seed batch into one kernel family;
        # an unexpected failure there retries the whole family.
        import repro.simulator.batch as batch_module
        calls = {"n": 0}
        real = batch_module.run_batch_many

        def flaky(sims, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient kernel blip")
            return real(sims, *args, **kwargs)

        monkeypatch.setattr(batch_module, "run_batch_many", flaky)
        engine = ExperimentEngine(max_retries=2, retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(small_jobs)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert engine.stats().retries == 1
        assert engine.stats().failures == 0
        assert engine.jobs_batched == len(small_jobs)

    def test_failures_are_never_cached(self, small_jobs, monkeypatch,
                                       tmp_path):
        monkeypatch.setattr(
            SimJob, "evaluate",
            lambda job: (_ for _ in ()).throw(RuntimeError("boom")))
        cache = SimulationCache(tmp_path)
        engine = ExperimentEngine(cache=cache, max_retries=0)
        engine.run_outcomes(small_jobs[:1])
        assert cache.stats.stores == 0
        # A later, healthy engine re-executes and succeeds.
        monkeypatch.undo()
        healthy = ExperimentEngine(cache=cache)
        assert healthy.run_outcomes(small_jobs[:1])[0].ok


class TestChaosKill:
    def test_sweep_survives_a_dying_worker(self, small_jobs, tmp_path,
                                           monkeypatch):
        serial = ExperimentEngine().run_outcomes(small_jobs)
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        engine = ExperimentEngine(jobs=2, retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(small_jobs)
        assert all(o.ok for o in outcomes)
        stats = engine.stats()
        assert stats.retries >= 1
        assert stats.failures == 0
        # The recovered sweep is numerically identical to serial.
        for s, p in zip(serial, outcomes):
            assert s.unwrap().sync_times == p.unwrap().sync_times
        # At least one job needed more than one attempt.
        assert max(o.attempts for o in outcomes) >= 2

    def test_kill_with_no_retry_budget_degrades(self, small_jobs,
                                                tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        engine = ExperimentEngine(jobs=2, max_retries=0,
                                  retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(small_jobs)
        failed = [o for o in outcomes if o.failed]
        assert failed  # the killed worker's jobs gave up
        assert any("worker died" in o.error for o in failed)
        assert engine.stats().failures == len(failed)
        # Every outcome is accounted for: ok or failed, never missing.
        assert all(o.ok or o.failed for o in outcomes)


class TestTimeout:
    def test_hung_job_is_timed_out(self, small_jobs, tmp_path,
                                   monkeypatch):
        monkeypatch.setenv(
            CHAOS_SLEEP_ENV, f"{tmp_path / 'sleep.sentinel'}:30")
        engine = ExperimentEngine(jobs=2, max_retries=0,
                                  job_timeout_s=1.5,
                                  retry_backoff_s=0.0)
        start = time.perf_counter()
        outcomes = engine.run_outcomes(small_jobs)
        wall = time.perf_counter() - start
        assert wall < 15, "timeout did not fire; waited on the sleeper"
        stats = engine.stats()
        assert stats.timeouts == 1
        assert stats.failures == 1
        timed_out = [o for o in outcomes if o.failed]
        assert len(timed_out) == 1
        assert "timed out after 1.5 s" in timed_out[0].error
        assert sum(o.ok for o in outcomes) == len(small_jobs) - 1

    def test_hung_job_retried_when_budget_allows(self, small_jobs,
                                                 tmp_path, monkeypatch):
        # The sentinel claims once: the retry execution runs clean.
        monkeypatch.setenv(
            CHAOS_SLEEP_ENV, f"{tmp_path / 'sleep.sentinel'}:30")
        engine = ExperimentEngine(jobs=2, max_retries=1,
                                  job_timeout_s=1.5,
                                  retry_backoff_s=0.0)
        outcomes = engine.run_outcomes(small_jobs)
        assert all(o.ok for o in outcomes)
        stats = engine.stats()
        assert stats.timeouts == 1
        assert stats.retries >= 1
        assert stats.failures == 0


class TestCacheQuarantine:
    def _store_one(self, cache, job):
        engine = ExperimentEngine(cache=cache)
        engine.run_outcomes([job])
        return job.fingerprint()

    def test_corrupt_entry_quarantined_and_reexecuted(self, tiny_model,
                                                      tmp_path):
        cache = SimulationCache(tmp_path)
        job = SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                     batch_size=4, iterations=6, warmup=1)
        key = self._store_one(cache, job)
        cache.close()
        # Strip the pack tier so the directory looks like a legacy-era
        # cache whose only copy of the entry is the corrupt per-key file.
        for pack_file in tmp_path.glob("pack-*"):
            pack_file.unlink()
        entry = tmp_path / f"{key}.json"
        entry.write_text("{ truncated garbag")

        fresh = SimulationCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.quarantined == 1
        assert not entry.exists()
        assert (tmp_path / "quarantine" / f"{key}.json").exists()
        assert "1 quarantined" in fresh.stats.describe()
        # The engine treats it as a miss and repopulates.
        engine = ExperimentEngine(cache=fresh)
        assert engine.run_outcomes([job])[0].ok
        assert fresh.get(key) is not None

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = SimulationCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats.quarantined == 0
        assert not (tmp_path / "quarantine").exists()

    def test_healthy_describe_unchanged(self, tmp_path):
        cache = SimulationCache(tmp_path)
        cache.get("0" * 64)
        assert "quarantined" not in cache.stats.describe()
