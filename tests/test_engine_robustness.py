"""Engine survival of its own failures: crashes, bad cache.

The chaos hook (``REPRO_CHAOS_KILL_ONCE``) makes a *real* pool worker
die exactly once, which is the only honest way to test the recovery
path — monkeypatching the executor never exercises
``BrokenProcessPool``.  A hung worker is not timed out: it hangs its
dispatch, so nothing here tests one.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis import SweepSpec, advise
from repro.compression.schemes import PowerSGDScheme
from repro.engine import ExperimentEngine, SimJob
from repro.engine.engine import CHAOS_KILL_ENV
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
        for jobs in (0, -1):
            with pytest.raises(ConfigurationError):
                ExperimentEngine(jobs=jobs)


class TestSerialRetry:
    def test_transient_failure_is_retried(self, singleton_jobs,
                                          monkeypatch, retry_policy):
        calls = {"n": 0}
        real = SimJob.evaluate

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient blip")
            return real(job)

        monkeypatch.setattr(SimJob, "evaluate", flaky)
        retry_policy(max_retries=2)
        engine = ExperimentEngine()
        outcomes = engine.run_outcomes(singleton_jobs[:2])
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2
        assert outcomes[1].attempts == 1
        assert engine.stats().retries == 1
        assert engine.stats().failures == 0

    def test_permanent_failure_degrades_not_raises(self, singleton_jobs,
                                                   monkeypatch,
                                                   retry_policy):
        def doomed(job):
            raise RuntimeError("the disk is on fire")

        monkeypatch.setattr(SimJob, "evaluate", doomed)
        retry_policy(max_retries=1)
        engine = ExperimentEngine()
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

    def test_zero_retries_fails_immediately(self, small_jobs, monkeypatch,
                                            retry_policy):
        monkeypatch.setattr(
            SimJob, "evaluate",
            lambda job: (_ for _ in ()).throw(RuntimeError("boom")))
        retry_policy(max_retries=0)
        engine = ExperimentEngine()
        outcomes = engine.run_outcomes(small_jobs[:1])
        assert outcomes[0].failed and outcomes[0].attempts == 1
        assert engine.stats().retries == 0

    def test_family_failure_is_retried_wholesale(self, small_jobs,
                                                 monkeypatch, retry_policy):
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
        retry_policy(max_retries=2)
        engine = ExperimentEngine()
        outcomes = engine.run_outcomes(small_jobs)
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert engine.stats().retries == 1
        assert engine.stats().failures == 0
        assert engine.jobs_batched == len(small_jobs)

    def test_failures_are_never_cached(self, small_jobs, monkeypatch,
                                       tmp_path, open_cache, retry_policy):
        monkeypatch.setattr(
            SimJob, "evaluate",
            lambda job: (_ for _ in ()).throw(RuntimeError("boom")))
        cache = open_cache(tmp_path)
        retry_policy(max_retries=0)
        engine = ExperimentEngine(cache=cache)
        engine.run_outcomes(small_jobs[:1])
        assert cache.stats.stores == 0
        # A later, healthy engine re-executes and succeeds.
        monkeypatch.undo()
        healthy = ExperimentEngine(cache=cache)
        assert healthy.run_outcomes(small_jobs[:1])[0].ok


class TestChaosKill:
    def test_sweep_survives_a_dying_worker(self, small_jobs, tmp_path,
                                           monkeypatch, retry_policy):
        serial = ExperimentEngine().run_outcomes(small_jobs)
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        retry_policy()
        engine = ExperimentEngine(jobs=2)
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

    def test_advise_survives_a_dying_worker(self, resnet50, tmp_path,
                                            monkeypatch, retry_policy):
        # One candidate is one shard family, so one pooled task: the
        # kill breaks the pool once and the task retries once, in a
        # rebuilt pool that must have been handed the spec table too.
        kwargs = dict(candidates=[PowerSGDScheme(rank=4)],
                      spec=SweepSpec(bandwidth_points=64, shard_points=16))
        serial = advise(resnet50, cluster_for_gpus(16), **kwargs).render()
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        retry_policy()
        engine = ExperimentEngine(jobs=2)
        report = advise(resnet50, cluster_for_gpus(16), engine=engine,
                        **kwargs)
        assert (tmp_path / "kill.sentinel").exists()
        assert engine.retries == 1
        assert engine.failures == 0
        assert report.render() == serial

    def test_kill_with_no_retry_budget_degrades(self, small_jobs,
                                                tmp_path, monkeypatch,
                                                retry_policy):
        monkeypatch.setenv(CHAOS_KILL_ENV, str(tmp_path / "kill.sentinel"))
        retry_policy(max_retries=0)
        engine = ExperimentEngine(jobs=2)
        outcomes = engine.run_outcomes(small_jobs)
        failed = [o for o in outcomes if o.failed]
        assert failed  # the killed worker's jobs gave up
        assert any("worker died" in o.error for o in failed)
        assert engine.stats().failures == len(failed)
        # Every outcome is accounted for: ok or failed, never missing.
        assert all(o.ok or o.failed for o in outcomes)


class TestOnePolicy:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the flaky evaluate")
    @pytest.mark.parametrize("seed", range(3))
    def test_serial_and_pooled_retries_agree(self, seed, tiny_model,
                                             tmp_path, monkeypatch,
                                             retry_policy):
        """Each job runs as its own task and fails its first ``f``
        executions, ``f`` in 0..3.  Failures are claimed through
        ``O_CREAT | O_EXCL`` sentinel files, so they count across pool
        processes; serial and pooled engines give every job the same
        status and attempts, and count the same retries and failures."""
        rng = np.random.default_rng([34, seed])
        fails = {4 + k: int(f) for k, f in
                 enumerate(rng.permutation([0, 1, 2, 3, *rng.integers(
                     0, 4, size=3)]))}
        jobs = [SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                       batch_size=batch_size, iterations=6, warmup=1)
                for batch_size in fails]
        real = SimJob.evaluate
        sentinels = {}

        def flaky(job):
            for k in range(fails[job.batch_size]):
                path = os.path.join(sentinels["dir"],
                                    f"{job.batch_size}-{k}")
                try:
                    os.close(os.open(path, os.O_CREAT | os.O_EXCL
                                     | os.O_WRONLY))
                except FileExistsError:
                    continue
                raise RuntimeError(f"failure {k + 1} of {job.batch_size}")
            return real(job)

        monkeypatch.setattr(SimJob, "evaluate", flaky)
        retry_policy(max_retries=2)
        runs = []
        for workers in (1, 2):
            sentinels["dir"] = str(tmp_path / f"jobs{workers}")
            os.mkdir(sentinels["dir"])
            engine = ExperimentEngine(jobs=workers)
            outcomes = engine.run_outcomes(jobs)
            runs.append(([(o.ok, o.failed, o.attempts) for o in outcomes],
                         engine.retries, engine.failures))
        expected = ([(f < 3, f == 3, min(f, 2) + 1) for f in fails.values()],
                    sum(min(f, 2) for f in fails.values()),
                    sum(f == 3 for f in fails.values()))
        assert runs == [expected, expected]


class TestCorruptCacheEntries:
    def _store_one(self, cache, job):
        engine = ExperimentEngine(cache=cache)
        engine.run_outcomes([job])
        return job.fingerprint()

    def test_corrupt_pack_record_missed_and_reexecuted(self, tiny_model,
                                                        tmp_path, open_cache):
        cache = open_cache(tmp_path)
        job = SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                     batch_size=4, iterations=6, warmup=1)
        key = self._store_one(cache, job)
        expected = cache.get(key)
        location = cache.packs.index[key]
        cache.close()
        # Garbage over the record's bytes, its length and newline kept,
        # so only reading the record back can tell.
        segment = tmp_path / location.segment
        raw = bytearray(segment.read_bytes())
        garbage = b"{ truncated garbag".ljust(location.length - 1, b"?")
        raw[location.offset:location.offset + location.length - 1] = garbage
        segment.write_bytes(bytes(raw))

        fresh = open_cache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        # The engine treats it as a miss and re-stores it to the pack.
        engine = ExperimentEngine(cache=fresh)
        outcome = engine.run_outcomes([job])[0]
        assert outcome.ok and outcome.result == expected
        assert engine.executed == 1
        fresh.close()
        again = open_cache(tmp_path)
        assert again.get(key) == expected
        assert again.verify()["corrupt"] == 0

    def test_missing_entry_is_a_plain_miss(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        assert cache.get("0" * 64) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.verify()["entries"] == 0

    def test_healthy_describe_unchanged(self, tmp_path, open_cache):
        cache = open_cache(tmp_path)
        cache.get("0" * 64)
        assert cache.stats.describe() == "0 hits / 1 misses (0% hit rate)"
