"""The fault subsystem's determinism contract (docs/faults.md).

Four guarantees: same schedule ⇒ same outcome regardless of execution
mode; fault draws never touch the jitter RNG; an empty schedule is
bit-identical to no schedule (including cache keys); a non-empty
schedule changes the cache key.
"""

import pytest

from repro.engine import ExperimentEngine, SimJob
from repro.faults import FaultSchedule, NodeFault, StragglerFault
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.simulator import DDPSimulator

#: Fault-free reference means (resnet50, 32 GPUs, batch 64,
#: iterations=30, warmup=5, seed 0) recorded before the fault subsystem
#: existed.  If these drift, attaching ``faults=None`` perturbed the
#: fault-free path — exactly the regression this file exists to catch.
SYNCSGD_REFERENCE_MEAN = 0.1701013147331283


def _schedule():
    return FaultSchedule(
        seed=3,
        stragglers=[StragglerFault(worker=0, slowdown=2.0,
                                   start_iteration=4,
                                   duration_iterations=4)],
        nodes=[NodeFault(node=0, factor=0.5, start_iteration=8)])


class TestScheduleDeterminism:
    def test_same_schedule_same_result(self, resnet50):
        cluster = cluster_for_gpus(8)
        runs = [
            DDPSimulator(resnet50, cluster, faults=_schedule()).run(
                batch_size=64, iterations=12, warmup=2)
            for _ in range(2)
        ]
        assert runs[0].sync_times == runs[1].sync_times
        assert runs[0].iteration_times == runs[1].iteration_times

    def test_serial_and_parallel_sweeps_identical(self, resnet50):
        jobs = [
            SimJob(model=resnet50, cluster=cluster_for_gpus(gpus),
                   faults=_schedule(), batch_size=64,
                   iterations=10, warmup=2)
            for gpus in (4, 8, 12, 16)
        ]
        serial = ExperimentEngine(jobs=1).run_outcomes(jobs)
        parallel = ExperimentEngine(jobs=2).run_outcomes(jobs)
        for s, p in zip(serial, parallel):
            assert s.unwrap().sync_times == p.unwrap().sync_times

    def test_empty_schedule_bit_identical_to_none(self, resnet50):
        cluster = cluster_for_gpus(32)
        protocol = dict(batch_size=64, iterations=30, warmup=5)
        bare = DDPSimulator(resnet50, cluster).run(**protocol)
        empty = DDPSimulator(resnet50, cluster,
                             faults=FaultSchedule()).run(**protocol)
        assert bare.sync_times == empty.sync_times
        assert bare.iteration_times == empty.iteration_times

    def test_fault_free_numerics_unchanged(self, resnet50):
        result = DDPSimulator(resnet50, cluster_for_gpus(32)).run(
            batch_size=64, iterations=30, warmup=5)
        assert result.mean == SYNCSGD_REFERENCE_MEAN


class TestCacheKeyBehaviour:
    def _job(self, model, **kwargs):
        return SimJob(model=model, cluster=cluster_for_gpus(8),
                      batch_size=64, iterations=12, warmup=2, **kwargs)

    def test_no_faults_and_empty_schedule_share_a_key(self, resnet50):
        bare = self._job(resnet50)
        empty = self._job(resnet50, faults=FaultSchedule())
        assert bare.fingerprint() == empty.fingerprint()

    def test_empty_schedule_seed_does_not_leak_into_key(self, resnet50):
        # A schedule with nothing to inject is the identity no matter
        # its seed; only actual faults may change the key.
        assert (self._job(resnet50, faults=FaultSchedule(seed=99))
                .fingerprint()
                == self._job(resnet50).fingerprint())

    def test_nonempty_schedule_changes_the_key(self, resnet50):
        assert (self._job(resnet50, faults=_schedule()).fingerprint()
                != self._job(resnet50).fingerprint())

    def test_different_schedules_key_differently(self, resnet50):
        a = self._job(resnet50, faults=_schedule())
        b = self._job(resnet50, faults=FaultSchedule(
            seed=3, stragglers=[StragglerFault(worker=0, slowdown=2.5)]))
        assert a.fingerprint() != b.fingerprint()

    def test_schedule_seed_is_part_of_the_key(self, resnet50):
        mk = lambda seed: self._job(resnet50, faults=FaultSchedule(  # noqa: E731
            seed=seed,
            stragglers=[StragglerFault(worker=0, slowdown=2.0)]))
        assert mk(1).fingerprint() != mk(2).fingerprint()

    def test_faulted_results_cached_separately(self, resnet50, tmp_path,
                                               open_cache):
        engine = ExperimentEngine(cache=open_cache(tmp_path))
        bare = self._job(resnet50)
        faulted = self._job(resnet50, faults=_schedule())
        first = engine.run_outcomes([bare, faulted])
        second = engine.run_outcomes([bare, faulted])
        assert all(o.cached for o in second)
        assert second[0].unwrap().mean == first[0].unwrap().mean
        assert second[1].unwrap().mean == first[1].unwrap().mean
        assert first[0].unwrap().mean != first[1].unwrap().mean


class TestRetransmitRNGIsolation:
    def test_jitter_unperturbed_by_retransmit_policy(self, resnet50):
        # drop_rate 0 means the policy never draws; the run must be
        # bit-identical to fault-free even though a schedule is attached
        # and resolved every iteration.
        from repro.faults import RetransmitFault
        cluster = cluster_for_gpus(8)
        bare = DDPSimulator(resnet50, cluster).run(
            batch_size=64, iterations=10, warmup=2)
        armed = DDPSimulator(resnet50, cluster, faults=FaultSchedule(
            retransmits=[RetransmitFault(drop_rate=0.0)])).run(
            batch_size=64, iterations=10, warmup=2)
        assert bare.sync_times == armed.sync_times
