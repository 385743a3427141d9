"""Batch kernel vs event loop under every fault kind.

The companion to ``tests/test_batch_equivalence.py``: that module pins
fault-free runs, this one pins the fault masks.  The contract is the
same — exact ``TimingResult``
equality (no ``approx``), same RNG stream consumption, same IEEE-754
operation order — now across stragglers, degraded/flapping links, NIC
faults, retransmit storms, and crashes with both recovery policies, on
every execution path (bucketed baseline, sequential compression,
overlapped compression) and every allreduce algorithm.  Plus the
cross-config dimension: ``run_batch_many`` stacking several runs into
one kernel call, and the engine's automatic family batching of
cache-missing ``SimJob``s.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import (
    allgather_time,
    allgather_time_batch,
    ring_allreduce_time,
    ring_allreduce_time_batch,
)
from repro.compression import (
    FP16Scheme,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.engine import ExperimentEngine, SimJob
from repro.errors import ConfigurationError
from repro.faults import (
    CrashFault,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.hardware import P3_2XLARGE, ClusterConfig, cluster_for_gpus
from repro.models import get_model
from repro.simulator import DDPConfig, DDPSimulator
from repro.simulator.batch import run_batch_many

from .oracle import event_run


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


#: One schedule per fault kind, plus a kitchen sink that composes them.
SCHEDULES = {
    "straggler-windowed": FaultSchedule(
        seed=7,
        stragglers=[StragglerFault(worker=0, slowdown=2.0,
                                   start_iteration=3,
                                   duration_iterations=6)]),
    "link-flap": FaultSchedule(
        seed=7,
        links=[LinkFault(node_a=0, node_b=1, factor=0.3,
                         start_iteration=2, duration_iterations=3,
                         period_iterations=6)]),
    "nic-straggler": FaultSchedule(
        seed=7,
        nodes=[NodeFault(node=0, factor=0.25, start_iteration=1)]),
    "retransmit-storm": FaultSchedule(
        seed=7,
        retransmits=[RetransmitFault(drop_rate=0.3, timeout_s=1e-3,
                                     backoff=3.0, max_retries=4)]),
    "crash-restart": FaultSchedule(
        seed=7,
        crashes=[CrashFault(worker=1, at_iteration=4,
                            recovery="restart", stall_s=0.5)]),
    "crash-elastic": FaultSchedule(
        seed=7,
        crashes=[CrashFault(worker=1, at_iteration=4,
                            recovery="elastic")]),
    "kitchen-sink": FaultSchedule(
        seed=11,
        stragglers=[StragglerFault(worker=0, slowdown=1.7,
                                   start_iteration=0)],
        nodes=[NodeFault(node=0, factor=0.5, start_iteration=5)],
        retransmits=[RetransmitFault(drop_rate=0.2)],
        crashes=[CrashFault(worker=2, at_iteration=6,
                            recovery="elastic")]),
}

SCHEMES = {
    "syncsgd": SyncSGDScheme,
    "powersgd": lambda: PowerSGDScheme(rank=4),
    "topk": lambda: TopKScheme(fraction=0.01),
    "signsgd": SignSGDScheme,
    "fp16": FP16Scheme,
}


def make_sim(model, scheme, gpus=8, config=None, faults=None):
    return DDPSimulator(model, cluster_for_gpus(gpus), scheme=scheme,
                        config=config, faults=faults)


def run_both(model, scheme_fn, faults, gpus=8, config=None,
             iterations=14, warmup=3, seed=3):
    """The event oracle and ``run()`` on separate simulators; returns
    both results and both simulators (for counter inspection)."""
    sim_e = make_sim(model, scheme_fn(), gpus, config, faults)
    sim_b = make_sim(model, scheme_fn(), gpus, config, faults)
    event = event_run(sim_e, iterations=iterations, warmup=warmup,
                      seed=seed)
    batch = sim_b.run(iterations=iterations, warmup=warmup, seed=seed)
    return event, batch, sim_e, sim_b


class TestFaultedBitIdentity:
    """Exact TimingResult equality, schedule x scheme x path."""

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_every_schedule_and_scheme(self, rn50, sched_name,
                                       scheme_name):
        event, batch, sim_e, sim_b = run_both(
            rn50, SCHEMES[scheme_name], SCHEDULES[sched_name])
        assert event == batch
        assert (sim_e.injector.retransmits_injected,
                sim_e.injector.retransmit_delay_s) == \
            (sim_b.injector.retransmits_injected,
             sim_b.injector.retransmit_delay_s)

    @pytest.mark.parametrize("gpus", [8, 16, 32])
    def test_world_sizes(self, rn50, gpus):
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES["kitchen-sink"],
            gpus=gpus)
        assert event == batch

    @pytest.mark.parametrize("algo", ["ring", "double_tree",
                                      "hierarchical",
                                      "parameter_server"])
    @pytest.mark.parametrize("scheme_name", ["syncsgd", "powersgd"])
    def test_every_allreduce_algorithm(self, rn50, algo, scheme_name):
        config = DDPConfig(allreduce_algorithm=algo)
        event, batch, _, _ = run_both(
            rn50, SCHEMES[scheme_name], SCHEDULES["nic-straggler"],
            config=config)
        assert event == batch

    @pytest.mark.parametrize("sched_name",
                             ["nic-straggler", "retransmit-storm",
                              "crash-elastic", "kitchen-sink"])
    def test_overlapped_compression_path(self, rn50, sched_name):
        config = DDPConfig(overlap_compression=True)
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES[sched_name],
            config=config)
        assert event == batch

    def test_zero_jitter_faulted(self, rn50):
        config = DDPConfig(compute_jitter=0.0, comm_jitter=0.0)
        event, batch, _, _ = run_both(
            rn50, SCHEMES["powersgd"], SCHEDULES["kitchen-sink"],
            config=config)
        assert event == batch

    @pytest.mark.parametrize("overlap", [False, True])
    def test_elastic_crash_to_world_of_one(self, rn50, overlap):
        """The hardest presence case: the collective draw disappears
        mid-run when the second-to-last worker leaves."""
        cluster = ClusterConfig(P3_2XLARGE, num_nodes=2)
        faults = FaultSchedule(crashes=[
            CrashFault(worker=1, at_iteration=5, recovery="elastic")])
        config = DDPConfig(overlap_compression=overlap)
        sim_e = DDPSimulator(rn50, cluster, scheme=PowerSGDScheme(rank=4),
                             config=config, faults=faults)
        sim_b = DDPSimulator(rn50, cluster, scheme=PowerSGDScheme(rank=4),
                             config=config, faults=faults)
        assert event_run(sim_e, iterations=12, warmup=2, seed=9) == \
            sim_b.run(iterations=12, warmup=2, seed=9)

    def test_retransmit_counters_match_event_exactly(self, rn50):
        event, batch, sim_e, sim_b = run_both(
            rn50, SCHEMES["syncsgd"], SCHEDULES["retransmit-storm"])
        assert event == batch
        assert sim_e.injector.retransmits_injected > 0
        assert sim_b.injector.retransmits_injected == \
            sim_e.injector.retransmits_injected
        # Bitwise, not approx: the batch path rebuilds the event
        # loop's sequential accumulation order.
        assert sim_b.injector.retransmit_delay_s == \
            sim_e.injector.retransmit_delay_s


class TestRunBatchMany:
    """The cross-config batch dimension: many runs, one kernel call."""

    def _sims(self, rn50, schedules, gpus=16):
        return [make_sim(rn50, PowerSGDScheme(rank=4), gpus,
                         faults=faults) for faults in schedules]

    def test_stacked_members_match_individual_event_runs(self, rn50):
        schedules = [None, SCHEDULES["nic-straggler"],
                     SCHEDULES["straggler-windowed"]]
        got = run_batch_many(self._sims(rn50, schedules),
                             iterations=14, warmup=3, seeds=(3, 3, 3))
        for faults, result in zip(schedules, got):
            ref = event_run(make_sim(rn50, PowerSGDScheme(rank=4), 16,
                                     faults=faults),
                            iterations=14, warmup=3, seed=3)
            assert result == ref

    def test_member_seeds_are_independent(self, rn50):
        faults = SCHEDULES["nic-straggler"]
        got = run_batch_many(self._sims(rn50, [faults, faults]),
                             iterations=14, warmup=3, seeds=(3, 9))
        for seed, result in zip((3, 9), got):
            ref = event_run(make_sim(rn50, PowerSGDScheme(rank=4), 16,
                                     faults=faults),
                            iterations=14, warmup=3, seed=seed)
            assert result == ref

    def test_mismatched_members_rejected(self, rn50):
        sims = [make_sim(rn50, PowerSGDScheme(rank=4), 16),
                make_sim(rn50, PowerSGDScheme(rank=4), 32)]
        with pytest.raises(ConfigurationError, match="share"):
            run_batch_many(sims, iterations=12, warmup=2, seeds=(0, 0))

    def test_seed_count_must_match(self, rn50):
        sims = [make_sim(rn50, PowerSGDScheme(rank=4), 16)]
        with pytest.raises(ConfigurationError, match="seeds"):
            run_batch_many(sims, iterations=12, warmup=2, seeds=(0, 1))

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch_many([], iterations=12, warmup=2, seeds=())


class TestEngineFamilyBatching:
    """The engine stacks cache-missing jobs that differ only in faults
    and seed into one kernel call — outcomes must be unchanged."""

    def _jobs(self, rn50):
        jobs = []
        for faults in (None, SCHEDULES["nic-straggler"],
                       SCHEDULES["straggler-windowed"]):
            for gpus in (8, 16):
                jobs.append(SimJob(
                    model=rn50, cluster=cluster_for_gpus(gpus),
                    scheme=PowerSGDScheme(rank=4), iterations=14,
                    warmup=3, faults=faults))
        return jobs

    def test_family_key_ignores_faults_and_seed(self, rn50):
        base = SimJob(model=rn50, cluster=cluster_for_gpus(8),
                      scheme=PowerSGDScheme(rank=4))
        assert base.family_key() == replace(
            base, faults=SCHEDULES["nic-straggler"],
            seed=42).family_key()
        assert base.family_key() != replace(
            base, iterations=60).family_key()

    def _unbatched(self, rn50):
        # One job per batch: every family is a singleton, evaluated
        # through SimJob.evaluate instead of the stacked kernel.
        reference = ExperimentEngine()
        ref = [reference.run_outcomes([job])[0].unwrap()
               for job in self._jobs(rn50)]
        assert reference.jobs_batched == 0
        return ref

    def test_outcomes_identical_to_unbatched_engine(self, rn50):
        batched = ExperimentEngine()
        got = [o.unwrap() for o in batched.run_outcomes(self._jobs(rn50))]
        assert got == self._unbatched(rn50)
        assert batched.jobs_batched == 6

    def test_pooled_families_identical(self, rn50):
        pooled = ExperimentEngine(jobs=2)
        got = [o.unwrap() for o in pooled.run_outcomes(self._jobs(rn50))]
        assert got == self._unbatched(rn50)
        assert pooled.jobs_batched == 6

    def test_stats_report_jobs_batched(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(self._jobs(rn50))
        stats = engine.stats()
        assert stats.jobs_batched == 6
        assert stats.to_dict()["jobs_batched"] == 6


class TestVectorizedFaultPrimitives:
    """Array bandwidth / incast overloads of the batch collectives."""

    def test_ring_batch_accepts_bandwidth_array(self):
        payloads = np.array([1.0, 25e6, 1e9])
        bws = np.array([10e9, 2.5e9, 10e9])
        batch = ring_allreduce_time_batch(payloads, 8, bws, 5e-6)
        scalar = [ring_allreduce_time(float(b), 8, float(bw), 5e-6)
                  for b, bw in zip(payloads, bws)]
        assert batch.tolist() == scalar

    def test_allgather_batch_accepts_arrays(self):
        payloads = np.array([4096.0, 3e7, 1e9])
        bws = np.array([25e9, 5e9, 25e9])
        incasts = np.array([1.0, 1.5, 2.0])
        batch = allgather_time_batch(payloads, 16, bws, 2e-6,
                                     incast_factor=incasts)
        scalar = [allgather_time(float(b), 16, float(bw), 2e-6,
                                 incast_factor=float(ic))
                  for b, bw, ic in zip(payloads, bws, incasts)]
        assert batch.tolist() == scalar

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time_batch(np.array([1e6]), 8,
                                      np.array([0.0]), 5e-6)

    def test_incast_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            allgather_time_batch(np.array([1e6]), 8, 10e9, 2e-6,
                                 incast_factor=np.array([0.5]))
