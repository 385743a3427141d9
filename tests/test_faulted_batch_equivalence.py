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

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import ring_allreduce_time
from repro.compression import (
    FP16Scheme,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.engine import ExperimentEngine, SimJob
from repro.engine.engine import _SIM_KIND
from repro.errors import ConfigurationError
from repro.faults import (
    CrashFault,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.compression.kernel_cost import v100_kernel_profile
from repro.hardware import (
    A100,
    P3_2XLARGE,
    P3_8XLARGE,
    ClusterConfig,
    cluster_for_gpus,
)
from repro.models import get_model, mlp_model
from repro.network import Fabric
from repro.simulator import DDPConfig, DDPSimulator
from repro.simulator.batch import run_batch_many

from .oracle import event_run
from .oracle import ring_allreduce_time as ring_oracle


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

    @staticmethod
    def _reject(sims, differs):
        with pytest.raises(ConfigurationError, match=differs):
            run_batch_many(sims, iterations=12, warmup=2,
                           seeds=(0,) * len(sims))

    def test_clusters_differing_in_nic_rejected(self, rn50):
        # 16 GPUs at 25 and at 1 Gbit/s: the second member used to get
        # the first one's bandwidth (a mean of 0.226 s, not 1.627 s).
        sims = [DDPSimulator(rn50, ClusterConfig(
                    instance=P3_8XLARGE.with_network_gbps(gbps),
                    num_nodes=4))
                for gbps in (25, 1)]
        self._reject(sims, "cluster")

    def test_clusters_differing_in_gpu_rejected(self, rn50):
        sims = [DDPSimulator(rn50, ClusterConfig(instance=instance,
                                                 num_nodes=4))
                for instance in (P3_8XLARGE,
                                 P3_8XLARGE.with_gpu(A100))]
        self._reject(sims, "cluster")

    def test_models_sharing_a_name_rejected(self):
        cluster = cluster_for_gpus(8)
        sims = [DDPSimulator(mlp_model("x", 64, hidden, 10), cluster)
                for hidden in ((32,), (4096, 4096))]
        self._reject(sims, "model")

    def test_schemes_sharing_a_label_rejected(self, rn50):
        schemes = [TopKScheme(fraction=0.001), TopKScheme(fraction=0.004)]
        assert schemes[0].label == schemes[1].label
        self._reject([make_sim(rn50, scheme, 16) for scheme in schemes],
                     "scheme")

    def test_kernel_profiles_rejected(self, rn50):
        cluster = cluster_for_gpus(16)
        sims = [DDPSimulator(rn50, cluster, scheme=PowerSGDScheme(rank=4),
                             kernel_profile=profile)
                for profile in (v100_kernel_profile(),
                                v100_kernel_profile().scaled(2.0))]
        self._reject(sims, "kernel profile")

    @pytest.mark.parametrize("change", [
        {"alpha_s": 2e-5}, {"bandwidth_jitter": 0.05},
        {"incast_per_sender": 0.02}, "degraded"])
    def test_fabric_pricing_state_rejected(self, rn50, change):
        cluster = cluster_for_gpus(16)
        if change == "degraded":
            other = Fabric(cluster)
            other.degrade_link(0, 1, 0.5)
        else:
            other = Fabric(cluster, **change)
        sims = [DDPSimulator(rn50, cluster, fabric=fabric)
                for fabric in (Fabric(cluster), other)]
        self._reject(sims, "fabric")

    def test_equal_content_in_distinct_objects_accepted(self, rn50):
        """Members are compared by content: a copied model, a second
        equal scheme and a second fabric of the same cluster stack."""
        copy = pickle.loads(pickle.dumps(rn50))
        sims = [make_sim(model, PowerSGDScheme(rank=4), 16,
                         faults=faults)
                for model, faults in ((rn50, None),
                                      (copy, SCHEDULES["nic-straggler"]))]
        got = run_batch_many(sims, iterations=14, warmup=3, seeds=(3, 3))
        for sim, result in zip(sims, got):
            assert result == event_run(
                make_sim(rn50, PowerSGDScheme(rank=4), 16,
                         faults=sim.faults),
                iterations=14, warmup=3, seed=3)

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

    def test_packed_pool_tasks_keep_families_batched(self, rn50):
        """With more stacked families than the pool's ~4 tasks per
        worker, tasks carry several families; each still runs as one
        stack and counts as batched, and nothing counts as chunked."""
        jobs = [SimJob(model=rn50, cluster=cluster_for_gpus(gpus),
                       scheme=PowerSGDScheme(rank=rank), iterations=8,
                       warmup=2, faults=faults)
                for gpus in (8, 16) for rank in (1, 2, 4, 8, 16)
                for faults in (None, SCHEDULES["nic-straggler"])]
        pooled = ExperimentEngine(jobs=2)
        tasks, _ = pooled._plan(_SIM_KIND, jobs)
        assert len(tasks) < 10
        assert max(len(task.families) for task in tasks) > 1
        got = [o.unwrap() for o in pooled.run_outcomes(jobs)]
        assert got == [ExperimentEngine().run_outcomes([job])[0].unwrap()
                       for job in jobs]
        assert pooled.jobs_batched == len(jobs)
        assert pooled.jobs_chunked == 0

    def test_families_keyed_by_content_still_stack(self, rn50):
        """Jobs built from distinct but equal specs share a family key,
        and the content guard lets their family run as one stack."""
        jobs = [replace(job, model=pickle.loads(pickle.dumps(rn50)),
                        cluster=cluster_for_gpus(job.cluster.world_size),
                        scheme=PowerSGDScheme(rank=4))
                for job in self._jobs(rn50)]
        engine = ExperimentEngine()
        got = [o.unwrap() for o in engine.run_outcomes(jobs)]
        assert got == self._unbatched(rn50)
        assert engine.jobs_batched == 6

    def test_stats_report_jobs_batched(self, rn50):
        engine = ExperimentEngine()
        engine.run_outcomes(self._jobs(rn50))
        stats = engine.stats()
        assert stats.jobs_batched == 6
        assert stats.to_dict()["jobs_batched"] == 6


class TestVectorizedFaultPrimitives:
    """Array bandwidths in the array-generic collective the kernel
    prices buckets with."""

    def test_ring_batch_accepts_bandwidth_array(self):
        payloads = np.array([1.0, 25e6, 1e9])
        bws = np.array([10e9, 2.5e9, 10e9])
        batch = ring_allreduce_time(payloads, 8, bws, 5e-6)
        scalar = [ring_oracle(float(b), 8, float(bw), 5e-6)
                  for b, bw in zip(payloads, bws)]
        assert batch.tolist() == scalar

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(np.array([1e6]), 8,
                                np.array([0.0]), 5e-6)
