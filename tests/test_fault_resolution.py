"""Fault resolution against its per-iteration oracle.

``FaultInjector.resolve_range`` resolves a range once per distinct
pattern of active faults and shares the result between injectors that
bind the same schedule object to the same cluster and shared fabric
matrix.  These tests hold it to ``tests/oracle.py``'s per-iteration
resolution on random schedules, clusters and ranges, and check that a
resolution is never reused where its inputs differ.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.hardware import P3_2XLARGE, P3_8XLARGE, ClusterConfig
from repro.network import Fabric
from repro.simulator import DDPSimulator

from .oracle import FaultResolutionOracle, window_active_oracle

CASES = 120


def _window(rng, periodic=False):
    start = int(rng.integers(0, 25))
    duration = None if rng.random() < 0.3 else int(rng.integers(1, 12))
    period = None
    if periodic and duration is not None and rng.random() < 0.5:
        period = duration + int(rng.integers(1, 10))
    return start, duration, period


def _factor(rng):
    return 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0))


def random_cluster(rng):
    """A random topology, one-node clusters included, with a random
    fabric seed."""
    instance = P3_8XLARGE if rng.random() < 0.7 else P3_2XLARGE
    return ClusterConfig(instance=instance,
                         num_nodes=int(rng.integers(1, 7)),
                         seed=int(rng.integers(0, 4)))


def random_schedule(rng, cluster):
    """A valid random schedule for ``cluster``: stragglers, links, NICs,
    retransmits, restart and elastic crashes, periodic windows."""
    p, n = cluster.world_size, cluster.num_nodes
    stragglers = []
    for _ in range(int(rng.integers(0, 4))):
        start, duration, _ = _window(rng)
        slowdown = (2 if rng.random() < 0.2
                    else float(rng.uniform(1.01, 4.0)))
        stragglers.append(StragglerFault(
            worker=int(rng.integers(0, p)), slowdown=slowdown,
            start_iteration=start, duration_iterations=duration))
    links = []
    if n > 1:
        for _ in range(int(rng.integers(0, 4))):
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            start, duration, period = _window(rng, periodic=True)
            links.append(LinkFault(
                node_a=a, node_b=b, factor=_factor(rng),
                start_iteration=start, duration_iterations=duration,
                period_iterations=period))
    nodes = []
    for _ in range(int(rng.integers(0, 3))):
        start, duration, period = _window(rng, periodic=True)
        nodes.append(NodeFault(
            node=int(rng.integers(0, n)), factor=_factor(rng),
            start_iteration=start, duration_iterations=duration,
            period_iterations=period))
    retransmits = []
    for _ in range(int(rng.integers(0, 3))):
        start, duration, _ = _window(rng)
        drop = 0.0 if rng.random() < 0.15 else float(rng.uniform(0, 0.9))
        retransmits.append(RetransmitFault(
            drop_rate=drop, timeout_s=float(rng.uniform(0, 5e-3)),
            start_iteration=start, duration_iterations=duration))
    crashes = []
    workers = rng.permutation(p)[:int(rng.integers(0, min(p, 4) + 1))]
    for worker in workers.tolist():
        at = int(rng.integers(0, 30))
        if rng.random() < 0.3:
            # A restart, then a later crash of the same worker.
            crashes.append(CrashFault(worker=worker, at_iteration=at,
                                      recovery="restart",
                                      stall_s=float(rng.uniform(0, 2))))
            at += int(rng.integers(1, 10))
        crashes.append(CrashFault(
            worker=worker, at_iteration=at,
            recovery="elastic" if rng.random() < 0.5 else "restart",
            stall_s=float(rng.uniform(0, 2))))
    return FaultSchedule(seed=int(rng.integers(0, 100)),
                         stragglers=stragglers, links=links, nodes=nodes,
                         retransmits=retransmits, crashes=crashes)


def _typed(state):
    """Every field of an ``IterationFaults`` with its type."""
    return [(type(getattr(state, f.name)), getattr(state, f.name))
            for f in fields(state)]


def assert_matches_oracle(resolved, oracle, start, stop):
    n = stop - start
    assert resolved.start == start
    assert len(resolved) == n
    expected = [oracle.faults_for(i) for i in range(start, stop)]
    for state, want in zip(resolved.states, expected):
        assert _typed(state) == _typed(want)
    for name, dtype in (("compute_slowdown", np.float64),
                        ("bandwidth_scale", np.float64),
                        ("world_size", np.int64),
                        ("stall_s", np.float64)):
        array = getattr(resolved, name)
        assert array.dtype == dtype and array.shape == (n,)
        assert not array.flags.writeable
        want = np.array([getattr(s, name) for s in expected], dtype=dtype)
        np.testing.assert_array_equal(array, want, strict=True)
    assert resolved.has_retransmits == any(
        s.retransmit is not None and s.retransmit.drop_rate > 0
        for s in expected)


class TestResolutionProperty:
    def test_random_schedules_match_the_oracle(self):
        rng = np.random.default_rng(20261018)
        one_node = 0
        for _ in range(CASES):
            cluster = random_cluster(rng)
            one_node += cluster.num_nodes == 1
            schedule = random_schedule(rng, cluster)
            fabric = Fabric(cluster)
            injector = FaultInjector(schedule, cluster, fabric)
            oracle = FaultResolutionOracle(schedule, cluster, fabric)
            for _ in range(3):
                start = int(rng.integers(0, 40))
                stop = start + int(rng.integers(0, 45))
                resolved = injector.resolve_range(start, stop)
                assert_matches_oracle(resolved, oracle, start, stop)
            probe = int(rng.integers(0, 60))
            assert_matches_oracle(injector.resolve_range(probe, probe + 1),
                                  oracle, probe, probe + 1)
        assert one_node > 0

    def test_windows_match_the_scalar_rule(self):
        rng = np.random.default_rng(7)
        its = np.arange(0, 80)
        for _ in range(200):
            start, duration, period = _window(rng, periodic=True)
            fault = LinkFault(node_a=0, node_b=1, factor=0.5,
                              start_iteration=start,
                              duration_iterations=duration,
                              period_iterations=period)
            want = [window_active_oracle(i, start, duration, period)
                    for i in its.tolist()]
            assert fault.active(its).tolist() == want
            assert [fault.active(i) for i in its.tolist()] == want
            assert all(type(fault.active(i)) is bool for i in range(3))

    def test_empty_range_and_empty_schedule(self, small_cluster):
        fabric = Fabric(small_cluster)
        injector = FaultInjector(FaultSchedule(), small_cluster, fabric)
        oracle = FaultResolutionOracle(FaultSchedule(), small_cluster, fabric)
        assert_matches_oracle(injector.resolve_range(3, 9), oracle, 3, 9)
        assert len(injector.resolve_range(4, 4)) == 0


def _nic_schedule():
    return FaultSchedule(seed=1, nodes=(NodeFault(node=0, factor=0.25),),
                         links=(LinkFault(node_a=0, node_b=1, factor=0.5,
                                          start_iteration=3,
                                          duration_iterations=2,
                                          period_iterations=5),))


class TestSharing:
    """A resolution is shared only by injectors binding the same
    schedule object to the same cluster and shared fabric matrix."""

    def test_same_inputs_share_one_resolution(self, small_cluster):
        schedule = _nic_schedule()
        a = FaultInjector(schedule, small_cluster, Fabric(small_cluster))
        b = FaultInjector(schedule, small_cluster, Fabric(small_cluster))
        assert a.resolve_range(0, 20) is b.resolve_range(0, 20)
        assert a.resolve_range(0, 20) is not a.resolve_range(0, 21)

    def test_degraded_fabric_never_shares(self):
        cluster = ClusterConfig(instance=P3_8XLARGE, num_nodes=4)
        schedule = _nic_schedule()
        shared = FaultInjector(schedule, cluster, Fabric(cluster))
        healthy = shared.resolve_range(0, 20)
        degraded_fabric = Fabric(cluster)
        degraded_fabric.degrade_link(2, 3, 0.3)
        degraded = FaultInjector(schedule, cluster, degraded_fabric)
        resolved = degraded.resolve_range(0, 20)
        assert resolved is not healthy
        assert_matches_oracle(resolved, FaultResolutionOracle(
            schedule, cluster, degraded_fabric), 0, 20)
        assert not np.array_equal(resolved.bandwidth_scale,
                                  healthy.bandwidth_scale)
        # A fabric degraded after its injector was built stops sharing
        # too, and the shared resolution is left as it was.
        late_fabric = Fabric(cluster)
        late = FaultInjector(schedule, cluster, late_fabric)
        late_fabric.degrade_link(2, 3, 0.3)
        assert late.resolve_range(0, 20) is not healthy
        again = FaultInjector(schedule, cluster, Fabric(cluster))
        assert again.resolve_range(0, 20) is healthy
        assert_matches_oracle(healthy, FaultResolutionOracle(
            schedule, cluster, Fabric(cluster)), 0, 20)

    def test_other_cluster_seed_never_shares(self):
        schedule = _nic_schedule()
        resolutions = []
        for seed in (0, 1):
            cluster = ClusterConfig(instance=P3_8XLARGE, num_nodes=4,
                                    seed=seed)
            fabric = Fabric(cluster)
            resolved = FaultInjector(schedule, cluster,
                                     fabric).resolve_range(0, 20)
            assert_matches_oracle(resolved, FaultResolutionOracle(
                schedule, cluster, fabric), 0, 20)
            resolutions.append(resolved)
        assert resolutions[0] is not resolutions[1]
        assert not np.array_equal(resolutions[0].bandwidth_scale,
                                  resolutions[1].bandwidth_scale)

    def test_redegraded_fabric_resolves_afresh(self):
        cluster = ClusterConfig(instance=P3_8XLARGE, num_nodes=4)
        schedule = _nic_schedule()
        fabric = Fabric(cluster)
        fabric.degrade_link(2, 3, 0.3)
        first = FaultInjector(schedule, cluster, fabric).resolve_range(0, 20)
        fabric.degrade_link(1, 2, 0.1)
        second = FaultInjector(schedule, cluster, fabric).resolve_range(0, 20)
        assert second is not first
        assert_matches_oracle(second, FaultResolutionOracle(
            schedule, cluster, fabric), 0, 20)
        assert not np.array_equal(first.bandwidth_scale,
                                  second.bandwidth_scale)

    def test_other_cluster_on_the_same_matrix_never_shares(self):
        """Two GPUs per node instead of four: the same fabric matrix,
        another world size."""
        schedule = FaultSchedule(crashes=(
            CrashFault(worker=1, at_iteration=2, recovery="elastic"),))
        resolutions = []
        for instance in (P3_8XLARGE, replace(P3_8XLARGE, gpus_per_node=2)):
            cluster = ClusterConfig(instance=instance, num_nodes=3)
            fabric = Fabric(cluster)
            resolved = FaultInjector(schedule, cluster,
                                     fabric).resolve_range(0, 6)
            assert_matches_oracle(resolved, FaultResolutionOracle(
                schedule, cluster, fabric), 0, 6)
            resolutions.append((fabric._pair_bw, resolved))
        (matrix_a, a), (matrix_b, b) = resolutions
        assert matrix_a is matrix_b
        assert a.world_size.tolist() != b.world_size.tolist()

    def test_other_schedule_object_never_shares(self, small_cluster):
        first, second = _nic_schedule(), _nic_schedule()
        assert first == second and first is not second
        a = FaultInjector(first, small_cluster, Fabric(small_cluster))
        b = FaultInjector(second, small_cluster, Fabric(small_cluster))
        assert a.resolve_range(0, 20) is not b.resolve_range(0, 20)
        assert _typed(a.resolve_range(4, 5).states[0]) \
            == _typed(b.resolve_range(4, 5).states[0])

    def test_single_iteration_ranges_match_the_oracle(self, small_cluster):
        """A one-row range, as ``simulate_iteration`` resolves, inside
        and outside a longer resolved range."""
        schedule = _nic_schedule()
        injector = FaultInjector(schedule, small_cluster,
                                 Fabric(small_cluster))
        resolved = injector.resolve_range(0, 10)
        oracle = FaultResolutionOracle(schedule, small_cluster,
                                       Fabric(small_cluster))
        for i in (0, 3, 4, 9, 10, 13, 40):
            single = injector.resolve_range(i, i + 1)
            assert_matches_oracle(single, oracle, i, i + 1)
            if i < 10:
                assert single.states[0] == resolved.states[i]

    def test_stepping_one_simulator_keeps_the_table_bounded(
            self, tiny_model, small_cluster):
        """One-row ranges stay out of the shared table, however many
        iterations a faulted simulator steps through."""
        schedule = FaultSchedule(
            seed=1, nodes=(NodeFault(node=0, factor=0.25),),
            retransmits=(RetransmitFault(drop_rate=0.3, timeout_s=1e-3),))
        sim = DDPSimulator(tiny_model, small_cluster, faults=schedule)
        rng = np.random.default_rng(0)
        for i in range(200):
            sim.simulate_iteration(4, rng, iteration=i)
        assert len(sim.injector._ranges()) == 0
        assert sim.injector.retransmits_injected > 0
        sim.injector.resolve_range(0, 10)
        assert len(sim.injector._ranges()) == 1

    def test_single_iteration_follows_a_late_degrade(self):
        cluster = ClusterConfig(instance=P3_8XLARGE, num_nodes=4)
        fabric = Fabric(cluster)
        injector = FaultInjector(_nic_schedule(), cluster, fabric)
        before = injector.resolve_range(4, 5)
        assert injector.resolve_range(4, 5) is before
        assert len(injector.resolve_range(4, 4)) == 0
        assert len(injector.resolve_range(4, 5)) == 1
        before = injector.resolve_range(4, 5)
        fabric.degrade_link(2, 3, 0.3)
        after = injector.resolve_range(4, 5)
        assert after is not before
        assert after.states[0] == injector.resolve_range(0, 20).states[4]

    def test_shared_arrays_are_read_only(self, small_cluster):
        injector = FaultInjector(_nic_schedule(), small_cluster,
                                 Fabric(small_cluster))
        resolved = injector.resolve_range(0, 10)
        with pytest.raises(ValueError):
            resolved.bandwidth_scale[0] = 1.0
