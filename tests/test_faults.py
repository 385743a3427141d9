"""Fault schedules, the injector, and simulator integration."""

import json
import math
import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_STREAM,
    CrashFault,
    FaultInjector,
    FaultSchedule,
    LinkFault,
    NodeFault,
    RetransmitFault,
    StragglerFault,
)
from repro.faults.schedule import (
    MAX_RETRANSMIT_DELAY_S,
    MAX_RETRANSMIT_RETRIES,
)
from repro.hardware import cluster_for_gpus
from repro.network import Fabric
from repro.simulator import DDPSimulator

from . import oracle
from .oracle import event_run


def state_at(injector, iteration):
    """One iteration's resolved fault state: a one-row range."""
    return injector.resolve_range(iteration, iteration + 1).states[0]


class TestScheduleValidation:
    def test_straggler_slowdown_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            StragglerFault(worker=0, slowdown=1.0)
        with pytest.raises(ConfigurationError):
            StragglerFault(worker=0, slowdown=0.5)

    def test_negative_worker_rejected(self):
        with pytest.raises(ConfigurationError):
            StragglerFault(worker=-1, slowdown=2.0)

    def test_link_factor_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            LinkFault(node_a=0, node_b=1, factor=0.0)
        with pytest.raises(ConfigurationError):
            LinkFault(node_a=0, node_b=1, factor=1.5)
        LinkFault(node_a=0, node_b=1, factor=1.0)  # boundary is legal

    def test_flapping_period_must_exceed_duration(self):
        with pytest.raises(ConfigurationError):
            LinkFault(node_a=0, node_b=1, factor=0.5,
                      duration_iterations=10, period_iterations=10)
        LinkFault(node_a=0, node_b=1, factor=0.5,
                  duration_iterations=10, period_iterations=11)

    def test_period_requires_duration(self):
        with pytest.raises(ConfigurationError):
            NodeFault(node=0, factor=0.5, period_iterations=10)

    def test_retransmit_drop_rate_below_one(self):
        with pytest.raises(ConfigurationError):
            RetransmitFault(drop_rate=1.0)
        with pytest.raises(ConfigurationError):
            RetransmitFault(drop_rate=-0.1)
        RetransmitFault(drop_rate=0.0)

    def test_retransmit_backoff_and_retries(self):
        with pytest.raises(ConfigurationError):
            RetransmitFault(drop_rate=0.1, backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetransmitFault(drop_rate=0.1, max_retries=0)

    def test_retransmit_total_delay_bounded(self):
        """The timeouts of all attempts together are bounded: at the
        bound and real stacks' shapes pass, just past it fails, and a
        ``backoff**k`` that overflows fails even at a zero timeout."""
        RetransmitFault(drop_rate=0.5, timeout_s=MAX_RETRANSMIT_DELAY_S,
                        max_retries=1)
        RetransmitFault(drop_rate=0.5, timeout_s=MAX_RETRANSMIT_DELAY_S / 128,
                        backoff=1.0, max_retries=MAX_RETRANSMIT_RETRIES)
        with pytest.raises(ConfigurationError):
            RetransmitFault(drop_rate=0.5,
                            timeout_s=MAX_RETRANSMIT_DELAY_S * 1.001,
                            max_retries=1)
        # Linux's default RTO shape (tcp_retries2 = 15), and a
        # millisecond timeout doubled 30 times.
        RetransmitFault(drop_rate=0.5, timeout_s=0.2, backoff=2.0,
                        max_retries=15)
        RetransmitFault(drop_rate=0.5, timeout_s=1e-3, backoff=2.0,
                        max_retries=30)
        for timeout_s in (0.0, 5e-324):
            with pytest.raises(ConfigurationError):
                RetransmitFault(drop_rate=0.5, timeout_s=timeout_s,
                                backoff=1e308, max_retries=3)

    def test_crash_recovery_policy_checked(self):
        with pytest.raises(ConfigurationError):
            CrashFault(worker=0, at_iteration=5, recovery="reboot")

    def test_crash_again_after_restart_is_allowed(self):
        # A "restart" recovery brings the worker back, so a later crash
        # of the same worker is a coherent (if unlucky) history.
        FaultSchedule(crashes=[
            CrashFault(worker=3, at_iteration=5),
            CrashFault(worker=3, at_iteration=9),
        ])

    def test_crash_after_elastic_departure_rejected(self):
        # An elastically-departed worker is gone for the rest of the
        # run; crashing it again has no physical interpretation (and
        # used to double-decrement the surviving world size).
        with pytest.raises(ConfigurationError):
            FaultSchedule(crashes=[
                CrashFault(worker=3, at_iteration=5, recovery="elastic"),
                CrashFault(worker=3, at_iteration=9),
            ])

    def test_duplicate_crash_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(crashes=[
                CrashFault(worker=3, at_iteration=5),
                CrashFault(worker=3, at_iteration=5, recovery="elastic"),
            ])

    def test_window_activity(self):
        fault = StragglerFault(worker=0, slowdown=2.0,
                               start_iteration=10, duration_iterations=5)
        assert not fault.active(9)
        assert fault.active(10)
        assert fault.active(14)
        assert not fault.active(15)

    def test_persistent_window(self):
        fault = NodeFault(node=0, factor=0.5, start_iteration=3)
        assert not fault.active(2)
        assert fault.active(10_000)

    def test_flapping_window_repeats(self):
        fault = LinkFault(node_a=0, node_b=1, factor=0.5,
                          start_iteration=0, duration_iterations=2,
                          period_iterations=5)
        pattern = [fault.active(i) for i in range(10)]
        assert pattern == [True, True, False, False, False] * 2


class TestScheduleSerialization:
    def _full_schedule(self):
        return FaultSchedule(
            seed=7,
            stragglers=[StragglerFault(worker=1, slowdown=2.0,
                                       start_iteration=10,
                                       duration_iterations=20)],
            links=[LinkFault(node_a=0, node_b=1, factor=0.5,
                             duration_iterations=2, period_iterations=6)],
            nodes=[NodeFault(node=0, factor=0.25)],
            retransmits=[RetransmitFault(drop_rate=0.05)],
            crashes=[CrashFault(worker=2, at_iteration=15,
                                recovery="elastic")],
        )

    def test_json_round_trip(self):
        schedule = self._full_schedule()
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_save_load_round_trip(self, tmp_path):
        schedule = self._full_schedule()
        path = tmp_path / "faults.json"
        schedule.save(path)
        assert FaultSchedule.load(path) == schedule

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_payload({"seed": 1, "gremlins": []})
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_payload({
                "stragglers": [{"worker": 0, "slowdown": 2.0,
                                "color": "red"}]})

    def test_empty_schedule(self):
        empty = FaultSchedule()
        assert empty.is_empty
        assert empty.count() == 0
        assert not self._full_schedule().is_empty

    def test_payload_omits_empty_lists(self):
        payload = FaultSchedule(seed=3, nodes=[
            NodeFault(node=0, factor=0.5)]).to_payload()
        assert "stragglers" not in payload
        assert "crashes" not in payload
        assert payload["seed"] == 3

    def test_describe_mentions_counts_and_seed(self):
        text = self._full_schedule().describe()
        assert "1 stragglers" in text
        assert "seed 7" in text

    def test_lists_coerced_to_tuples(self):
        schedule = FaultSchedule(stragglers=[
            StragglerFault(worker=0, slowdown=2.0)])
        assert isinstance(schedule.stragglers, tuple)

    @pytest.mark.parametrize("text", [
        '{"seed": "abc"}', '{"seed": null}', '{"seed": [1]}',
        '{"seed": 1e400}', '{"seed": NaN}', '{"seed": 1.5}',
        '{"seed": true}', '{"seed": -1}',
        '{"stragglers": [{"worker": 0, "slowdown": NaN}]}',
        '{"stragglers": [{"worker": 0, "slowdown": Infinity}]}',
        '{"stragglers": [{"worker": 0.5, "slowdown": 2}]}',
        '{"stragglers": [{"worker": true, "slowdown": 2}]}',
        '{"stragglers": [{"worker": 0, "slowdown": 2, '
        '"duration_iterations": 2.5}]}',
        '{"crashes": [{"worker": 0, "at_iteration": 1, "stall_s": NaN}]}',
        '{"retransmits": [{"drop_rate": 0.1, "backoff": NaN}]}',
        '{"retransmits": [{"drop_rate": 0.1, "max_retries": 1.5}]}',
        # Unpriceable: backoff**k overflows a float, and max_retries
        # sizes a draw per iteration row.
        '{"retransmits": [{"drop_rate": 0.9999, "max_retries": 2000}]}',
        '{"retransmits": [{"drop_rate": 0.5, "timeout_s": 1e308, '
        '"backoff": 1e308}]}',
        '{"retransmits": [{"drop_rate": 0.5, "backoff": 1, '
        '"max_retries": 101}]}',
        # Each timeout finite, their sum near the float limit.
        '{"retransmits": [{"drop_rate": 0.9999, "timeout_s": 1e307, '
        '"backoff": 10, "max_retries": 2}]}',
        # A zero timeout does not hide a backoff**k that overflows.
        '{"retransmits": [{"drop_rate": 0.9999, "backoff": 1e308, '
        '"timeout_s": 0, "max_retries": 3}]}',
        '{"links": [{"node_a": 0, "node_b": "1", "factor": 0.5}]}',
        '{"nodes": {"node": 0, "factor": 0.5}}',
        '{"nodes": [[0, 0.5]]}',
        '{"seed": ' + "9" * 5000 + '}',
        "[" * 100_000,
    ], ids=lambda text: text[:48])
    def test_bad_values_are_configuration_errors(self, text):
        with pytest.raises(ConfigurationError):
            FaultSchedule.from_json(text)

    def test_fuzzed_json_parses_or_raises_configuration_error(self):
        """Mutated schedules either raise ``ConfigurationError`` or parse
        to a schedule that round-trips and encodes without NaN: nothing
        else."""
        rng = random.Random(0)
        values = ["0", "1", "-1", "3", "0.5", "1.5", "2", "2.0", "1e400",
                  "-1e400", "NaN", "Infinity", "-Infinity", "true", "false",
                  "null", '"abc"', '"2"', '"restart"', "[1]", "{}", "[]",
                  "1e-320", "9" * 5000]
        base = self._full_schedule().to_payload()
        parsed = 0
        for _ in range(400):
            payload = json.loads(json.dumps(base))
            raw = {}

            def hole(value_text):
                marker = f"@{len(raw)}@"
                raw[f'"{marker}"'] = value_text
                return marker

            for _ in range(rng.randint(1, 3)):
                name = rng.choice(sorted(payload))
                if name == "seed" or rng.random() < 0.15:
                    payload[name] = hole(rng.choice(values))
                    continue
                entries = payload[name]
                if not isinstance(entries, list) or not entries:
                    continue
                entry = rng.choice(entries)
                if not isinstance(entry, dict) or rng.random() < 0.1:
                    entries[0] = hole(rng.choice(values))
                    continue
                key = rng.choice(sorted(entry) + ["extra"])
                entry[key] = hole(rng.choice(values))
            text = json.dumps(payload)
            for marker, value_text in raw.items():
                text = text.replace(marker, value_text)
            if rng.random() < 0.05:
                text = text[:rng.randrange(len(text))]
            try:
                schedule = FaultSchedule.from_json(text)
            except ConfigurationError:
                continue
            parsed += 1
            assert FaultSchedule.from_json(schedule.to_json()) == schedule
            json.dumps(schedule.to_payload(), allow_nan=False)
        assert parsed > 0


class TestInjector:
    def _injector(self, cluster, schedule):
        return FaultInjector(schedule, cluster, Fabric(cluster))

    def test_max_straggler_slowdown_wins(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(stragglers=[
            StragglerFault(worker=0, slowdown=1.5),
            StragglerFault(worker=1, slowdown=3.0),
        ]))
        state = state_at(inj, 0)
        assert state.compute_slowdown == 3.0
        assert "straggler" in state.active

    def test_clean_iteration_is_identity(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(stragglers=[
            StragglerFault(worker=0, slowdown=2.0, start_iteration=50)]))
        state = state_at(inj, 0)
        assert state.compute_slowdown == 1.0
        assert state.bandwidth_scale == 1.0
        assert state.stall_s == 0.0
        assert not state.degraded

    def test_node_fault_scales_bandwidth(self, small_cluster):
        # Two nodes, one pair: degrading node 0 scales the pairwise
        # minimum by exactly the fault's factor.
        inj = self._injector(small_cluster, FaultSchedule(nodes=[
            NodeFault(node=0, factor=0.25)]))
        state = state_at(inj, 0)
        assert state.bandwidth_scale == pytest.approx(0.25)
        assert "degraded-link" in state.active

    def test_link_fault_scales_bandwidth(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(links=[
            LinkFault(node_a=0, node_b=1, factor=0.5)]))
        assert state_at(inj, 0).bandwidth_scale == pytest.approx(0.5)

    def test_elastic_crash_shrinks_world(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(crashes=[
            CrashFault(worker=2, at_iteration=5, recovery="elastic",
                       stall_s=0.5)]))
        assert state_at(inj, 4).world_size == 8
        at = state_at(inj, 5)
        assert at.world_size == 7
        assert at.stall_s == 0.5
        assert "crash-elastic" in at.active
        after = state_at(inj, 6)
        assert after.world_size == 7
        assert after.stall_s == 0.0

    def test_restart_crash_keeps_world(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(crashes=[
            CrashFault(worker=2, at_iteration=5, recovery="restart",
                       stall_s=1.0)]))
        at = state_at(inj, 5)
        assert at.world_size == 8
        assert at.stall_s == 1.0
        assert state_at(inj, 6).world_size == 8

    def test_elastically_dropped_straggler_stops_straggling(
            self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(
            stragglers=[StragglerFault(worker=2, slowdown=4.0)],
            crashes=[CrashFault(worker=2, at_iteration=10,
                                recovery="elastic")]))
        assert state_at(inj, 9).compute_slowdown == 4.0
        assert state_at(inj, 10).compute_slowdown == 1.0

    def test_harshest_retransmit_policy_wins(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(retransmits=[
            RetransmitFault(drop_rate=0.01),
            RetransmitFault(drop_rate=0.2),
        ]))
        assert state_at(inj, 0).retransmit.drop_rate == 0.2

    def test_retransmit_delay_deterministic(self, small_cluster):
        schedule = FaultSchedule(seed=11, retransmits=[
            RetransmitFault(drop_rate=0.5)])
        a = self._injector(small_cluster, schedule)
        b = self._injector(small_cluster, schedule)
        draws_a = [a.retransmit_delay_range(3, 4, t, np.array([1e-3]))
                   for t in range(50)]
        draws_b = [b.retransmit_delay_range(3, 4, t, np.array([1e-3]))
                   for t in range(50)]
        assert [(d.tolist(), r.tolist()) for d, r in draws_a] \
            == [(d.tolist(), r.tolist()) for d, r in draws_b]
        assert any(r[0] for _, r in draws_a)  # rate 0.5: some drop

    def test_retransmit_zero_rate_is_free(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(retransmits=[
            RetransmitFault(drop_rate=0.0)]))
        delays, replays = inj.retransmit_delay_range(
            0, 1, 0, np.array([1e-3]))
        assert delays.tolist() == [0.0] and replays.tolist() == [0]

    def test_topology_validation(self, small_cluster):
        # 8 workers, 2 nodes.
        with pytest.raises(ConfigurationError):
            self._injector(small_cluster, FaultSchedule(stragglers=[
                StragglerFault(worker=8, slowdown=2.0)]))
        with pytest.raises(ConfigurationError):
            self._injector(small_cluster, FaultSchedule(crashes=[
                CrashFault(worker=12, at_iteration=0)]))
        with pytest.raises(ConfigurationError):
            self._injector(small_cluster, FaultSchedule(links=[
                LinkFault(node_a=0, node_b=2, factor=0.5)]))
        with pytest.raises(ConfigurationError):
            self._injector(small_cluster, FaultSchedule(nodes=[
                NodeFault(node=2, factor=0.5)]))

    def test_summary_mentions_schedule(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(seed=7, nodes=[
            NodeFault(node=0, factor=0.5)]))
        assert "faults:" in inj.summary()
        assert "seed 7" in inj.summary()


class TestSimulatorIntegration:
    def test_empty_schedule_builds_no_injector(self, tiny_model,
                                               small_cluster):
        sim = DDPSimulator(tiny_model, small_cluster,
                           faults=FaultSchedule())
        assert sim.injector is None

    def test_straggler_slows_the_run(self, resnet50, small_cluster):
        clean = DDPSimulator(resnet50, small_cluster).run(
            batch_size=64, iterations=10, warmup=2)
        hurt = DDPSimulator(resnet50, small_cluster, faults=FaultSchedule(
            stragglers=[StragglerFault(worker=0, slowdown=3.0)])).run(
            batch_size=64, iterations=10, warmup=2)
        assert hurt.mean > clean.mean * 1.2

    def test_nic_fault_slows_communication(self, resnet50, small_cluster):
        clean = DDPSimulator(resnet50, small_cluster).run(
            batch_size=64, iterations=10, warmup=2)
        hurt = DDPSimulator(resnet50, small_cluster, faults=FaultSchedule(
            nodes=[NodeFault(node=0, factor=0.2)])).run(
            batch_size=64, iterations=10, warmup=2)
        assert hurt.mean > clean.mean

    def test_fault_window_span_in_trace(self, resnet50, small_cluster):
        sim = DDPSimulator(resnet50, small_cluster, faults=FaultSchedule(
            stragglers=[StragglerFault(worker=0, slowdown=2.0,
                                       start_iteration=2,
                                       duration_iterations=1)]))
        rng = np.random.default_rng(0)
        clean_trace = sim.simulate_iteration(64, rng, iteration=1)
        hurt_trace = sim.simulate_iteration(64, rng, iteration=2)
        assert not [s for s in clean_trace.spans
                    if s.stream == FAULT_STREAM]
        fault_spans = [s for s in hurt_trace.spans
                       if s.stream == FAULT_STREAM]
        assert fault_spans and fault_spans[0].label == "straggler"

    def test_transient_fault_only_hits_its_window(self, resnet50,
                                                  small_cluster):
        faults = FaultSchedule(stragglers=[
            StragglerFault(worker=0, slowdown=3.0, start_iteration=4,
                           duration_iterations=2)])
        sim = DDPSimulator(resnet50, small_cluster, faults=faults)
        clean_sim = DDPSimulator(resnet50, small_cluster)
        result = sim.run(batch_size=64, iterations=8, warmup=0)
        clean = clean_sim.run(batch_size=64, iterations=8, warmup=0)
        for i in (4, 5):
            assert result.iteration_times[i] > clean.iteration_times[i] * 1.5
        for i in (0, 1, 2, 3, 6, 7):
            assert result.iteration_times[i] == pytest.approx(
                clean.iteration_times[i])

    def test_restart_crash_charges_stall_once(self, resnet50,
                                              small_cluster):
        faults = FaultSchedule(crashes=[
            CrashFault(worker=0, at_iteration=3, recovery="restart",
                       stall_s=0.7)])
        sim = DDPSimulator(resnet50, small_cluster, faults=faults)
        clean = DDPSimulator(resnet50, small_cluster).run(
            batch_size=64, iterations=6, warmup=0)
        result = sim.run(batch_size=64, iterations=6, warmup=0)
        assert result.iteration_times[3] == pytest.approx(
            clean.iteration_times[3] + 0.7)
        assert result.iteration_times[5] == pytest.approx(
            clean.iteration_times[5])

    def test_retransmits_add_delay_and_count(self, resnet50,
                                             small_cluster):
        faults = FaultSchedule(seed=7, retransmits=[
            RetransmitFault(drop_rate=0.3)])
        sim = DDPSimulator(resnet50, small_cluster, faults=faults)
        result = sim.run(batch_size=64, iterations=10, warmup=2)
        assert sim.injector.retransmits_injected > 0
        assert sim.injector.retransmit_delay_s > 0
        assert math.isfinite(result.mean)


def _forge(cls, **fields):
    """Build a fault dataclass bypassing ``__post_init__`` validation,
    to prove the injector's defense-in-depth checks stand on their own."""
    import dataclasses
    obj = object.__new__(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            values[f.name] = f.default
    values.update(fields)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


class TestInjectorHardening:
    """Regression tests for the injector correctness fixes: topology
    defense-in-depth, elastic dedup, and per-run counter reset."""

    def _injector(self, cluster, schedule):
        return FaultInjector(schedule, cluster, Fabric(cluster))

    def test_self_link_rejected_even_when_forged(self, small_cluster):
        # LinkFault's own constructor rejects self-links; the injector
        # must too, so a forged instance cannot slip a no-op fault in.
        link = _forge(LinkFault, node_a=1, node_b=1, factor=0.5)
        schedule = FaultSchedule()
        object.__setattr__(schedule, "links", (link,))
        with pytest.raises(ConfigurationError, match="must differ"):
            self._injector(small_cluster, schedule)

    def test_nonpositive_link_factor_rejected_when_forged(
            self, small_cluster):
        link = _forge(LinkFault, node_a=0, node_b=1, factor=0.0)
        schedule = FaultSchedule()
        object.__setattr__(schedule, "links", (link,))
        with pytest.raises(ConfigurationError, match="factor"):
            self._injector(small_cluster, schedule)

    def test_nonpositive_node_factor_rejected_when_forged(
            self, small_cluster):
        node = _forge(NodeFault, node=0, factor=-0.5)
        schedule = FaultSchedule()
        object.__setattr__(schedule, "nodes", (node,))
        with pytest.raises(ConfigurationError, match="factor"):
            self._injector(small_cluster, schedule)

    def test_forged_duplicate_elastic_crash_decrements_once(
            self, small_cluster):
        # The schedule validates against duplicate elastic departures;
        # a forged duplicate must still shrink the world only once.
        crash = CrashFault(worker=1, at_iteration=2, recovery="elastic")
        schedule = FaultSchedule(crashes=[crash])
        object.__setattr__(schedule, "crashes", (crash, crash))
        inj = self._injector(small_cluster, schedule)
        assert state_at(inj, 5).world_size == \
            small_cluster.world_size - 1

    def test_restart_then_elastic_sequence_resolves(self, small_cluster):
        schedule = FaultSchedule(crashes=[
            CrashFault(worker=0, at_iteration=2, recovery="restart",
                       stall_s=0.5),
            CrashFault(worker=0, at_iteration=6, recovery="elastic"),
        ])
        inj = self._injector(small_cluster, schedule)
        assert state_at(inj, 3).world_size == small_cluster.world_size
        assert state_at(inj, 7).world_size == \
            small_cluster.world_size - 1

    def test_counters_reset_between_runs(self, resnet50, small_cluster):
        faults = FaultSchedule(seed=7, retransmits=[
            RetransmitFault(drop_rate=0.3)])
        sim = DDPSimulator(resnet50, small_cluster, faults=faults)
        event_run(sim, batch_size=64, iterations=10, warmup=2)
        first = (sim.injector.retransmits_injected,
                 sim.injector.retransmit_delay_s)
        assert first[0] > 0
        sim.run(batch_size=64, iterations=10, warmup=2)
        # The event loop's tallies are replaced, not added to: the
        # same run yields the same counters — not doubled.
        assert (sim.injector.retransmits_injected,
                sim.injector.retransmit_delay_s) == first

    def test_counters_reset_on_batch_path_too(self, resnet50,
                                              small_cluster):
        faults = FaultSchedule(seed=7, retransmits=[
            RetransmitFault(drop_rate=0.3)])
        sim = DDPSimulator(resnet50, small_cluster, faults=faults)
        sim.run(batch_size=64, iterations=10, warmup=2)
        first = (sim.injector.retransmits_injected,
                 sim.injector.retransmit_delay_s)
        assert first[0] > 0
        sim.run(batch_size=64, iterations=10, warmup=2)
        assert (sim.injector.retransmits_injected,
                sim.injector.retransmit_delay_s) == first


class TestResolveRange:
    """The injector's range API matches the per-iteration oracle."""

    def _injector(self, cluster, schedule):
        return FaultInjector(schedule, cluster, Fabric(cluster))

    def test_matches_faults_for(self, small_cluster):
        schedule = FaultSchedule(
            seed=3,
            stragglers=[StragglerFault(worker=0, slowdown=2.0,
                                       start_iteration=2,
                                       duration_iterations=4)],
            nodes=[NodeFault(node=0, factor=0.5, start_iteration=5)],
            crashes=[CrashFault(worker=1, at_iteration=7,
                                recovery="elastic", stall_s=0.25)])
        inj = self._injector(small_cluster, schedule)
        resolved = inj.resolve_range(0, 12)
        assert len(resolved) == 12
        want = oracle.FaultResolutionOracle(schedule, small_cluster,
                                            inj.fabric)
        for i in range(12):
            state = want.faults_for(i)
            assert resolved.states[i] == state
            assert resolved.compute_slowdown[i] == state.compute_slowdown
            assert resolved.bandwidth_scale[i] == state.bandwidth_scale
            assert resolved.world_size[i] == state.world_size
            assert resolved.stall_s[i] == state.stall_s

    def test_reversed_range_rejected(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(nodes=[
            NodeFault(node=0, factor=0.5)]))
        with pytest.raises(ConfigurationError):
            inj.resolve_range(5, 3)

    def test_has_retransmits_flag(self, small_cluster):
        risky = self._injector(small_cluster, FaultSchedule(retransmits=[
            RetransmitFault(drop_rate=0.2)]))
        safe = self._injector(small_cluster, FaultSchedule(nodes=[
            NodeFault(node=0, factor=0.5)]))
        assert risky.resolve_range(0, 5).has_retransmits
        assert not safe.resolve_range(0, 5).has_retransmits

    def test_retransmit_delay_range_matches_scalar(self, small_cluster):
        schedule = FaultSchedule(seed=11, retransmits=[
            RetransmitFault(drop_rate=0.5, timeout_s=1e-3)])
        vec = self._injector(small_cluster, schedule)
        scalar = self._injector(small_cluster, schedule)
        durations = [1e-3 * (i + 1) for i in range(20)]
        delays, replays = vec.retransmit_delay_range(
            0, 20, 1, np.asarray(durations))
        for i, dur in enumerate(durations):
            d, r = oracle.retransmit_delay(scalar, i, 1, dur)
            assert delays[i] == d  # bitwise
            assert replays[i] == r

    def test_retransmit_at_the_retry_bound_prices(self, small_cluster):
        schedule = FaultSchedule(seed=5, retransmits=[RetransmitFault(
            drop_rate=0.9999, timeout_s=1e-3, backoff=1.0,
            max_retries=MAX_RETRANSMIT_RETRIES)])
        vec = self._injector(small_cluster, schedule)
        scalar = self._injector(small_cluster, schedule)
        delays, replays = vec.retransmit_delay_range(
            0, 4, 0, np.full(4, 1e-3))
        assert replays.max() == MAX_RETRANSMIT_RETRIES
        for i in range(4):
            assert (delays[i], replays[i]) == oracle.retransmit_delay(
                scalar, i, 0, 1e-3)

    def test_retransmit_delay_range_is_pure(self, small_cluster):
        inj = self._injector(small_cluster, FaultSchedule(retransmits=[
            RetransmitFault(drop_rate=0.5)]))
        inj.retransmit_delay_range(0, 10, 0, np.full(10, 1e-3))
        assert inj.retransmits_injected == 0
        assert inj.retransmit_delay_s == 0.0
