"""``simulate_iteration`` (a one-row kernel call) vs the event-loop oracle.

``DDPSimulator.simulate_iteration`` evaluates one iteration through the
batch kernel, drawing from the caller's generator at the caller's
absolute iteration index.  Its contract is the event loop's
(:func:`event_iteration` in ``tests/oracle.py``): the same spans and key
instants, the same generator state afterwards — so callers that thread
one generator through several iterations, or through several
simulators, see exactly the stream the event loop consumed — and the
same side effects (fault-injector counters, telemetry).
"""

import numpy as np
import pytest

from repro.analysis.bottleneck import blocked_time_analysis
from repro.compression import (
    FP16Scheme,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.errors import OutOfMemoryError
from repro.faults import FaultSchedule, StragglerFault
from repro.hardware import P3_2XLARGE, ClusterConfig, cluster_for_gpus
from repro.models import get_model
from repro.simulator import DDPConfig, DDPSimulator
from repro.telemetry import metrics as telemetry_metrics

from .oracle import event_iteration
from .test_faulted_batch_equivalence import SCHEDULES


@pytest.fixture(autouse=True)
def _isolate_registry():
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)


def span_rows(trace):
    return [(s.stream, s.label, s.start, s.end, s.bytes_on_wire)
            for s in trace.spans]


def instants(trace):
    return (trace.forward_end, trace.backward_end, trace.sync_end,
            trace.iteration_end)


STRAGGLER = FaultSchedule(stragglers=(
    StragglerFault(worker=0, slowdown=2.0, start_iteration=1,
                   duration_iterations=3),))

MODELS = ("resnet50", "bert-base")
SCHEMES = (
    SyncSGDScheme,
    lambda: PowerSGDScheme(rank=4),
    SignSGDScheme,
    lambda: TopKScheme(fraction=0.01),
    FP16Scheme,
)
WORLD_SIZES = (1, 8, 16, 32)
CONFIGS = (
    {},
    {"allreduce_algorithm": "double_tree"},
    {"allreduce_algorithm": "hierarchical"},
    {"allreduce_algorithm": "parameter_server"},
    {"overlap_compression": True},
    {"overlap_communication": False},
    {"compute_jitter": 0.0, "comm_jitter": 0.0},
)
RANDOM_CASES = 96


def random_case(rng):
    """(model, simulator builder, jitter seed, start, threaded count)
    drawn from the configuration space."""
    model = get_model(str(rng.choice(MODELS)))
    scheme_fn = SCHEMES[int(rng.integers(len(SCHEMES)))]
    gpus = int(rng.choice(WORLD_SIZES))
    cluster = (ClusterConfig(P3_2XLARGE, num_nodes=1) if gpus == 1
               else cluster_for_gpus(gpus))
    config = DDPConfig(**CONFIGS[int(rng.integers(len(CONFIGS)))])
    # The named schedules address workers and nodes a single GPU lacks.
    schedules = [None, STRAGGLER]
    if gpus > 1:
        schedules += list(SCHEDULES.values())
    faults = schedules[int(rng.integers(len(schedules)))]

    def build():
        return DDPSimulator(model, cluster, scheme=scheme_fn(),
                            config=config, faults=faults)

    return (model, build, int(rng.integers(1000)), int(rng.integers(12)),
            int(rng.integers(1, 5)))


def step_all(step, sim, bs, rng, start, count):
    """Thread ``rng`` through ``count`` iterations from ``start``; the
    traces, or the deterministic OOM message."""
    try:
        return [step(sim, bs, rng, i) for i in range(start, start + count)]
    except OutOfMemoryError as exc:
        return str(exc)


def kernel_step(sim, bs, rng, i):
    return sim.simulate_iteration(bs, rng, iteration=i)


class TestRandomizedOracle:
    """Seeded sweep: model x scheme x world size (incl. 1) x allreduce
    algorithm / overlap / jitter x fault schedule x start offset x
    threaded iteration count."""

    @pytest.mark.parametrize("case", range(RANDOM_CASES))
    def test_threaded_iterations_match_event_loop(self, case):
        model, build, seed, start, count = random_case(
            np.random.default_rng([2026, case]))
        bs = model.default_batch_size
        sim_k, sim_e = build(), build()
        rng_k = np.random.default_rng(seed)
        rng_e = np.random.default_rng(seed)
        got = step_all(kernel_step, sim_k, bs, rng_k, start, count)
        want = step_all(event_iteration, sim_e, bs, rng_e, start, count)
        if isinstance(want, str):
            assert got == want
        else:
            assert [span_rows(t) for t in got] == \
                [span_rows(t) for t in want]
            assert [instants(t) for t in got] == [instants(t) for t in want]
        # The caller's generator advanced by exactly the event loop's
        # draws, so the next iteration (or simulator) sees the same
        # stream.
        assert rng_k.bit_generator.state == rng_e.bit_generator.state
        if sim_k.injector is not None:
            assert (sim_k.injector.retransmits_injected,
                    sim_k.injector.retransmit_delay_s) == \
                (sim_e.injector.retransmits_injected,
                 sim_e.injector.retransmit_delay_s)


class TestSideEffects:
    """What a stepped iteration leaves behind besides its trace."""

    @pytest.mark.parametrize("scheme_fn,cfg", [
        (SyncSGDScheme, {}),
        (lambda: PowerSGDScheme(rank=4), {}),
        (lambda: PowerSGDScheme(rank=4), {"overlap_compression": True}),
        (SignSGDScheme, {}),
    ], ids=["baseline", "sequential", "overlapped", "allgather"])
    def test_registry_and_counters_match_oracle(self, scheme_fn, cfg):
        model = get_model("resnet50")
        bs = model.default_batch_size

        def stepped(step):
            registry = telemetry_metrics.enable()
            sim = DDPSimulator(model, cluster_for_gpus(8),
                               scheme=scheme_fn(), config=DDPConfig(**cfg),
                               faults=SCHEDULES["kitchen-sink"])
            rng = np.random.default_rng(5)
            for i in range(10):
                step(sim, bs, rng, i)
            return (registry.snapshot(), sim.injector.retransmits_injected,
                    sim.injector.retransmit_delay_s)

        snapshot, replays, delay = stepped(kernel_step)
        assert (snapshot, replays, delay) == stepped(event_iteration)
        # The schedule actually exercised every side effect.
        assert replays > 0
        assert snapshot["counters"]["sim_fault_retransmits_total"] == replays
        assert snapshot["counters"]["sim_fault_degraded_iterations_total"] \
            == 10

    def test_blocked_time_threads_one_stream(self, monkeypatch):
        # blocked_time_analysis threads one generator through four
        # simulators; with a jittery config each draws where the last
        # one stopped, exactly as on the event loop.
        model = get_model("resnet50")
        args = (model, cluster_for_gpus(16), PowerSGDScheme(rank=4))
        jittery = DDPConfig()
        got = blocked_time_analysis(*args, config=jittery)
        quiet = blocked_time_analysis(*args)
        monkeypatch.setattr(
            DDPSimulator, "simulate_iteration",
            lambda self, batch_size, rng: event_iteration(
                self, batch_size, rng))
        assert got == blocked_time_analysis(*args, config=jittery)
        assert got != quiet
