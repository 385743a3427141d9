"""Batch kernel vs the event-loop oracle: bit-identity and wiring.

``DDPSimulator.run`` computes every run through the vectorized kernel
in :mod:`repro.simulator.batch`; the event-loop oracle in
``tests/oracle.py`` is the readable spec it must reproduce.  This
module is the contract: exact ``TimingResult`` equality (no approx)
against :func:`event_run` across schemes, world sizes, and jitter
settings, a seeded randomized sweep over the whole configuration
space, and the CLI/engine wiring around the single kernel path.
"""

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
from repro.errors import ConfigurationError, OutOfMemoryError
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
from repro.simulator import DDPConfig, DDPSimulator, write_run_trace
from repro.simulator import batch as batch_module
from repro.telemetry import disable_tracing, enable_tracing

from . import oracle
from .oracle import event_iteration, event_run
from .oracle import ring_allreduce_time as ring_oracle


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def solo_cluster():
    """A genuine world_size=1 cluster (cluster_for_gpus needs >= 4)."""
    return ClusterConfig(P3_2XLARGE, num_nodes=1)


def make_sim(model, scheme=None, gpus=8, config=None, faults=None):
    cluster = solo_cluster() if gpus == 1 else cluster_for_gpus(gpus)
    return DDPSimulator(model, cluster, scheme=scheme, config=config,
                        faults=faults)


def run_both(sim, iterations=14, warmup=3, seed=0, batch_size=None):
    event = event_run(sim, batch_size, iterations=iterations,
                      warmup=warmup, seed=seed)
    batch = sim.run(batch_size, iterations=iterations, warmup=warmup,
                    seed=seed)
    return event, batch


def spy_kernel(monkeypatch):
    """Count kernel calls and forbid per-iteration stepping inside
    ``run()``: one kernel call covers the whole run."""
    calls = []
    real = batch_module.run_batch

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("run() must not step single iterations")

    monkeypatch.setattr(batch_module, "run_batch", counting)
    monkeypatch.setattr(DDPSimulator, "simulate_iteration", forbidden)
    return calls


# Scheme x world-size x jitter matrix covering every kernel branch:
# baseline bucketed pipeline (with and without overlap / hook cost),
# sequential compressed, overlapped compressed, single worker (p == 1,
# skipped comm draws), and jitter-free configs.
CASES = [
    ("syncsgd-p1", SyncSGDScheme(), 1, {}),
    ("syncsgd-p8", SyncSGDScheme(), 8, {}),
    ("syncsgd-p32", SyncSGDScheme(), 32, {}),
    ("syncsgd-no-overlap", SyncSGDScheme(), 8,
     {"overlap_communication": False}),
    ("powersgd-p8", PowerSGDScheme(rank=4), 8, {}),
    ("powersgd-p1", PowerSGDScheme(rank=4), 1, {}),
    ("powersgd-overlap-p8", PowerSGDScheme(rank=4), 8,
     {"overlap_compression": True}),
    ("powersgd-overlap-p1", PowerSGDScheme(rank=4), 1,
     {"overlap_compression": True}),
    ("topk-p8", TopKScheme(fraction=0.01), 8, {}),
    ("signsgd-p8", SignSGDScheme(), 8, {}),
    ("signsgd-overlap", SignSGDScheme(), 8, {"overlap_compression": True}),
    ("fp16-p8", FP16Scheme(), 8, {}),
    ("syncsgd-double-tree", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "double_tree"}),
    ("syncsgd-hierarchical", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "hierarchical"}),
    ("syncsgd-param-server", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "parameter_server"}),
    ("compute-jitter-only", SyncSGDScheme(), 8, {"comm_jitter": 0.0}),
    ("comm-jitter-only", PowerSGDScheme(rank=4), 8,
     {"compute_jitter": 0.0}),
    ("closed-form", SyncSGDScheme(), 8,
     {"compute_jitter": 0.0, "comm_jitter": 0.0}),
    ("closed-form-overlapped", PowerSGDScheme(rank=4), 8,
     {"compute_jitter": 0.0, "comm_jitter": 0.0,
      "overlap_compression": True}),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "scheme,gpus,cfg", [c[1:] for c in CASES],
        ids=[c[0] for c in CASES])
    def test_rows_byte_identical(self, rn50, scheme, gpus, cfg):
        sim = make_sim(rn50, scheme, gpus, DDPConfig(**cfg))
        event, batch = run_both(sim)
        # Dataclass equality over the full row: every float in the
        # per-iteration tuple must be the same bits, not merely close.
        assert event == batch
        assert event.iteration_times == batch.iteration_times

    def test_seed_still_matters_on_batch_path(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        a = sim.run(iterations=14, warmup=3, seed=1)
        b = sim.run(iterations=14, warmup=3, seed=2)
        assert a.iteration_times != b.iteration_times

    def test_closed_form_rows_are_constant(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8,
                       DDPConfig(compute_jitter=0.0, comm_jitter=0.0))
        result = sim.run(iterations=14, warmup=3)
        assert len(set(result.iteration_times)) == 1


class TestModeResolution:
    """``run()`` has one path: the kernel, never the event loop."""

    def test_auto_resolves_to_batch_when_clean(self, rn50, monkeypatch):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        calls = spy_kernel(monkeypatch)
        sim.run(iterations=12, warmup=2)
        assert calls == [sim]

    def test_faults_take_batch_path(self, rn50, monkeypatch):
        faults = FaultSchedule(stragglers=(
            StragglerFault(worker=0, slowdown=2.0, start_iteration=3,
                           duration_iterations=4),))
        sim = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        calls = spy_kernel(monkeypatch)
        sim.run(iterations=12, warmup=2)
        assert calls == [sim]

    def test_explicit_batch_with_faults_matches_event(self, rn50):
        faults = FaultSchedule(stragglers=(
            StragglerFault(worker=0, slowdown=2.0, start_iteration=3),))
        sim_b = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        sim_e = make_sim(rn50, SyncSGDScheme(), 8, faults=faults)
        assert sim_b.run(iterations=12, warmup=2) == \
            event_run(sim_e, iterations=12, warmup=2)

    def test_empty_fault_schedule_takes_batch(self, rn50, monkeypatch):
        sim = make_sim(rn50, SyncSGDScheme(), 8, faults=FaultSchedule())
        assert sim.injector is None
        calls = spy_kernel(monkeypatch)
        sim.run(iterations=12, warmup=2)
        assert calls == [sim]

    def test_tracing_stays_on_batch(self, rn50, monkeypatch):
        # A traced run still takes the kernel; its illustrative
        # iteration is reconstructed, not stepped on the event loop.
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        calls = spy_kernel(monkeypatch)
        enable_tracing()
        try:
            sim.run(iterations=12, warmup=2)
        finally:
            disable_tracing()
        assert calls == [sim]


class TestCLIReporting:
    def test_simulate_trace_stays_on_batch(self, capsys, tmp_path, rn50):
        # The exported spans come from batch-kernel reconstruction and
        # are byte-identical to the event-loop oracle's.
        from repro.cli import main
        trace = tmp_path / "trace.json"
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--iterations", "12", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sim mode" not in out
        sim = make_sim(rn50, gpus=8)
        workers = {}
        for w in range(2):
            rng = np.random.default_rng(w)
            workers[f"worker{w}"] = [
                event_iteration(sim, rn50.default_batch_size, rng,
                                iteration=i)
                for i in range(3)]
        oracle = tmp_path / "oracle.json"
        write_run_trace(workers, str(oracle))
        assert trace.read_bytes() == oracle.read_bytes()


class TestEngineWiring:
    def job(self, model, **kwargs):
        kwargs.setdefault("iterations", 12)
        kwargs.setdefault("warmup", 2)
        return SimJob(model=model, cluster=cluster_for_gpus(8), **kwargs)

    def test_engine_modes_agree(self, rn50):
        # Engine outcomes (serial, pooled) agree with the event oracle.
        jobs = [self.job(rn50),
                self.job(rn50, scheme=PowerSGDScheme(rank=4))]
        oracle = [event_run(job.build_simulator(), iterations=12, warmup=2)
                  for job in jobs]
        for engine in (ExperimentEngine(jobs=1),
                       ExperimentEngine(jobs=2)):
            assert [o.result for o in engine.run_outcomes(jobs)] == oracle


class TestVectorizedPrimitives:
    def test_ring_allreduce_batch_matches_scalar(self):
        payloads = np.array([0.0, 1.0, 25e6, 1e9])
        batch = ring_allreduce_time(payloads, 8, 10e9, 5e-6)
        scalar = [ring_oracle(float(b), 8, 10e9, 5e-6)
                  for b in payloads]
        assert batch.tolist() == scalar

    def test_single_worker_collective_is_free(self):
        assert ring_allreduce_time(
            np.array([1e6]), 1, 10e9, 5e-6).tolist() == [0.0]

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_allreduce_time(np.array([-1.0]), 8, 10e9, 5e-6)


class TestJitterDraw:
    """``_SlotLayout.draw`` draws an all-present matrix at its broadcast
    shape; it must consume the generator exactly like the masked
    gather it skips, and partly-present rows keep the masked path."""

    @staticmethod
    def layout(rng):
        layout = batch_module._SlotLayout()
        for _ in range(int(rng.integers(0, 12))):
            sigma = float(rng.choice([0.0, 0.015, 0.05,
                                      rng.uniform(0.001, 0.3)]))
            if rng.random() < 0.3:
                layout.slots(sigma, int(rng.integers(0, 5)))
            else:
                layout.slot(sigma)
        return layout

    def test_draw_matches_masked_oracle_in_values_and_state(self):
        rng = np.random.default_rng(2504)
        for case in range(60):
            layout = self.layout(rng)
            n, S = int(rng.integers(1, 40)), len(layout.sigmas)
            kind = case % 3
            if kind == 0:
                present = np.ones((n, S), dtype=bool)
            elif kind == 1:
                present = rng.random((n, S)) < 0.7
            else:
                present = np.ones((n, S), dtype=bool)
                if S:
                    present[int(rng.integers(0, n)), :] = False
            seed = int(rng.integers(0, 2**32))
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = layout.draw(got_rng, present)
            want = oracle.masked_draw_oracle(layout.sigmas, want_rng,
                                             present)
            assert got.shape == want.shape == (n, S)
            assert got.tobytes() == want.tobytes()
            assert (got[~present] == 1.0).all()
            assert got_rng.bit_generator.state == \
                want_rng.bit_generator.state


# ----- randomized property: run() == event_run over the config space --------

MODELS = ("resnet50", "resnet101", "vgg16", "bert-base")
WORLD_SIZES = (1, 4, 8, 16, 32)
ALGORITHMS = ("ring", "double_tree", "hierarchical", "parameter_server")
RANDOM_SCHEMES = (
    SyncSGDScheme,
    FP16Scheme,
    lambda: PowerSGDScheme(rank=4),
    lambda: TopKScheme(fraction=0.01),
    SignSGDScheme,
)
RANDOM_CASES = 48


def random_schedule(rng, cluster):
    """A fault schedule valid for ``cluster`` (or ``None``): each fault
    kind joins independently, within the cluster's topology."""
    if rng.random() < 0.3:
        return None
    p, nodes = cluster.world_size, cluster.num_nodes
    kinds = {}
    if rng.random() < 0.5:
        kinds["stragglers"] = (StragglerFault(
            worker=int(rng.integers(p)), slowdown=1.5 + rng.random(),
            start_iteration=int(rng.integers(6)),
            duration_iterations=int(rng.integers(2, 6))),)
    if nodes > 1 and rng.random() < 0.4:
        kinds["links"] = (LinkFault(
            node_a=0, node_b=nodes - 1, factor=0.2 + 0.5 * rng.random(),
            start_iteration=int(rng.integers(4)), duration_iterations=3,
            period_iterations=5),)
    if rng.random() < 0.4:
        kinds["nodes"] = (NodeFault(
            node=int(rng.integers(nodes)), factor=0.25 + 0.5 * rng.random(),
            start_iteration=int(rng.integers(6))),)
    if rng.random() < 0.4:
        kinds["retransmits"] = (RetransmitFault(
            drop_rate=0.1 + 0.3 * rng.random(), timeout_s=1e-3),)
    if p > 1 and rng.random() < 0.4:
        kinds["crashes"] = (CrashFault(
            worker=p - 1, at_iteration=int(rng.integers(2, 10)),
            recovery=str(rng.choice(["restart", "elastic"])),
            stall_s=0.2),)
    return FaultSchedule(seed=int(rng.integers(1000)), **kinds)


def random_case(rng):
    """One (simulator builder, seed) drawn from the configuration space."""
    model = get_model(str(rng.choice(MODELS)))
    gpus = int(rng.choice(WORLD_SIZES))
    cluster = solo_cluster() if gpus == 1 else cluster_for_gpus(gpus)
    scheme_fn = RANDOM_SCHEMES[int(rng.integers(len(RANDOM_SCHEMES)))]
    jitter = rng.random() < 0.75
    config = DDPConfig(
        allreduce_algorithm=str(rng.choice(ALGORITHMS)),
        overlap_compression=bool(rng.random() < 0.5),
        compute_jitter=0.015 if jitter else 0.0,
        comm_jitter=0.05 if jitter else 0.0)
    faults = random_schedule(rng, cluster)

    def build():
        return DDPSimulator(model, cluster, scheme=scheme_fn(),
                            config=config, faults=faults)

    return build, int(rng.integers(1000))


def outcome(fn):
    """A run's result, or its deterministic OOM message."""
    try:
        return fn()
    except OutOfMemoryError as exc:
        return str(exc)


class TestRandomizedOracle:
    """Seeded sweep: model x world size (incl. 1) x scheme x allreduce
    algorithm x overlap_compression x jitter x fault schedule."""

    @pytest.mark.parametrize("case", range(RANDOM_CASES))
    def test_run_matches_event_loop(self, case):
        rng = np.random.default_rng([2022, case])
        build, seed = random_case(rng)
        sim_k, sim_e = build(), build()
        kernel = outcome(lambda: sim_k.run(iterations=13, warmup=3,
                                           seed=seed))
        event = outcome(lambda: event_run(sim_e, iterations=13, warmup=3,
                                          seed=seed))
        assert kernel == event
        if sim_k.injector is not None:
            assert (sim_k.injector.retransmits_injected,
                    sim_k.injector.retransmit_delay_s) == \
                (sim_e.injector.retransmits_injected,
                 sim_e.injector.retransmit_delay_s)
