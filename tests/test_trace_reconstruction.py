"""Batch-kernel trace reconstruction vs the event loop's spans.

``repro.simulator.reconstruct`` derives per-iteration span timelines
from the batch kernel's recorded intermediates; its contract is *exact*
equality with what the event-loop oracle (:func:`event_iteration`)
emits — same spans (stream, label, start, end, bytes), same key
instants, same float bits — which is what lets ``--trace`` take the
vectorized kernel.  This module is that contract, across schemes, world
sizes, allreduce algorithms, and fault schedules, plus the CLI wiring
on top of it.
"""

import numpy as np
import pytest

from repro.compression import (
    FP16Scheme,
    scheme_from_spec,
    PowerSGDScheme,
    SignSGDScheme,
    SyncSGDScheme,
    TopKScheme,
)
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule, StragglerFault
from repro.hardware import P3_2XLARGE, ClusterConfig, cluster_for_gpus
from repro.models import get_model
from repro.simulator import (
    DDPConfig,
    DDPSimulator,
    reconstruct_traces,
    write_run_trace,
)
from repro.telemetry import (
    TraceRecorder,
    disable_tracing,
    enable_tracing,
)

from .oracle import event_iteration


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


def make_sim(model, scheme=None, gpus=8, config=None, faults=None):
    cluster = (ClusterConfig(P3_2XLARGE, num_nodes=1) if gpus == 1
               else cluster_for_gpus(gpus))
    return DDPSimulator(model, cluster, scheme=scheme, config=config,
                        faults=faults)


STRAGGLER = FaultSchedule(stragglers=(
    StragglerFault(worker=0, slowdown=2.0, start_iteration=1,
                   duration_iterations=3),))

# Scheme x world-size x algorithm x fault matrix covering every
# reconstruction path: baseline bucketed pipeline (all four allreduce
# algorithms, with and without overlap), sequential compressed,
# overlapped compressed, the p == 1 edge cases (no comm draws, no
# waves), and faulted runs (stalls, slowdowns, retransmits).
CASES = [
    ("syncsgd-p1", SyncSGDScheme(), 1, {}, None),
    ("syncsgd-p4", SyncSGDScheme(), 4, {}, None),
    ("syncsgd-p32", SyncSGDScheme(), 32, {}, None),
    ("syncsgd-no-overlap", SyncSGDScheme(), 8,
     {"overlap_communication": False}, None),
    ("syncsgd-double-tree", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "double_tree"}, None),
    ("syncsgd-hierarchical", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "hierarchical"}, None),
    ("syncsgd-param-server", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "parameter_server"}, None),
    ("powersgd-p8", PowerSGDScheme(rank=4), 8, {}, None),
    ("powersgd-p1", PowerSGDScheme(rank=4), 1, {}, None),
    ("powersgd-overlap-p8", PowerSGDScheme(rank=4), 8,
     {"overlap_compression": True}, None),
    ("powersgd-overlap-p1", PowerSGDScheme(rank=4), 1,
     {"overlap_compression": True}, None),
    ("topk-p8", TopKScheme(fraction=0.01), 8, {}, None),
    ("signsgd-overlap", SignSGDScheme(), 8,
     {"overlap_compression": True}, None),
    ("fp16-p8", FP16Scheme(), 8, {}, None),
    ("closed-form", SyncSGDScheme(), 8,
     {"compute_jitter": 0.0, "comm_jitter": 0.0}, None),
    ("syncsgd-faulted", SyncSGDScheme(), 8, {}, STRAGGLER),
    ("powersgd-faulted", PowerSGDScheme(rank=4), 8, {}, STRAGGLER),
    ("powersgd-overlap-faulted", PowerSGDScheme(rank=4), 8,
     {"overlap_compression": True}, STRAGGLER),
    ("double-tree-faulted", SyncSGDScheme(), 8,
     {"allreduce_algorithm": "double_tree"}, STRAGGLER),
]


def span_rows(trace):
    return [(s.stream, s.label, s.start, s.end, s.bytes_on_wire)
            for s in trace.spans]


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "scheme,gpus,cfg,faults", [c[1:] for c in CASES],
        ids=[c[0] for c in CASES])
    def test_reconstructed_spans_match_event_loop(self, rn50, scheme,
                                                  gpus, cfg, faults):
        iterations = 6
        config = DDPConfig(**cfg)
        reconstructed = reconstruct_traces(
            make_sim(rn50, scheme, gpus, config, faults),
            iterations=iterations, seed=0)
        event_sim = make_sim(rn50, scheme, gpus, config, faults)
        rng = np.random.default_rng(0)
        for i in range(iterations):
            event = event_iteration(event_sim, rn50.default_batch_size,
                                    rng, iteration=i)
            got = reconstructed[i]
            # Exact float equality on every span and key instant — the
            # reconstruction replays the kernel's own arithmetic, it
            # does not re-derive it approximately.
            assert span_rows(got) == span_rows(event)
            assert got.forward_end == event.forward_end
            assert got.backward_end == event.backward_end
            assert got.sync_end == event.sync_end
            assert got.iteration_end == event.iteration_end

    @pytest.mark.parametrize(
        "scheme,gpus,cfg,faults", [c[1:] for c in CASES],
        ids=[c[0] for c in CASES])
    def test_traced_run_illustrates_its_first_iteration(
            self, rn50, monkeypatch, scheme, gpus, cfg, faults):
        # A traced run() rebuilds its illustrative iteration from its
        # own kernel record; it must be the event loop's iteration 0.
        captured = []
        monkeypatch.setattr(
            TraceRecorder, "add_iteration_trace",
            lambda self, trace, **_: captured.append(trace))
        config = DDPConfig(**cfg)
        enable_tracing()
        try:
            make_sim(rn50, scheme, gpus, config, faults).run(
                iterations=6, warmup=1, seed=3)
        finally:
            disable_tracing()
        event = event_iteration(make_sim(rn50, scheme, gpus, config, faults),
                                rn50.default_batch_size,
                                np.random.default_rng(3))
        assert [span_rows(t) for t in captured] == [span_rows(event)]
        assert captured[0].iteration_end == event.iteration_end

    def test_reconstruction_is_pure(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8, faults=STRAGGLER)
        before = sim.run(iterations=12, warmup=2, seed=0)
        reconstruct_traces(sim, iterations=4, seed=0)
        after = sim.run(iterations=12, warmup=2, seed=0)
        assert before == after

    def test_seed_matters(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        a = reconstruct_traces(sim, iterations=2, seed=0)
        b = reconstruct_traces(sim, iterations=2, seed=1)
        assert span_rows(a[0]) != span_rows(b[0])

    def test_iterations_validated(self, rn50):
        sim = make_sim(rn50, SyncSGDScheme(), 8)
        with pytest.raises(ConfigurationError):
            reconstruct_traces(sim, iterations=0)


class TestCLIByteIdentity:
    def export(self, tmp_path, name, faults_path=None):
        from repro.cli import main
        out = tmp_path / name
        argv = ["simulate", "--model", "resnet50", "--gpus", "8",
                "--scheme", "powersgd:rank=4", "--iterations", "12",
                "--trace", str(out)]
        if faults_path is not None:
            argv += ["--faults", str(faults_path)]
        assert main(argv) == 0
        return out.read_bytes()

    def oracle(self, tmp_path, name, faults=None, workers=2, iterations=3):
        """The same export stepped on the event-loop oracle."""
        model = get_model("resnet50")
        sim = make_sim(model, scheme_from_spec("powersgd:rank=4"), 8,
                       faults=faults)
        traces = {}
        for w in range(workers):
            rng = np.random.default_rng(w)
            traces[f"worker{w}"] = [
                event_iteration(sim, model.default_batch_size, rng,
                                iteration=i)
                for i in range(iterations)]
        out = tmp_path / name
        write_run_trace(traces, str(out))
        return out.read_bytes()

    def test_trace_file_matches_event_loop(self, tmp_path):
        assert self.export(tmp_path, "kernel.json") == \
            self.oracle(tmp_path, "event.json")

    def test_faulted_trace_file_matches_event_loop(self, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text(
            '{"stragglers": [{"worker": 0, "slowdown": 2.0, '
            '"start_iteration": 1, "duration_iterations": 3}]}')
        assert self.export(tmp_path, "fk.json", spec) == \
            self.oracle(tmp_path, "fe.json", FaultSchedule.load(str(spec)))
