"""Command-line interface."""

import gc
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from repro import __version__
from repro.cli import _parse_scheme, build_parser, main
from repro.engine import PackStore
from repro.telemetry import logs as telemetry_logs
from repro.telemetry import metrics as telemetry_metrics

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    """main() configures the process-global registry and log sink;
    restore both so CLI tests cannot leak state into other modules."""
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)
    telemetry_logs.configure()


class TestSchemeParsing:
    def test_bare_name(self):
        assert _parse_scheme("signsgd").name == "signsgd"

    def test_int_param(self):
        scheme = _parse_scheme("powersgd:rank=8")
        assert scheme.rank == 8

    def test_float_param(self):
        scheme = _parse_scheme("topk:fraction=0.05")
        assert scheme.fraction == pytest.approx(0.05)

    def test_multiple_params(self):
        scheme = _parse_scheme("gradiveq:block=128,dims=16")
        assert scheme.block == 128 and scheme.dims == 16

    def test_bad_param_rejected(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            _parse_scheme("powersgd:rank")


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("experiment", "recommend", "whatif", "simulate"):
            args = parser.parse_args(
                [cmd] + (["table1"] if cmd == "experiment" else []))
            assert args.command == cmd

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "powersgd" in out and "all_reduce" in out

    def test_experiment_markdown(self, capsys):
        assert main(["experiment", "table2", "--markdown"]) == 0
        assert "| method |" in capsys.readouterr().out

    def test_recommend(self, capsys):
        assert main(["recommend", "--model", "resnet50", "--gpus", "16",
                     "--batch", "64"]) == 0
        assert "recommendation" in capsys.readouterr().out

    def test_recommend_custom_bandwidth(self, capsys):
        assert main(["recommend", "--model", "resnet50", "--gpus", "16",
                     "--batch", "64", "--bandwidth", "1"]) == 0
        out = capsys.readouterr().out
        # at 1 Gbit/s compression wins
        assert "powersgd" in out

    def test_whatif(self, capsys):
        assert main(["whatif", "--model", "resnet50", "--gpus", "32",
                     "--batch", "64", "--scheme", "powersgd:rank=4"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth sweep" in out and "compute sweep" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--iterations", "15"]) == 0
        out = capsys.readouterr().out
        assert "sync time" in out and "compute" in out

    def test_simulate_with_scheme(self, capsys):
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--scheme", "signsgd",
                     "--iterations", "15"]) == 0
        assert "signsgd" in capsys.readouterr().out

    def test_error_exit_code(self, capsys):
        assert main(["whatif", "--model", "resnet50",
                     "--scheme", "nosuch"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_with_faults(self, capsys, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({
            "seed": 7,
            "stragglers": [{"worker": 0, "slowdown": 2.0,
                            "start_iteration": 4,
                            "duration_iterations": 4}],
        }))
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--iterations", "12",
                     "--faults", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "faults: 1 stragglers (seed 7)" in out

    def test_simulate_bad_faults_spec(self, capsys, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text('{"gremlins": []}')
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--faults", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_unpriceable_retransmits(self, capsys, tmp_path):
        # Each timeout is finite, but priced delays this close to the
        # float limit sum to inf, which the trace cannot render.
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"retransmits": [{
            "drop_rate": 0.9999, "timeout_s": 1e307, "backoff": 10,
            "max_retries": 2}]}))
        assert main(["simulate", "--gpus", "8", "--iterations", "12",
                     "--faults", str(spec)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == err.splitlines()
        assert "must total <=" in err

    def test_simulate_at_the_delay_bound_stays_finite(self, capsys,
                                                      tmp_path):
        # The largest accepted policy, dropping nearly every transfer of
        # the most iterations a run may have: no overflow warning, and
        # no inf or NaN in the report.
        from repro.faults.schedule import MAX_RETRANSMIT_DELAY_S
        from repro.simulator.batch import MAX_ITERATIONS
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"retransmits": [{
            "drop_rate": 0.9999, "timeout_s": MAX_RETRANSMIT_DELAY_S,
            "backoff": 1, "max_retries": 1}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--gpus", "8", "--iterations",
                         str(MAX_ITERATIONS), "--faults", str(spec)]) == 0
        words = set(re.findall(r"[a-z]+", capsys.readouterr().out.lower()))
        assert not words & {"nan", "inf"}

    @pytest.mark.parametrize("flag", ["--request-timeout-s",
                                      "--batch-window-ms", "--quota-rps"])
    def test_serve_rejects_nan_policy(self, flag):
        # A subprocess, so a regression that starts the server fails
        # on the timeout instead of hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--log-json", "serve",
             "--port", "0", flag, "nan"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "listening" not in proc.stdout
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["level"] == "error"
        assert record["error_type"] == "ConfigurationError"
        assert record["command"] == "serve"

    def test_experiment_reliability_listed(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "reliability"])
        assert args.id == "reliability"


class TestTelemetryFlags:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_error_logged_as_json(self, capsys):
        assert main(["--log-json", "whatif", "--model", "resnet50",
                     "--scheme", "nosuch"]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["level"] == "error"
        assert record["error_type"] == "ConfigurationError"
        assert record["command"] == "whatif"
        assert "nosuch" in record["event"]

    def test_main_enables_registry_by_default(self, capsys):
        main(["recommend", "--model", "resnet50", "--gpus", "16",
              "--batch", "64"])
        assert telemetry_metrics.get_registry().enabled

    def test_no_telemetry_keeps_null_backend(self, capsys):
        main(["--no-telemetry", "simulate", "--model", "resnet50",
              "--gpus", "8", "--batch", "64", "--iterations", "12"])
        assert not telemetry_metrics.get_registry().enabled

    def test_simulate_metrics_report(self, capsys):
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--iterations", "12",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "sim_iterations_total" in out


class TestSimulateTraceExport:
    def test_trace_file_written(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["simulate", "--model", "resnet50", "--gpus", "8",
                     "--batch", "64", "--iterations", "12",
                     "--trace", str(path),
                     "--trace-iterations", "2",
                     "--trace-workers", "2"]) == 0
        assert "wrote Perfetto trace" in capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        # Acceptance shape: >= 2 named streams and a counter track.
        stream_names = {e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"compute", "comm"} <= stream_names
        assert [e for e in events if e["ph"] == "C"]
        # Two workers -> two processes with their own span sets.
        assert {e["pid"] for e in events if e["ph"] == "X"} == {0, 1}


class TestExperimentManifest:
    def test_manifest_written_beside_cache(self, capsys, tmp_path):
        from repro.engine.fingerprint import digest
        from repro.telemetry import read_manifest, verify_manifest
        cache_dir = tmp_path / "cache"
        assert main(["experiment", "table1", "--cache",
                     str(cache_dir)]) == 0
        manifest = read_manifest(str(cache_dir / "manifest.json"))
        assert verify_manifest(manifest)
        assert manifest["fingerprint"] == digest(manifest["config"])
        assert manifest["command"] == "experiment table1"
        assert manifest["config"]["id"] == "table1"
        assert manifest["wall_time_s"] > 0
        assert manifest["results"]["exhibits"]["table1"]["rows"] > 0
        assert manifest["results"]["engine"]["jobs_completed"] >= 0
        # table1 is analytic (no simulations), so the snapshot may be
        # empty — but it must have the registry shape.
        assert set(manifest["metrics"]) \
            == {"counters", "gauges", "histograms"}

    def test_explicit_manifest_path(self, capsys, tmp_path):
        from repro.telemetry import read_manifest
        path = tmp_path / "custom.json"
        assert main(["experiment", "table1", "--manifest",
                     str(path)]) == 0
        assert read_manifest(str(path))["command"] == "experiment table1"

    def test_no_manifest_without_cache_or_flag(self, capsys, tmp_path):
        assert main(["experiment", "table1"]) == 0
        assert not list(tmp_path.iterdir())

    def test_status_line_format_unchanged(self, capsys, tmp_path):
        """The human-facing cache status line is stable API for eyes."""
        assert main(["experiment", "table1", "--cache",
                     str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "[table1]" in out and "cache:" in out and "hits" in out

    def test_manifest_records_cache_tiers(self, capsys, tmp_path):
        from repro.telemetry import read_manifest
        cache_dir = tmp_path / "cache"
        assert main(["experiment", "fig4", "--cache", str(cache_dir),
                     "--cache-mem-mb", "8"]) == 0
        manifest = read_manifest(str(cache_dir / "manifest.json"))
        cache_info = manifest["results"]["cache"]
        assert cache_info["pack"]["entries"] > 0
        assert cache_info["memory"]["max_bytes"] == 8 * 1024 * 1024
        assert manifest["config"]["cache_mem_mb"] == 8.0
        engine_stats = manifest["results"]["engine"]
        assert "cache_memory_hits" in engine_stats
        assert "cache_pack_hits" in engine_stats
        assert "cache_evictions" in engine_stats


class TestCacheIsClosed:
    def test_experiment_leaves_no_pack_segment_open(self, capsys,
                                                     tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["experiment", "fig7", "--cache",
                         str(tmp_path)]) == 0
            gc.collect()
        assert (tmp_path / "pack-000001.jsonl").exists()
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "pack-000001.jsonl" in str(w.message)]
        assert unclosed == []


class TestCacheSubcommand:
    def _seed_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["experiment", "fig4", "--cache",
                     str(cache_dir)]) == 0
        return cache_dir

    def test_stats(self, capsys, tmp_path):
        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "pack:" in out and "legacy:" not in out
        assert "distinct keys" in out

    def test_verify_healthy(self, capsys, tmp_path):
        cache_dir = self._seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache", str(cache_dir)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_verify_detects_truncation(self, capsys, tmp_path):
        cache_dir = self._seed_cache(tmp_path)
        segments = sorted(cache_dir.glob("pack-0*.jsonl"))
        raw = segments[0].read_bytes()
        segments[0].write_bytes(raw[:len(raw) // 2])
        capsys.readouterr()
        assert main(["cache", "verify", "--cache", str(cache_dir)]) == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", ["[]", '"x"', "1", "null"])
    def test_non_object_pack_record_fails_verify_cleanly(
            self, capsys, tmp_path, entry):
        store = PackStore(str(tmp_path))
        store.append_many([("a" * 64, json.loads(entry))])
        store.close()
        assert main(["cache", "verify", "--cache", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "FAILED" in out

    def test_compact_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["cache", "compact", "--cache", str(tmp_path)])
        assert exc_info.value.code == 2
        assert "invalid choice: 'compact'" in capsys.readouterr().err

    def test_missing_directory_is_an_error(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache",
                     str(tmp_path / "nope")]) == 2
