"""Checks of the benchmark itself (not part of tier-1).

Run from the repository root with ``python -m pytest bench/tests``.
Each workload runs in-process for one repetition, untraced and traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = compare.load_benchmark()
with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as _f:
    LAYERS = {k: v for k, v in json.load(_f).items() if k != "about"}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_benchmark_json_follows_the_schema():
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    command = BENCHMARK["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(c, str) and len(c) <= 200 for c in command)
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    for path in BENCHMARK["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    run_seconds = BENCHMARK["run_seconds"]
    assert isinstance(run_seconds, int) and 1 <= run_seconds <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = {m["name"]: m for m in BENCHMARK["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS) == PER_LAYER
    for spec in LAYERS.values():
        assert set(spec["moves"]) <= END_TO_END
        assert set(spec["on"]) <= set(WORKLOADS)
        assert set(spec["zero_on"]) <= set(WORKLOADS)
        assert not set(spec["on"]) & set(spec["zero_on"])


def test_exhibit_references_match_checked_in_results():
    expected = workloads.load_expected()["exhibits"]
    for exp_id, digest in expected.items():
        path = os.path.join(ROOT, "results", f"{exp_id}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                assert workloads.sha256(handle.read()) == digest, exp_id


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_repetition_emits_the_end_to_end_metrics(name, tmp_path):
    out = worker.run(name, str(tmp_path), reps=1)
    assert out["failed"] == 0, out["errors"]
    metrics = run.end_to_end(out)
    assert set(metrics) == END_TO_END
    assert all(values[0] > 0 for values in metrics.values())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    # serve-mixed keeps its default phase size: a repetition per client
    # is too few requests to reach the cache twice.
    return {name: worker.run(name, str(tmp_path_factory.mktemp(name)),
                             reps=None if name == "serve-mixed" else 1,
                             trace=True)
            for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_repetition_emits_the_per_layer_metrics(traced, name):
    out = traced[name]
    assert out["failed"] == 0, out["errors"]
    assert set(out["per_layer"]) == PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_metrics_are_non_zero_or_zero_where_declared(traced, name):
    metrics = traced[name]["per_layer"]
    for metric, spec in LAYERS.items():
        if name in spec["on"]:
            assert metrics[metric] > 0, metric
        if name in spec["zero_on"]:
            assert metrics[metric] == 0, metric


def test_every_probe_fires_on_some_workload(traced):
    fired = {name for out in traced.values() for name in out["fired"]}
    for probe in ledger.PROBES:
        path = probe.target.partition(":")[2]
        if probe.subclasses:
            method = "." + path.split(".")[-1]
            hit = any(f.startswith(probe.key + ":") and f.endswith(method)
                      for f in fired)
        else:
            hit = f"{probe.key}:{path}" in fired
        assert hit, probe.target


def test_instrumentation_restores_every_original():
    from repro.core import grid
    from repro.engine.engine import SimJob
    originals = (grid.syncsgd_time_grid, SimJob.fingerprint)
    with ledger.Instrumentation():
        assert grid.syncsgd_time_grid is not originals[0]
    assert (grid.syncsgd_time_grid, SimJob.fingerprint) == originals


def test_a_corrupted_reference_fails_every_operation(tmp_path, monkeypatch):
    expected = workloads.load_expected()
    expected["exhibits"]["fig4"] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    out = worker.run("exhibits-cold", str(tmp_path), reps=1)
    assert out["attempted"] == 2  # the warm-up and the timed repetition
    assert out["failed"] == 2
    assert "fig4" in out["errors"][0]


def test_compare_verdicts():
    assert compare.verdict([1.0] * 5, [1.05] * 5, "lower", 0.1) == \
        "within bound"
    assert compare.verdict([1.0] * 5, [1.2] * 5, "lower", 0.1) == "worse"
    assert compare.verdict([1.0] * 5, [0.8] * 5, "higher", 0.1) == "worse"
    noisy = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert compare.verdict(noisy, [1.3, 0.7, 1.1, 1.5, 1.0], "lower",
                           0.1) == "unresolved"


def test_run_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exhibits-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
