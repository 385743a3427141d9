"""Experiment harness: result containers and quick runs of each module."""

import hashlib
import inspect
import json
import math
from pathlib import Path

import pytest

from repro.engine import ExperimentEngine
from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    ExperimentResult,
    run_fig3,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_ext_tta,
    run_table1,
    run_table2,
    scaling_clusters,
    speedup,
)


class TestExperimentResult:
    def test_column_extraction(self):
        result = ExperimentResult(
            experiment_id="t", title="x", columns=("a", "b"),
            rows=({"a": 1, "b": 2}, {"a": 3, "b": 4}))
        assert result.column("a") == [1, 3]

    def test_missing_column_rejected(self):
        result = ExperimentResult(
            experiment_id="t", title="x", columns=("a",),
            rows=({"a": 1},))
        with pytest.raises(ConfigurationError):
            result.column("z")

    def test_rows_must_cover_columns(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ExperimentResult(experiment_id="t", title="x",
                             columns=("a", "b"), rows=({"a": 1},))

    def test_select_and_single(self):
        result = ExperimentResult(
            experiment_id="t", title="x", columns=("a", "b"),
            rows=({"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 9}))
        assert len(result.select(a=1)) == 2
        assert result.single(a=2)["b"] == 9
        with pytest.raises(ConfigurationError):
            result.single(a=1)

    def test_render_table_contains_data(self):
        result = ExperimentResult(
            experiment_id="t", title="demo", columns=("a",),
            rows=({"a": 1.2345},), notes=("skipped nothing",))
        text = result.render_table("{:.2f}")
        assert "demo" in text and "1.23" in text and "skipped" in text

    def test_speedup_helper(self):
        assert speedup(2.0, 1.0) == pytest.approx(0.5)
        assert speedup(1.0, 2.0) == pytest.approx(-1.0)
        with pytest.raises(ConfigurationError):
            speedup(0.0, 1.0)

    def test_scaling_clusters_world_sizes(self):
        assert [c.world_size for c in scaling_clusters((8, 96))] == [8, 96]


class TestRegistryCompleteness:
    def test_every_paper_exhibit_registered(self):
        expected = ({"table1", "table2", "ext-tta"}
                    | {f"fig{i}" for i in range(2, 14)})
        assert set(EXPERIMENTS) == expected

    def test_runners_are_callable(self):
        for runner in EXPERIMENTS.values():
            assert callable(runner)


class TestAnalyticExperiments:
    """The model-only experiments run in milliseconds; check full output."""

    def test_table1_matches_paper(self):
        result = run_table1()
        for row in result.rows:
            assert row["all_reduce"] == row["paper_all_reduce"]
            assert row["layerwise"] == row["paper_layerwise"]
            assert row["verified_all_reduce"] == row["all_reduce"]

    def test_table2_within_tolerance(self):
        result = run_table2()
        for row in result.rows:
            assert row["model_ms"] == pytest.approx(row["paper_ms"],
                                                    rel=0.07)

    def test_fig9_ratios_small(self):
        result = run_fig9()
        ratios = [r for r in result.column("required_ratio")
                  if math.isfinite(r)]
        assert ratios
        assert max(ratios) < 12.0

    def test_fig9_bandwidth_lowers_requirement(self):
        result = run_fig9()
        r10 = result.single(model="resnet50", bandwidth_gbps=10.0,
                            batch_size=32)["required_ratio"]
        r25 = result.single(model="resnet50", bandwidth_gbps=25.0,
                            batch_size=32)["required_ratio"]
        assert r25 <= r10

    def test_fig10_headroom_ordering(self):
        result = run_fig10()
        at_152 = {row["model"]: row["headroom_ms"]
                  for row in result.select(gpus=152)}
        assert (at_152["resnet50"] < at_152["resnet101"]
                < at_152["bert-base"])

    def test_fig11_resnet_crossovers_found(self):
        result = run_fig11()
        notes = " ".join(result.notes)
        assert "resnet50: crossover" in notes
        assert "resnet101: crossover" in notes

    def test_fig12_speedup_grows_with_compute(self):
        result = run_fig12()
        rows = result.select(model="resnet50")
        ratios = [r["speedup_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.75

    def test_fig13_encode_cuts_always_help(self):
        # The figure's claim: at any size penalty l, cutting encode time
        # (k > 1) beats not cutting it (k = 1).
        result = run_fig13()
        for model in ("resnet50", "bert-base"):
            for l in (1.0, 2.0, 3.0):
                base = result.single(model=model, k=1.0,
                                     l=l)["predicted_ms"]
                for k in (2.0, 3.0, 4.0):
                    faster = result.single(model=model, k=k,
                                           l=l)["predicted_ms"]
                    assert faster < base


class TestSimulatedExperimentsQuick:
    """Cut-down simulator experiments — shapes only, fast settings."""

    def test_fig3_overlap_always_slower(self):
        result = run_fig3(iterations=10, warmup=2)
        for row in result.rows:
            assert row["overlap_penalty"] > 0, row["scheme"]

    def test_fig2_last_bucket_not_hidden(self):
        from repro.experiments import run_fig2
        result = run_fig2()
        hidden = result.column("fully_hidden")
        # Most buckets hide under the backward pass; the last cannot.
        assert sum(hidden) >= len(hidden) - 2
        assert hidden[-1] is False
        assert "hidden under compute" in " ".join(result.notes)

    def test_fig7_speedup_decreases_with_batch(self):
        result = run_fig7(iterations=10, warmup=2,
                          sweeps=(("resnet101", 16, (16, 64)),))
        s16 = result.single(batch_size=16)["speedup"]
        s64 = result.single(batch_size=64)["speedup"]
        assert s16 > s64


def bench_reference():
    """The benchmark's reference digests (read only)."""
    return json.loads(
        (Path(__file__).parents[1] / "bench" / "expected.json")
        .read_text(encoding="utf-8"))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestTrainedExperiment:
    def test_ext_tta_bytes_match_bench_reference(self):
        """The ten-step time-to-accuracy run trains through every codec,
        aggregator and numeric collective; its bytes are pinned by the
        benchmark's reference digest."""
        text = run_ext_tta(steps=10).to_json()
        assert sha256(text) == bench_reference()["tta"]


class TestExhibitDigests:
    def test_every_exhibit_matches_bench_reference(self):
        """Every paper exhibit but ext-tta, plus reliability, rendered
        as ``repro experiment`` renders it on one fresh serial engine,
        has the bytes the benchmark's reference pins."""
        expected = bench_reference()["exhibits"]
        runners = {**EXPERIMENTS, **EXTRA_EXPERIMENTS}
        exhibits = [exp_id for exp_id in runners if exp_id != "ext-tta"]
        assert sorted(exhibits) == sorted(expected)
        engine = ExperimentEngine(jobs=1)
        for exp_id in exhibits:
            runner = runners[exp_id]
            if "engine" in inspect.signature(runner).parameters:
                result = runner(engine=engine)
            else:
                result = runner()
            result.render_table("{:.2f}")
            assert sha256(result.to_json()) == expected[exp_id], exp_id


class TestResultPersistence:
    def _demo(self):
        return ExperimentResult(
            experiment_id="t", title="x", columns=("a", "b"),
            rows=({"a": 1, "b": 2.5},
                  {"a": "oom", "b": float("nan")},
                  {"a": "never", "b": float("inf")}),
            notes=("hello",))

    def test_json_round_trip(self):
        original = self._demo()
        restored = ExperimentResult.from_json(original.to_json())
        assert restored.experiment_id == original.experiment_id
        assert restored.columns == original.columns
        assert restored.rows[0] == original.rows[0]
        assert restored.notes == original.notes

    def test_nonfinite_floats_survive(self):
        restored = ExperimentResult.from_json(self._demo().to_json())
        assert math.isnan(restored.rows[1]["b"])
        assert math.isinf(restored.rows[2]["b"])

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "result.json"
        self._demo().save(str(path))
        loaded = ExperimentResult.load(str(path))
        assert loaded.single(a=1)["b"] == 2.5

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid"):
            ExperimentResult.from_json("{nope")
        with pytest.raises(ConfigurationError, match="missing"):
            ExperimentResult.from_json('{"experiment_id": "x"}')

    def test_real_experiment_round_trips(self):
        from repro.experiments import run_fig9
        result = run_fig9()
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.rows == result.rows
