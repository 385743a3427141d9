"""The auto-advisor: registry-driven grid, bounded shards, determinism.

Covers the sweep pipeline end to end: candidate enumeration out of the
compression registry, the oversize-grid guard's diagnostics, shard job
validation and bit-identity with monolithic grid calls, engine caching
of shard results, and the headline property — sharded-parallel advise
output byte-identical to serial, through both the library API and the
CLI.
"""

import numpy as np
import pytest

from repro.analysis import (
    SweepSpec,
    advise,
    candidate_grid,
    compression_error,
    finish_sweep,
    pareto_mask,
    plan_sweep,
)
from repro.cli import main
from repro.compression import METHODS, Method, available_schemes
from repro.compression.schemes import SyncSGDScheme
from repro.core import PerfModelInputs
from repro.core.advisor import default_candidates
from repro.core import grid as grid_module
from repro.core.grid import MAX_GRID_POINTS, syncsgd_time_grid
from repro.engine import (
    AdvisorShardJob,
    AdvisorShardResult,
    ExperimentEngine,
    PackStore,
    SimulationCache,
    evaluate_advisor_family,
)
from repro.engine.advisorjobs import _block_results, shard_minimum
from repro.engine.cache import outcome_to_payload, payload_to_outcome
from repro.errors import ConfigurationError
from repro.hardware import cluster_for_gpus
from repro.models import available_models, get_model
from repro.units import gbps_to_bytes_per_s

from .oracle import advise_oracle, shard_oracle

SMALL = SweepSpec(world_sizes=(8, 16), bandwidth_points=32,
                  shard_points=16)


def small_inputs(p=8):
    return PerfModelInputs(world_size=p,
                           bandwidth_bytes_per_s=gbps_to_bytes_per_s(10))


class TestCandidateGrid:
    def test_registry_driven(self):
        grid = candidate_grid()
        names = {scheme.name for scheme in grid}
        assert names == set(available_schemes())

    def test_hyperparameters_expand(self):
        grid = candidate_grid()
        powersgd_ranks = sorted(s.rank for s in grid
                                if s.name == "powersgd")
        assert powersgd_ranks == [1, 2, 4, 8, 16, 32]
        # Parameterless schemes appear exactly once.
        assert sum(1 for s in grid if s.name == "syncsgd") == 1

    def test_new_registration_appears(self, monkeypatch):
        class MintScheme(SyncSGDScheme):
            name = "mint"

        monkeypatch.setitem(METHODS, "mint",
                            Method("mint", MintScheme, menu=({},)))
        assert "mint" in available_schemes()
        assert any(s.name == "mint" for s in candidate_grid())
        # ...and in the curated recommend menu too (satellite 1).
        assert any(s.name == "mint" for s in default_candidates())

    def test_default_candidates_byte_stable(self):
        # The refactored registry-driven menu keeps the exact curated
        # list (order included) for the built-in registry.
        labels = [s.label for s in default_candidates()]
        assert labels == ["syncsgd", "fp16", "powersgd(rank=4)",
                          "powersgd(rank=8)", "topk(1%)", "signsgd"]


class TestOversizeGuard:
    def test_names_offending_axes_and_suggests_sharding(self):
        bw = np.linspace(1e9, 30e9, 5000)[:, None]
        p = np.arange(2, 4002)[None, :]
        with pytest.raises(ConfigurationError) as err:
            syncsgd_time_grid(get_model("resnet50"), small_inputs(),
                              bandwidth_bytes_per_s=bw, world_size=p)
        message = str(err.value)
        assert f"{MAX_GRID_POINTS:,}" in message
        assert "largest axes" in message
        assert "bandwidth_bytes_per_s (5,000 points)" in message
        assert "world_size (4,000 points)" in message
        assert "slice bandwidth_bytes_per_s into runs of" in message
        assert "repro.analysis.advisor" in message

    def test_advisor_shards_never_trip_it(self):
        # Any legal SweepSpec keeps a shard at most shard_points cells,
        # and the spec validator caps shard_points at the guard.
        with pytest.raises(ConfigurationError):
            SweepSpec(shard_points=MAX_GRID_POINTS + 1)
        spec = SweepSpec(shard_points=MAX_GRID_POINTS)
        assert spec.shard_points <= MAX_GRID_POINTS


class TestAdvisorShardJob:
    def test_validation(self):
        model = get_model("resnet50")
        common = dict(model=model, scheme=None, inputs=small_inputs(),
                      world_size=8, bw_lo_gbps=1.0, bw_hi_gbps=30.0)
        with pytest.raises(ConfigurationError):
            AdvisorShardJob(**common, bw_points=1, start=0, count=1)
        with pytest.raises(ConfigurationError):
            AdvisorShardJob(**common, bw_points=8, start=8, count=1)
        with pytest.raises(ConfigurationError):
            AdvisorShardJob(**common, bw_points=8, start=4, count=5)
        with pytest.raises(ConfigurationError):
            AdvisorShardJob(model=model, scheme=None,
                            inputs=small_inputs(), world_size=0,
                            bw_lo_gbps=1.0, bw_hi_gbps=30.0,
                            bw_points=8, start=0, count=8)

    def test_shard_concatenation_is_bit_identical_to_monolithic(self):
        # Each shard's survivors are exactly the Pareto sweep of its
        # slice of one monolithic grid call (constant error column),
        # bit for bit, and the shards together price the whole axis.
        model = get_model("resnet50")
        inputs = small_inputs()
        points = 32
        bw = np.linspace(1.0, 30.0, points) * 1e9 / 8.0
        mono = syncsgd_time_grid(model, inputs,
                                 bandwidth_bytes_per_s=bw, world_size=8)
        priced = 0
        for start in range(0, points, 10):
            count = min(10, points - start)
            job = AdvisorShardJob(
                model=model, scheme=None, inputs=inputs, world_size=8,
                bw_lo_gbps=1.0, bw_hi_gbps=30.0, bw_points=points,
                start=start, count=count)
            shard = job.evaluate()
            piece = mono.total[start:start + count]
            keep = np.flatnonzero(pareto_mask(piece, np.full(count, 0.5)))
            assert [start + off for off in shard.offsets] \
                == (start + keep).tolist()
            assert shard.total_s == tuple(float(t) for t in piece[keep])
            priced += shard.priced
        assert priced == points

    def test_fingerprint_distinguishes_slices(self):
        model = get_model("resnet50")
        common = dict(model=model, scheme=None, inputs=small_inputs(),
                      world_size=8, bw_lo_gbps=1.0, bw_hi_gbps=30.0,
                      bw_points=32)
        a = AdvisorShardJob(**common, start=0, count=16)
        b = AdvisorShardJob(**common, start=16, count=16)
        assert a.fingerprint() != b.fingerprint()
        assert a.family_key() == b.family_key()


class TestShardCacheRoundtrip:
    def test_payload_roundtrip(self):
        result = AdvisorShardResult(priced=4096, offsets=(7, 4095),
                                    total_s=(0.125, 0.0625))
        payload = outcome_to_payload(result)
        # total_s: base64 of the little-endian float64 bytes.
        assert payload == {"kind": "advisor-frontier", "priced": 4096,
                           "offsets": [7, 4095],
                           "total_s": "AAAAAAAAwD8AAAAAAACwPw=="}
        back = payload_to_outcome(payload)
        assert back == result
        assert isinstance(back.offsets, tuple)
        assert isinstance(back.total_s, tuple)

    def test_full_totals_payload_is_a_miss_not_a_misread(self):
        # The kind that carried every total of a shard no longer
        # rehydrates, so the cache reads such a record as a miss.
        with pytest.raises(KeyError):
            payload_to_outcome({"kind": "advisor-shard",
                                "total_s": [0.125, 0.25]})

    def test_engine_cache_hits(self, tmp_path):
        model = get_model("resnet50")
        job = AdvisorShardJob(
            model=model, scheme=None, inputs=small_inputs(),
            world_size=8, bw_lo_gbps=1.0, bw_hi_gbps=30.0,
            bw_points=8, start=0, count=8)
        cache = SimulationCache(str(tmp_path / "cache"))
        engine = ExperimentEngine(cache=cache)
        first = engine.run_advisor_outcomes([job])
        assert not first[0].cached
        second = engine.run_advisor_outcomes([job])
        assert second[0].cached
        assert second[0].unwrap() == first[0].unwrap()
        cache.close()

    def test_full_totals_records_are_repriced(self, tmp_path, capsys):
        # A directory filled before shards reduced in the worker holds
        # one ``advisor-shard`` record (every total of the slice) per
        # shard key.  Those records are misses: the sweep re-prices
        # every shard, renders what an uncached run renders, and the
        # re-stored records win over the old ones on the next open.
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        plan = plan_sweep(model, cluster, spec=SMALL)
        directory = str(tmp_path)
        old = PackStore(directory)
        # Deliberately wrong totals: a misread would change the report.
        old.append_many((job.fingerprint(),
                         {"kind": "advisor-shard",
                          "total_s": [1e-6] * job.count})
                        for job in plan.jobs)
        old.close()
        uncached = advise(model, cluster, spec=SMALL).render()

        cache = SimulationCache(directory)
        engine = ExperimentEngine(cache=cache)
        assert advise(model, cluster, spec=SMALL,
                      engine=engine).render() == uncached
        cache.close()
        assert engine.executed == len(plan.jobs)

        cache = SimulationCache(directory)
        engine = ExperimentEngine(cache=cache)
        assert advise(model, cluster, spec=SMALL,
                      engine=engine).render() == uncached
        cache.close()
        assert engine.executed == 0

        assert main(["cache", "verify", "--cache", directory]) == 0
        assert "OK:" in capsys.readouterr().out


class TestAdviseDeterminism:
    def test_sharded_parallel_equals_serial(self):
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        serial = advise(model, cluster, spec=SMALL,
                        engine=ExperimentEngine(jobs=1))
        parallel = advise(model, cluster, spec=SMALL,
                          engine=ExperimentEngine(jobs=2))
        assert serial.render() == parallel.render()
        assert serial.to_dict() == parallel.to_dict()

    def test_different_sharding_same_report(self):
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        coarse = advise(model, cluster, spec=SMALL)
        fine_spec = SweepSpec(world_sizes=(8, 16), bandwidth_points=32,
                              shard_points=5)
        fine = advise(model, cluster, spec=fine_spec)
        assert [p.to_dict() for p in coarse.frontier] \
            == [p.to_dict() for p in fine.frontier]
        assert coarse.recommendation.render() \
            == fine.recommendation.render()

    def test_cli_output_byte_identical_across_jobs(self, capsys):
        argv = ["advise", "--model", "resnet50", "--gpus", "32",
                "--world-sizes", "8", "16", "--bandwidth-points", "32",
                "--shard-points", "16"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "Pareto frontier" in serial


def draw_sweep(rng):
    """One random sweep: a zoo model on a random cluster, a random
    subset of candidates and world sizes, and an axis of 2–512 points
    cut into shards of 1 to all of them (log-uniform, so small shards
    are common).  About a third of the axes
    span only a few ulps, so bandwidths repeat and totals tie."""
    models = available_models()
    grid = candidate_grid()
    sizes = (8, 16, 32, 64)
    picks = rng.choice(len(grid), size=int(rng.integers(1, 7)),
                       replace=False)
    worlds = rng.choice(sizes, size=int(rng.integers(1, 5)),
                        replace=False)
    points = int(rng.integers(2, 513))
    lo = float(rng.uniform(0.5, 5.0))
    width = (lo * 1e-15 * int(rng.integers(1, 9)) if rng.random() < 0.35
             else float(rng.uniform(1.0, 60.0)))
    spec = SweepSpec(world_sizes=tuple(sorted(int(p) for p in worlds)),
                     min_bandwidth_gbps=lo, max_bandwidth_gbps=lo + width,
                     bandwidth_points=points,
                     shard_points=max(1, round(points ** rng.random())))
    return (get_model(models[rng.integers(len(models))]),
            cluster_for_gpus(int(rng.choice(sizes))),
            [grid[i] for i in sorted(picks)], spec)


def report_or_error(fn):
    """A report's dict and rendering, or the configuration error."""
    try:
        report = fn()
    except ConfigurationError as exc:
        return ("error", str(exc))
    return ("ok", report.to_dict(), report.render())


class TestSweepOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_sharded_sweep_equals_unsharded_oracle(self, seed):
        # Worker-side shard reduction plus the parent's merge must give
        # exactly the report of one Pareto sweep over every priced cell.
        rng = np.random.default_rng([2022, seed])
        model, cluster, candidates, spec = draw_sweep(rng)
        engine = ExperimentEngine(jobs=2 if seed < 2 else 1)
        got = report_or_error(lambda: advise(
            model, cluster, candidates=candidates, spec=spec,
            engine=engine))
        want = report_or_error(lambda: advise_oracle(
            model, cluster, spec, candidates=candidates))
        assert got == want


def draw_family_spec(rng):
    """A random small sweep for the fused-family property: world sizes
    that may include 1, axes as short as 2 points, and a shard size
    that usually leaves an uneven last shard."""
    sizes = (1, 2, 4, 8, 16, 32, 64)
    worlds = rng.choice(sizes, size=int(rng.integers(1, 5)), replace=False)
    points = 2 if rng.random() < 0.25 else int(rng.integers(3, 200))
    lo = float(rng.uniform(0.5, 5.0))
    return SweepSpec(world_sizes=tuple(sorted(int(p) for p in worlds)),
                     min_bandwidth_gbps=lo,
                     max_bandwidth_gbps=lo + float(rng.uniform(0.5, 40.0)),
                     bandwidth_points=points,
                     shard_points=int(rng.integers(1, points + 1)))


def families_of(jobs):
    """Jobs grouped by family key, in first-seen order."""
    groups = {}
    for job in jobs:
        groups.setdefault(job.family_key(), []).append(job)
    return list(groups.values())


class TestFusedFamily:
    @pytest.mark.parametrize("seed", range(8))
    def test_fused_family_equals_per_shard_oracle(self, seed):
        # One fused grid call per family must give every member exactly
        # its own grid call plus a Pareto sweep, whatever subset of the
        # family misses the cache and in whatever order it arrives.
        rng = np.random.default_rng([22, seed])
        models = available_models()
        grid = candidate_grid()
        picks = rng.choice(len(grid), size=int(rng.integers(1, 6)),
                           replace=False)
        plan = plan_sweep(get_model(models[rng.integers(len(models))]),
                          cluster_for_gpus(int(rng.choice((8, 32, 64)))),
                          candidates=[grid[i] for i in sorted(picks)],
                          spec=draw_family_spec(rng))
        for family in families_of(plan.jobs):
            take = rng.permutation(len(family))[
                :int(rng.integers(1, len(family) + 1))]
            members = [family[i] for i in take]
            assert evaluate_advisor_family(members) \
                == [shard_oracle(job) for job in members]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_axes_and_duplicate_in_one_engine_call(self, jobs):
        # Coalesced requests for one model and cluster share family
        # keys across axis specs; each plan's outcomes must still finish
        # into exactly its own offline report.
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        specs = [SMALL,
                 SweepSpec(world_sizes=(8, 16), bandwidth_points=24,
                           shard_points=16),
                 SweepSpec(world_sizes=(16, 64), min_bandwidth_gbps=2.0,
                           max_bandwidth_gbps=12.0, bandwidth_points=32,
                           shard_points=16)]
        plans = [plan_sweep(model, cluster, spec=spec) for spec in specs]
        assert plans[0].jobs[0].family_key() \
            == plans[1].jobs[0].family_key() \
            == plans[2].jobs[0].family_key()
        batch = [job for plan in plans for job in plan.jobs]
        duplicate = len(plans[0].jobs) + len(plans[1].jobs) - 1
        batch.append(batch[duplicate])
        outcomes = ExperimentEngine(jobs=jobs).run_advisor_outcomes(batch)
        assert outcomes[-1].unwrap() == outcomes[duplicate].unwrap()
        at = 0
        for plan, spec in zip(plans, specs):
            got = finish_sweep(plan, outcomes[at:at + len(plan.jobs)])
            at += len(plan.jobs)
            want = advise(model, cluster, spec=spec)
            assert got.render() == want.render()
            assert got.to_dict() == want.to_dict()

    def test_low_grid_bound_splits_families(self, monkeypatch):
        # With the bound below a family's fused size (2 world sizes x
        # 32 points), families split into calls that each respect it,
        # and the report does not change.
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        want = advise(model, cluster, spec=SMALL).render()
        plan = plan_sweep(model, cluster, spec=SMALL)
        cells = []
        count = grid_module._count_grid_points

        def recording(shape, axes=None):
            cells.append(int(np.prod(shape)))
            return count(shape, axes)

        with monkeypatch.context() as patch:
            patch.setattr(grid_module, "MAX_GRID_POINTS", 40)
            patch.setattr(grid_module, "_count_grid_points", recording)
            outcomes = ExperimentEngine().run_advisor_outcomes(
                list(plan.jobs))
        assert all(outcome.ok for outcome in outcomes)
        assert max(cells) <= 40
        assert len(families_of(plan.jobs)) < len(cells) < len(plan.jobs)
        assert finish_sweep(plan, outcomes).render() == want


class TestShardMinimum:
    @pytest.mark.parametrize("totals", [
        [0.3, 0.1, 0.2, 0.1, 0.1],
        [0.3, np.nan, 0.2, 0.2],
        [np.nan, 0.5, 0.4],
        [np.nan, np.nan, np.nan],
        [0.7],
        [np.nan],
        [np.inf, 0.2, np.inf],
        [np.inf, np.inf],
    ], ids=["ties", "one-nan", "leading-nan", "all-nan", "one-cell",
            "one-nan-cell", "inf", "all-inf"])
    def test_matches_pareto_mask_on_a_constant_error(self, totals):
        t = np.asarray(totals, dtype=float)
        want = np.flatnonzero(pareto_mask(t, np.zeros(t.size)))
        assert shard_minimum(t).tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_ties_and_nans(self, seed):
        rng = np.random.default_rng([7, seed])
        t = rng.integers(0, 4, size=int(rng.integers(1, 64))).astype(float)
        t[rng.random(t.size) < 0.2] = np.nan
        want = np.flatnonzero(pareto_mask(t, np.zeros(t.size)))
        assert shard_minimum(t).tolist() == want.tolist()


def draw_block(rng):
    """A random priced block and members cut out of it: ties, NaN cells,
    all-NaN members, and members that tile the block or a prefix of
    it, leave gaps, overlap or repeat."""
    rows, width = int(rng.integers(1, 5)), int(rng.integers(1, 40))
    totals = rng.integers(0, 3, size=(rows, width)).astype(float)
    totals[rng.random(totals.shape) < 0.25] = np.nan
    if rng.random() < 0.5:
        totals[int(rng.integers(rows))] = np.nan
    if rng.random() < 0.5:
        # Whole rows cut into runs, in row-major order: a tiling.
        cuts = sorted({0, width, *rng.integers(0, width, size=3).tolist()})
        cells = [(row, lo, hi - lo) for row in range(rows)
                 for lo, hi in zip(cuts, cuts[1:])]
        if rng.random() < 0.5:
            # Back to back from the first cell, short of the last.
            cells = cells[:int(rng.integers(1, len(cells) + 1))]
    else:
        cells = []
        for _ in range(int(rng.integers(1, 10))):
            start = int(rng.integers(width))
            count = int(rng.integers(1, width - start + 1))
            cells.append((int(rng.integers(rows)), start, count))
        cells += [cells[int(rng.integers(len(cells)))]]
    return totals, cells


class TestBlockReduction:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_shard_minimum_member_by_member(self, seed):
        totals, cells = draw_block(np.random.default_rng([11, seed]))
        results = _block_results(totals, cells)
        assert len(results) == len(cells)
        for (row, start, count), result in zip(cells, results):
            shard = totals[row, start:start + count]
            keep = shard_minimum(shard)
            assert result.priced == count
            assert list(result.offsets) == keep.tolist()
            assert all(type(offset) is int for offset in result.offsets)
            assert np.asarray(result.total_s).tobytes() \
                == shard[keep].tobytes()


class TestSweepSemantics:
    def test_plan_counts_and_bounds(self):
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        plan = plan_sweep(model, cluster, spec=SMALL)
        # Every feasible pair splits into ceil(32 / 16) = 2 shards.
        assert all(job.count <= SMALL.shard_points for job in plan.jobs)
        feasible_pairs = len(plan.jobs) // 2
        assert feasible_pairs * 2 == len(plan.jobs)
        assert len(plan.meta) == len(plan.jobs)

    def test_report_invariants(self):
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        report = advise(model, cluster, spec=SMALL)
        assert report.configs_total == (report.candidates_total
                                        * 2 * 32)
        assert report.configs_priced \
            == report.configs_total - report.infeasible_pairs * 32
        assert len(report.frontier) >= 1
        # syncsgd has the unique minimum error (zero wire reduction),
        # so the baseline is always on the frontier and in the ranking.
        assert any(pt.scheme_label == "syncsgd"
                   for pt in report.frontier)
        labels = [v.scheme_label
                  for v in report.recommendation.verdicts]
        assert "syncsgd" in labels
        # Frontier is totally ordered by (time, error, ...).
        keys = [(p.time_s, p.error, p.scheme_label, p.world_size,
                 p.bandwidth_gbps) for p in report.frontier]
        assert keys == sorted(keys)
        # No frontier point is dominated by another (spot oracle).
        for a in report.frontier:
            for b in report.frontier:
                assert not (b.time_s <= a.time_s and b.error <= a.error
                            and (b.time_s < a.time_s
                                 or b.error < a.error))

    def test_error_proxy_bounds_and_baseline(self):
        model = get_model("resnet50")
        assert compression_error(model, SyncSGDScheme(), 8) == 0.0
        for scheme in candidate_grid():
            err = compression_error(model, scheme, 8)
            assert 0.0 <= err <= 1.0

    def test_plan_errors_match_the_error_proxy(self):
        # plan_sweep derives each pair's error from the cost it priced
        # for the memory screen; it must equal compression_error's.
        model = get_model("bert-base")
        spec = SweepSpec(world_sizes=(1, 8, 64), bandwidth_points=4,
                         shard_points=4)
        plan = plan_sweep(model, cluster_for_gpus(32), spec=spec)
        assert plan.meta
        for ci, p, error, _ in plan.meta:
            assert error == compression_error(model, plan.schemes[ci], p)

    def test_finish_is_pure_postprocessing(self):
        model = get_model("resnet50")
        cluster = cluster_for_gpus(32)
        plan = plan_sweep(model, cluster, spec=SMALL)
        engine = ExperimentEngine()
        outcomes = engine.run_advisor_outcomes(list(plan.jobs))
        a = finish_sweep(plan, outcomes)
        b = finish_sweep(plan, outcomes)
        assert a.render() == b.render()

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_sweep(get_model("resnet50"), cluster_for_gpus(32),
                       candidates=[])

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(world_sizes=())
        with pytest.raises(ConfigurationError):
            SweepSpec(min_bandwidth_gbps=5.0, max_bandwidth_gbps=2.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(bandwidth_points=1)


class TestServingAdvise:
    def test_request_parsing_and_defaults(self):
        from repro.serving import parse_request

        req = parse_request("advise", {"model": "resnet50", "gpus": 32})
        assert req.kind == "advise"
        assert req.bandwidth_points == 512  # serving-sized default
        with pytest.raises(ConfigurationError):
            parse_request("advise", {"world_sizes": []})
        with pytest.raises(ConfigurationError):
            parse_request("advise", {"bandwidth_points": 1})
        with pytest.raises(ConfigurationError):
            parse_request("advise", {"nonsense": 1})

    def test_scheduler_matches_offline_advise(self):
        from repro.serving import ServingScheduler, parse_request

        request = parse_request("advise", {
            "model": "resnet50", "gpus": 32, "world_sizes": [8, 16],
            "bandwidth_points": 32, "shard_points": 16})
        scheduler = ServingScheduler(batch_window_s=0.0)
        try:
            state = scheduler.submit(request)
            state = scheduler.wait(state.id, timeout_s=120)
            assert state.status == "done"
            offline = advise(get_model("resnet50"),
                             cluster_for_gpus(32), spec=SMALL)
            assert state.result["rendered"] == offline.render()
            assert state.result["frontier"] \
                == [p.to_dict() for p in offline.frontier]
        finally:
            scheduler.close()
