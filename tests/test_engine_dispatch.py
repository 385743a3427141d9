"""The engine's one dispatcher, as a randomized property.

Seeded draws of mixed batches — simulation families and singletons
(faulted schedules and deterministic OOMs among them), model-eval
points with one failing member, advisor shards — go through a serial
engine, a pooled engine and a warm-cache rerun.  Each batch has more
families than the pool has tasks, so pooled tasks carry several
multi-member families of every kind.  Whatever the family grouping and
task packing do, they are execution details: outcomes come back equal
and in input order, the pack segments the serial and pooled runs write
are byte-identical, stacked simulation families count as batched
either way, and a failing member fails alone and is never cached.
"""

import numpy as np
import pytest

from repro.compression.schemes import (
    PowerSGDScheme,
    SignSGDScheme,
    TopKScheme,
)
from repro.analysis import candidate_grid
from repro.core import PerfModelInputs
from repro.engine import (
    AdvisorShardJob,
    ExperimentEngine,
    ModelEvalJob,
    SimJob,
)
from repro.engine.engine import _ADVISOR_KIND, _MODEL_KIND, _SIM_KIND
from repro.faults import FaultSchedule, NodeFault, StragglerFault
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.units import gbps_to_bytes_per_s

SCHEDULES = (
    None,
    FaultSchedule(seed=7, stragglers=[StragglerFault(
        worker=0, slowdown=2.0, start_iteration=2, duration_iterations=3)]),
    FaultSchedule(seed=7, nodes=[NodeFault(node=0, factor=0.25,
                                           start_iteration=1)]),
)
SCHEMES = (None, PowerSGDScheme(rank=4), TopKScheme(0.01), SignSGDScheme())
KINDS = (_SIM_KIND, _MODEL_KIND, _ADVISOR_KIND)


class BrokenScheme(PowerSGDScheme):
    """A scheme whose pricing always fails (failure isolation)."""

    def cost(self, model, world_size, profile):
        raise RuntimeError("broken scheme")


@pytest.fixture(scope="module")
def models():
    return {name: get_model(name) for name in ("resnet50", "bert-base")}


def draw_sim_jobs(rng, models):
    """More families (one structural config, several seeds and
    schedules) than the pool has tasks, plus singletons, one of each an
    OOM."""
    rn50, bert = models["resnet50"], models["bert-base"]
    jobs = []
    for family in range(int(rng.integers(9, 12))):
        scheme = SCHEMES[int(rng.integers(len(SCHEMES)))]
        gpus = int(rng.choice([4, 8]))
        for seed in rng.choice(50, size=int(rng.integers(2, 4)),
                               replace=False):
            jobs.append(SimJob(
                model=rn50, cluster=cluster_for_gpus(gpus), scheme=scheme,
                batch_size=64 + family, iterations=6, warmup=2,
                seed=int(seed),
                faults=SCHEDULES[int(rng.integers(len(SCHEDULES)))]))
    for batch_size in rng.choice(np.arange(8, 64), size=int(
            rng.integers(5, 9)), replace=False):
        jobs.append(SimJob(
            model=rn50, cluster=cluster_for_gpus(8),
            scheme=SCHEMES[int(rng.integers(len(SCHEMES)))],
            batch_size=int(batch_size), iterations=6, warmup=2))
    oom = SimJob(model=bert, cluster=cluster_for_gpus(48),
                 scheme=SignSGDScheme(), batch_size=12, iterations=6,
                 warmup=2)
    jobs += [oom, SimJob(model=bert, cluster=cluster_for_gpus(48),
                         scheme=SignSGDScheme(), batch_size=12,
                         iterations=6, warmup=2, seed=1)]
    jobs.append(SimJob(model=bert, cluster=cluster_for_gpus(48),
                       scheme=SignSGDScheme(), batch_size=10, iterations=6,
                       warmup=2))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def draw_candidates(rng):
    """Nine to twelve distinct advisor candidates: as many families."""
    grid = candidate_grid()
    picks = rng.choice(len(grid), size=int(rng.integers(9, 13)),
                       replace=False)
    return [grid[int(i)] for i in picks]


def draw_model_jobs(rng, models):
    """One bandwidth-sweep family per candidate, with one failing
    member inside."""
    rn50 = models["resnet50"]
    schemes = (None, *draw_candidates(rng))
    jobs = []
    for gbps in rng.uniform(1.0, 30.0, size=int(rng.integers(2, 4))):
        inputs = PerfModelInputs(
            world_size=int(rng.choice([8, 16, 64])),
            bandwidth_bytes_per_s=gbps_to_bytes_per_s(float(gbps)),
            batch_size=32)
        for scheme in schemes:
            jobs.append(ModelEvalJob(model=rn50, scheme=scheme,
                                     inputs=inputs))
    failing = ModelEvalJob(model=rn50, scheme=BrokenScheme(rank=4),
                           inputs=jobs[0].inputs)
    jobs.insert(int(rng.integers(len(jobs) + 1)), failing)
    return jobs, failing


def draw_advisor_jobs(rng, models):
    """Shards of nine to twelve candidates over a 64-point bandwidth
    axis."""
    rn50 = models["resnet50"]
    inputs = PerfModelInputs(world_size=16,
                             bandwidth_bytes_per_s=gbps_to_bytes_per_s(10.0),
                             batch_size=32)
    jobs = []
    for scheme in draw_candidates(rng):
        for p in rng.choice([4, 16, 64], size=2, replace=False):
            for start in range(0, 64, 16):
                jobs.append(AdvisorShardJob(
                    model=rn50, scheme=scheme, inputs=inputs,
                    world_size=int(p), bw_lo_gbps=1.0, bw_hi_gbps=40.0,
                    bw_points=64, start=start, count=16))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def project(outcome):
    """What an outcome says, independent of how it was executed."""
    oom = getattr(outcome, "oom", None)
    if oom is not None:
        return ("oom", str(oom), oom.required_bytes)
    if outcome.error is not None:
        return ("error", repr(outcome.error))
    return ("ok", outcome.result)


def run_all(engine, sims, model_jobs, shards):
    """All three batches; also how many simulation jobs rode a packed
    task (the counter before the eval batches add their families)."""
    sim_outcomes = engine.run_outcomes(sims)
    packed = engine.jobs_chunked
    return (sim_outcomes, engine.run_model_outcomes(model_jobs),
            engine.run_advisor_outcomes(shards)), packed


def pack_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("pack-*.jsonl"))}


@pytest.mark.parametrize("seed", range(3))
def test_dispatch_is_invisible(seed, models, tmp_path, open_cache):
    rng = np.random.default_rng(seed)
    sims = draw_sim_jobs(rng, models)
    model_jobs, failing = draw_model_jobs(rng, models)
    shards = draw_advisor_jobs(rng, models)
    batches = (sims, model_jobs, shards)

    # The pool packs several multi-member families into one task, of
    # every kind; the serial engine runs each family on its own.
    for kind, batch in zip(KINDS, batches):
        pooled_tasks, _ = ExperimentEngine(jobs=2)._plan(kind, batch)
        assert any(sum(len(family) > 1 for family in task.families) > 1
                   for task in pooled_tasks)
        serial_tasks, _ = ExperimentEngine()._plan(kind, batch)
        assert all(len(task.families) == 1 for task in serial_tasks)

    runs, batched = {}, {}
    for jobs in (1, 2):
        cache = open_cache(str(tmp_path / f"jobs{jobs}"))
        engine = ExperimentEngine(jobs=jobs, cache=cache)
        runs[jobs], packed = run_all(engine, *batches)
        cache.close()
        assert engine.executed == sum(len(b) for b in batches)
        assert engine.retries == 0
        # Simulation families were stacked, and count as batched
        # wherever they ran; only the pool packs singletons.
        assert engine.jobs_batched > 0
        batched[jobs] = engine.jobs_batched
        assert (packed > 0) == (jobs > 1)
    assert batched[1] == batched[2]

    # Equal outcomes, in input order, serial vs pooled.
    for batch, serial, pooled in zip(batches, runs[1], runs[2]):
        assert [o.job for o in serial] == list(batch)
        assert [o.job for o in pooled] == list(batch)
        assert [project(o) for o in serial] == [project(o) for o in pooled]
    assert pack_bytes(tmp_path / "jobs1") == pack_bytes(tmp_path / "jobs2")

    # The failing member fails alone, with its own exception.
    model_outcomes = runs[1][1]
    for job, outcome in zip(model_jobs, model_outcomes):
        if job is failing:
            with pytest.raises(RuntimeError, match="broken scheme"):
                outcome.unwrap()
        else:
            assert outcome.ok
    assert sum(o.oom is not None for o in runs[1][0]) == 3

    # Warm rerun: everything but the failure is served from the cache.
    cache = open_cache(str(tmp_path / "jobs1"))
    warm_engine = ExperimentEngine(jobs=1, cache=cache)
    warm, _ = run_all(warm_engine, *batches)
    cache.close()
    assert warm_engine.executed == 1  # only the never-cached failure
    assert warm_engine.failures == 1
    for batch, cold, hot in zip(batches, runs[1], warm):
        assert [o.job for o in hot] == list(batch)
        assert [project(o) for o in hot] == [project(o) for o in cold]
        assert all(o.cached != (o.job is failing) for o in hot)
