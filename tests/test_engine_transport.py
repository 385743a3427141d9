"""Pool transport: tasks ship against a per-dispatch spec table.

A pooled dispatch pickles each task once with every frozen spec
replaced by an index into one table, which the pool initializer
installs in each worker.  These tests pin what that buys and what it
must not change:

* **size** — the default advise sweep ships one ``ModelSpec`` in the
  table and under a tenth of the bytes the whole tasks pickle to;
* **sharing** — frozen specs come back as the table's one object,
  mutable inputs (fabrics, fault schedules) as each task's own copy;
* **start methods** — under ``spawn`` and ``forkserver``, where the
  table is pickled to each worker rather than inherited, pooled output
  equals the serial output byte for byte;
* **family keys** — the model digest in ``family_key()`` groups jobs
  exactly as the key with the whole model rendering did.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.analysis import SweepSpec, advise
from repro.analysis.advisor import plan_sweep
from repro.compression.schemes import PowerSGDScheme, TopKScheme
from repro.core import PerfModelInputs
from repro.engine import (
    AdvisorShardJob,
    ExperimentEngine,
    ModelEvalJob,
    SimJob,
)
from repro.engine.engine import (
    _ADVISOR_KIND,
    _SIM_KIND,
    _install_specs,
    _ship,
)
from repro.experiments import EXPERIMENTS
from repro.faults import FaultSchedule, StragglerFault
from repro.hardware import cluster_for_gpus
from repro.models import ModelSpec, get_model
from repro.network import Fabric
from repro.units import gbps_to_bytes_per_s

from .oracle import legacy_family_key

@dataclass(frozen=True, eq=False)
class LabelledSimJob(SimJob):
    """A job kind with one field more than its base."""

    label: str = "extra"


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def installed():
    """Install a spec table in this process for the test, as a pool
    worker's initializer would, and clear it afterwards."""
    yield _install_specs
    _install_specs(())


class TestShippedSize:
    def test_default_sweep_ships_one_model_and_a_tenth_of_the_bytes(
            self, resnet50, installed):
        plan = plan_sweep(resnet50, cluster_for_gpus(32))
        tasks, _ = ExperimentEngine(jobs=2)._plan(_ADVISOR_KIND,
                                                  list(plan.jobs))
        blobs, table = _ship(tasks)
        assert [type(spec) for spec in table].count(ModelSpec) == 1
        whole = sum(len(pickle.dumps(task)) for task in tasks)
        assert sum(map(len, blobs)) < 0.1 * whole
        installed(table)
        for blob, task in zip(blobs, tasks):
            shipped = [job for family in pickle.loads(blob).families
                       for job in family]
            assert [job.fingerprint() for job in shipped] == [
                job.fingerprint() for family in task.families
                for job in family]
            assert all(job.model is table[0] for job in shipped)


class TestSharing:
    def test_frozen_specs_shared_mutable_inputs_copied(self, tiny_model,
                                                       installed):
        cluster = cluster_for_gpus(8)
        fabric = Fabric(cluster)
        faults = FaultSchedule(seed=1, stragglers=[StragglerFault(
            worker=0, slowdown=2.0)])
        # Distinct batch sizes: two singleton families, so two tasks.
        jobs = [SimJob(model=tiny_model, cluster=cluster, fabric=fabric,
                       faults=faults, batch_size=batch, iterations=6,
                       warmup=1) for batch in (4, 5)]
        tasks, _ = ExperimentEngine(jobs=2)._plan(_SIM_KIND, jobs)
        blobs, table = _ship(tasks)
        assert len(tasks) == 2
        assert not any(isinstance(spec, (Fabric, FaultSchedule))
                       for spec in table)
        installed(table)
        first, second = (pickle.loads(blob).families[0][0]
                         for blob in blobs)
        assert first.model is second.model is table[0]
        assert first.cluster is second.cluster
        assert first.fabric is not second.fabric
        assert first.faults is not second.faults
        assert first.fingerprint() == jobs[0].fingerprint()
        assert second.fingerprint() == jobs[1].fingerprint()

    def test_family_columns_keep_the_object_graph(self, tiny_model,
                                                  installed):
        # One family: members share one fabric object, and hold equal
        # but distinct fault schedules; shipping keeps both so.
        cluster = cluster_for_gpus(8)
        fabric = Fabric(cluster)
        jobs = [SimJob(model=tiny_model, cluster=cluster, fabric=fabric,
                       faults=FaultSchedule(seed=1, stragglers=[
                           StragglerFault(worker=0, slowdown=2.0)]),
                       batch_size=4, iterations=6, warmup=1, seed=seed)
                for seed in range(3)]
        tasks, _ = ExperimentEngine(jobs=2)._plan(_SIM_KIND, jobs)
        assert [len(family) for family in tasks[0].families] == [3]
        blobs, table = _ship(tasks)
        installed(table)
        shipped = pickle.loads(blobs[0]).families[0]
        assert [type(job) for job in shipped] == [SimJob] * 3
        assert [job.fingerprint() for job in shipped] == [
            job.fingerprint() for job in jobs]
        assert [job.seed for job in shipped] == [0, 1, 2]
        assert shipped[0].fabric is shipped[1].fabric is shipped[2].fabric
        assert shipped[0].faults == shipped[1].faults
        assert shipped[0].faults is not shipped[1].faults


    def test_family_of_mixed_job_classes_ships_whole(self, tiny_model,
                                                      installed):
        # A subclass with an extra field shares its base's family key;
        # such a family ships member by member, classes intact.
        jobs = [cls(model=tiny_model, cluster=cluster_for_gpus(8),
                    batch_size=4, iterations=6, warmup=1, seed=seed)
                for seed, cls in enumerate((SimJob, LabelledSimJob))]
        tasks, _ = ExperimentEngine(jobs=2)._plan(_SIM_KIND, jobs)
        assert [len(family) for family in tasks[0].families] == [2]
        blobs, table = _ship(tasks)
        installed(table)
        shipped = pickle.loads(blobs[0]).families[0]
        assert [type(job) for job in shipped] == [SimJob, LabelledSimJob]
        assert shipped[1].label == "extra"
        assert [job.fingerprint() for job in shipped] == [
            job.fingerprint() for job in jobs]

    def test_unpicklable_task_fails_alone(self, tiny_model):
        # Tasks are pickled in the parent before submission; one that
        # cannot be must fail on its own, not raise out of the batch.
        scheme = PowerSGDScheme(rank=2)
        scheme._hook = lambda grad: grad  # private: not in any key
        # Distinct batch sizes: two families, so two tasks.
        jobs = [SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                       scheme=candidate, batch_size=batch, iterations=6,
                       warmup=1)
                for candidate, batch in ((scheme, 4),
                                         (PowerSGDScheme(rank=2), 5))]
        engine = ExperimentEngine(jobs=2)
        bad, good = engine.run_outcomes(jobs)
        assert bad.failed and "cannot ship" in bad.error
        assert bad.attempts == 1
        assert good.ok
        assert good.unwrap().sync_times == jobs[1].evaluate().sync_times
        assert (engine.failures, engine.retries) == (1, 0)


# Runs in a fresh interpreter (``-c``, so spawned workers do not
# re-import a main module): set the start method, then print a small
# pooled advise sweep and two pooled exhibits.
START_METHOD_SCRIPT = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from tests.test_engine_transport import pooled_output
sys.stdout.write(pooled_output(2))
"""


def pooled_output(jobs):
    """A small advise sweep and two exhibits rendered on an engine of
    ``jobs`` workers (a fresh engine, and so a fresh pool, each)."""
    spec = SweepSpec(world_sizes=(8, 16, 32), bandwidth_points=64,
                     shard_points=16)
    parts = [advise(get_model("resnet50"), cluster_for_gpus(16), spec=spec,
                    engine=ExperimentEngine(jobs=jobs)).render()]
    for exhibit in ("fig5", "fig7"):
        parts.append(EXPERIMENTS[exhibit](
            engine=ExperimentEngine(jobs=jobs)).render_table("{:.2f}"))
    return "\n".join(parts)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_start_methods_match_serial(method):
    root = os.path.dirname(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", START_METHOD_SCRIPT, method],
        capture_output=True, text=True, timeout=120, cwd=root,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([SRC, root])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == pooled_output(1)


# ----- family keys -----------------------------------------------------------


def draw_jobs(rng, models):
    """Jobs of every kind drawn from small pools of inputs, so many
    share a family; the models include an equal-content copy of one
    and a renamed one."""
    schemes = (None, PowerSGDScheme(rank=4), TopKScheme(0.01))
    inputs = [PerfModelInputs(world_size=p,
                              bandwidth_bytes_per_s=gbps_to_bytes_per_s(g),
                              batch_size=32)
              for p in (8, 16) for g in (5.0, 25.0)]
    clusters = (cluster_for_gpus(8), cluster_for_gpus(16))
    jobs = []
    for _ in range(90):
        model = models[rng.integers(len(models))]
        scheme = schemes[rng.integers(len(schemes))]
        kind = rng.integers(3)
        if kind == 0:
            jobs.append(SimJob(
                model=model, cluster=clusters[rng.integers(2)],
                scheme=scheme, batch_size=int(rng.choice([16, 32])),
                iterations=20, warmup=5, seed=int(rng.integers(4))))
        elif kind == 1:
            tradeoff = scheme is not None and rng.random() < 0.3
            jobs.append(ModelEvalJob(
                model=model, scheme=scheme,
                inputs=inputs[rng.integers(len(inputs))],
                tradeoff_k=2.0 if tradeoff else None,
                tradeoff_l=1.5 if tradeoff else None))
        else:
            jobs.append(AdvisorShardJob(
                model=model, scheme=scheme,
                inputs=inputs[rng.integers(len(inputs))],
                world_size=int(rng.choice([8, 16])), bw_lo_gbps=1.0,
                bw_hi_gbps=30.0, bw_points=64,
                start=16 * int(rng.integers(4)), count=16))
    return jobs


def partition(jobs, key):
    """Groups of job positions with equal keys, in a canonical order."""
    groups = {}
    for position, job in enumerate(jobs):
        groups.setdefault(key(job), []).append(position)
    return sorted(groups.values())


@pytest.mark.parametrize("seed", range(4))
def test_model_digest_keeps_every_family(seed, resnet50, bert_base):
    models = [resnet50, replace(resnet50), replace(resnet50, name="rn50b"),
              bert_base]
    jobs = draw_jobs(np.random.default_rng(seed), models)
    families = partition(jobs, lambda job: job.family_key())
    assert families == partition(jobs, legacy_family_key)
    # Not a trivial partition: some families share, and the equal
    # copy of resnet50 lands in its original's families.
    assert 1 < len(families) < len(jobs)
    by_model = {id(model): i for i, model in enumerate(models)}
    assert any({by_model[id(jobs[k].model)] for k in family} == {0, 1}
               for family in families)
