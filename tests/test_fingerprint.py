"""Cache keys: pinned values, the expanded-payload oracle, memo hygiene.

Job keys are composed from per-spec fragments that
:mod:`repro.engine.fingerprint` renders once and reuses.  Three things
keep that safe:

* **golden keys** — literal ``fingerprint()`` values that every cache
  directory on disk was written under; a drifted composer would
  silently orphan them all;
* **the oracle property** — over seeded random jobs of every kind, the
  composed ``fingerprint()`` and ``family_key()`` equal the digests of
  the expanded dict payloads in ``tests/oracle.py``, including after a
  scheme attribute or the fabric's bandwidth matrix changes;
* **memo hygiene** — fingerprinting never grows a pickled job or model
  (pooled tasks ship them) and never keeps a spec alive.
"""

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.compression import make_scheme, scheme_from_spec
from repro.compression.kernel_cost import v100_kernel_profile
from repro.compression.schemes import PowerSGDScheme, TopKScheme
from repro.core import PerfModelInputs
from repro.engine import (
    FINGERPRINT_VERSION,
    AdvisorShardJob,
    ModelEvalJob,
    SimJob,
    model_fragment,
)
from repro.faults import (
    FaultSchedule,
    LinkFault,
    RetransmitFault,
    StragglerFault,
)
from repro.hardware import available_gpus, available_instances, cluster_for_gpus
from repro.models import get_model
from repro.network import Fabric
from repro.simulator import DDPConfig
from repro.units import gbps_to_bytes_per_s

from .oracle import oracle_family_key, oracle_fingerprint


def golden_jobs():
    """A fixed set of jobs covering every kind and every optional input."""
    rn50 = get_model("resnet50")
    cluster = cluster_for_gpus(16)
    faults = FaultSchedule(
        seed=3,
        stragglers=(StragglerFault(worker=1, slowdown=1.5),),
        links=(LinkFault(node_a=0, node_b=1, factor=0.5, start_iteration=2,
                         duration_iterations=3, period_iterations=6),),
        retransmits=(RetransmitFault(drop_rate=0.01),))
    degraded = Fabric(cluster)
    degraded.degrade_link(0, 1, 0.5)
    inputs = PerfModelInputs(world_size=16,
                             bandwidth_bytes_per_s=gbps_to_bytes_per_s(10.0),
                             batch_size=64)
    return {
        "sim-default": SimJob(model=rn50, cluster=cluster_for_gpus(8)),
        "sim-faulted": SimJob(model=rn50, cluster=cluster, batch_size=64,
                              iterations=20, warmup=5, faults=faults),
        "sim-degraded": SimJob(model=rn50, cluster=cluster, fabric=degraded,
                               scheme=TopKScheme(0.01), seed=4),
        "sim-bert-powersgd": SimJob(model=get_model("bert-base"),
                                    cluster=cluster_for_gpus(32),
                                    scheme=scheme_from_spec("powersgd:rank=4"),
                                    batch_size=12),
        "eval-sweep": ModelEvalJob(model=rn50, scheme=TopKScheme(0.01),
                                   inputs=inputs,
                                   profile=v100_kernel_profile(),
                                   compute_factor=2.0),
        "eval-tradeoff": ModelEvalJob(model=rn50, scheme=PowerSGDScheme(4),
                                      inputs=inputs, tradeoff_k=2.0,
                                      tradeoff_l=1.5),
        "advisor-shard": AdvisorShardJob(
            model=get_model("resnet101"), scheme=scheme_from_spec("signsgd"),
            inputs=PerfModelInputs(world_size=1, bandwidth_bytes_per_s=1.0,
                                   batch_size=32),
            world_size=32, bw_lo_gbps=1.0, bw_hi_gbps=100.0, bw_points=64,
            start=16, count=16),
    }


#: ``fingerprint()`` of each :func:`golden_jobs` entry, as written into
#: cache directories since fingerprint version 1.  Never edit one to
#: make a test pass: a changed value orphans every cache entry.
GOLDEN_KEYS = {
    "sim-default":
        "72be0ca53fb594a3a29bf67b53ccf14883a0d7080a327133ec2b2559ed6c46e4",
    "sim-faulted":
        "2c2aa12cad4522ecd516b3c2bd20aa3474c68ad66b3a27189cabca39f62311ef",
    "sim-degraded":
        "f9e4d5cede6563ef405dadb5572f21acdfdba26ef5c129c3b6986dce1381291c",
    "sim-bert-powersgd":
        "96b6a1546a2b810ce2a5830152fbde5ff229633227b0a5b5b1c8b4d06c0b14a4",
    "eval-sweep":
        "57e34af48618d5727231a901ed4437b6886ad9aec6554177ab009e6105d57712",
    "eval-tradeoff":
        "3440efe38b200f6f94341e2fe8c905cee0c2df210ae5fccef1bb677a41f3355d",
    "advisor-shard":
        "eaaa79e0a2b2e04cc5a7038b0358dad46085f5eea537650fa7e62faa0e36d217",
}


class TestGoldenKeys:
    def test_version_is_unchanged(self):
        assert FINGERPRINT_VERSION == 1

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_fingerprint_is_pinned(self, name):
        job = golden_jobs()[name]
        assert job.fingerprint() == GOLDEN_KEYS[name]
        # Twice: the second call is served from the fragment memo.
        assert job.fingerprint() == GOLDEN_KEYS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_oracle_agrees_with_the_pinned_values(self, name):
        assert oracle_fingerprint(golden_jobs()[name]) == GOLDEN_KEYS[name]


# ----- the randomized oracle property ----------------------------------------

MODELS = ("resnet50", "resnet101", "bert-base", "vgg16", "gpt2-small")
INSTANCES = tuple(available_instances().values())
GPUS = tuple(available_gpus().values())


def draw_scheme(rng):
    """A registry scheme with drawn parameters, or ``None``."""
    name = rng.choice(["none", "syncsgd", "fp16", "powersgd", "topk",
                       "signsgd", "qsgd", "terngrad", "onebit", "atomo",
                       "randomk", "dgc", "gradiveq", "natural", "efsignsgd",
                       "hybrid-powersgd"])
    if name == "none":
        return None
    params = {}
    if name in ("powersgd", "atomo"):
        params["rank"] = int(rng.integers(1, 17))
    elif name in ("topk", "randomk", "dgc"):
        params["fraction"] = float(rng.uniform(1e-4, 1.0))
    elif name == "qsgd":
        params["levels"] = int(rng.integers(1, 256))
    elif name == "gradiveq":
        block = int(rng.integers(2, 1024))
        params.update(block=block, dims=int(rng.integers(1, block + 1)))
    elif name == "hybrid-powersgd":
        params.update(rank=int(rng.integers(1, 9)),
                      min_layer_params=int(rng.integers(0, 10**6)))
    return make_scheme(name, **params)


def draw_cluster(rng):
    instance = INSTANCES[rng.integers(len(INSTANCES))]
    nodes = int(rng.integers(1, 9))
    return cluster_for_gpus(nodes * instance.gpus_per_node, instance=instance,
                            seed=int(rng.integers(0, 4)))


def draw_fabric(rng, cluster):
    if rng.random() < 0.4:
        return None
    fabric = Fabric(cluster, alpha_s=float(rng.uniform(0, 1e-4)),
                    bandwidth_jitter=float(rng.choice([0.0, 0.005, 0.05])),
                    incast_per_sender=float(rng.uniform(0, 0.02)))
    if cluster.num_nodes > 1 and rng.random() < 0.5:
        fabric.degrade_link(0, cluster.num_nodes - 1,
                            float(rng.uniform(0.1, 1.0)))
    return fabric


def draw_config(rng):
    if rng.random() < 0.4:
        return None
    return DDPConfig(
        bucket_cap_bytes=float(rng.choice([10, 25, 50])) * 2**20,
        overlap_communication=bool(rng.random() < 0.8),
        gamma=float(rng.uniform(1.0, 1.5)),
        overlap_compression=bool(rng.random() < 0.2),
        allreduce_algorithm=str(rng.choice(["ring", "double_tree",
                                            "hierarchical",
                                            "parameter_server"])),
        compute_jitter=float(rng.choice([0.0, 0.015])),
        check_memory=bool(rng.random() < 0.9))


def draw_profile(rng):
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.7:
        return v100_kernel_profile()
    return v100_kernel_profile().scaled(float(rng.uniform(0.5, 4.0)))


def draw_faults(rng, cluster):
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.5:
        return FaultSchedule()
    links = ()
    if cluster.num_nodes > 1:
        links = (LinkFault(node_a=0, node_b=1,
                           factor=float(rng.uniform(0.1, 1.0)),
                           start_iteration=int(rng.integers(0, 5))),)
    return FaultSchedule(
        seed=int(rng.integers(0, 100)),
        stragglers=(StragglerFault(
            worker=int(rng.integers(0, cluster.world_size)),
            slowdown=float(rng.uniform(1.1, 3.0))),),
        links=links,
        retransmits=((RetransmitFault(drop_rate=float(rng.uniform(0, 0.1))),)
                     if rng.random() < 0.5 else ()))


def draw_inputs(rng):
    return PerfModelInputs(
        world_size=int(rng.integers(1, 129)),
        bandwidth_bytes_per_s=gbps_to_bytes_per_s(float(rng.uniform(0.5, 100))),
        alpha_s=float(rng.uniform(0, 1e-4)),
        gamma=float(rng.uniform(1.0, 1.5)),
        batch_size=(None if rng.random() < 0.3
                    else int(rng.integers(1, 257))),
        bucket_cap_bytes=float(rng.choice([10, 25])) * 2**20)


def draw_job(rng):
    model = get_model(MODELS[rng.integers(len(MODELS))])
    scheme = draw_scheme(rng)
    kind = rng.integers(3)
    if kind == 0:
        cluster = draw_cluster(rng)
        warmup = int(rng.integers(0, 10))
        return SimJob(model=model, cluster=cluster, scheme=scheme,
                      fabric=draw_fabric(rng, cluster),
                      config=draw_config(rng), profile=draw_profile(rng),
                      batch_size=(None if rng.random() < 0.3
                                  else int(rng.integers(1, 129))),
                      iterations=warmup + int(rng.integers(1, 120)),
                      warmup=warmup, seed=int(rng.integers(0, 10)),
                      faults=draw_faults(rng, cluster))
    gpu = GPUS[rng.integers(len(GPUS))]
    if kind == 1:
        tradeoff = scheme is not None and rng.random() < 0.4
        return ModelEvalJob(
            model=model, scheme=scheme, inputs=draw_inputs(rng), gpu=gpu,
            profile=draw_profile(rng),
            compute_factor=(1.0 if tradeoff or rng.random() < 0.5
                            else float(rng.uniform(0.5, 8.0))),
            tradeoff_k=float(rng.uniform(1, 10)) if tradeoff else None,
            tradeoff_l=float(rng.uniform(1, 4)) if tradeoff else None)
    points = int(rng.integers(2, 512))
    start = int(rng.integers(0, points))
    lo = float(rng.uniform(0.1, 10))
    return AdvisorShardJob(
        model=model, scheme=scheme, inputs=draw_inputs(rng),
        world_size=int(rng.integers(1, 129)), bw_lo_gbps=lo,
        bw_hi_gbps=lo + float(rng.uniform(1, 400)), bw_points=points,
        start=start, count=int(rng.integers(1, points - start + 1)),
        gpu=gpu, profile=draw_profile(rng))


def assert_matches_oracle(job):
    assert job.fingerprint() == oracle_fingerprint(job), job.describe()
    assert job.family_key() == oracle_family_key(job), job.describe()


@pytest.mark.parametrize("seed", range(4))
def test_composed_keys_equal_the_expanded_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        job = draw_job(rng)
        assert_matches_oracle(job)
        # The second computation reads every frozen fragment from the
        # memo and must not differ from the first.
        assert_matches_oracle(job)


@pytest.mark.parametrize("seed", range(3))
def test_mutable_inputs_are_rendered_on_every_call(seed):
    """A scheme attribute changed, or a link degraded, after the first
    fingerprint: the key moves exactly as the oracle's does."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(12):
        model = get_model(MODELS[rng.integers(len(MODELS))])
        cluster = cluster_for_gpus(8 * int(rng.integers(2, 9)))
        scheme = PowerSGDScheme(int(rng.integers(1, 9)))
        fabric = Fabric(cluster)
        job = SimJob(model=model, cluster=cluster, scheme=scheme,
                     fabric=fabric, seed=int(rng.integers(0, 5)))
        inputs = draw_inputs(rng)
        evaluation = ModelEvalJob(model=model, scheme=scheme, inputs=inputs)
        shard = AdvisorShardJob(model=model, scheme=scheme, inputs=inputs,
                                world_size=16, bw_lo_gbps=1.0,
                                bw_hi_gbps=50.0, bw_points=8, start=0,
                                count=8)
        before = {j: (j.fingerprint(), j.family_key())
                  for j in (job, evaluation, shard)}

        scheme.rank += int(rng.integers(1, 5))
        for j in (job, evaluation, shard):
            assert_matches_oracle(j)
            assert j.fingerprint() != before[j][0]
            assert j.family_key() != before[j][1]

        sim_before = (job.fingerprint(), job.family_key())
        fabric.degrade_link(0, int(rng.integers(1, cluster.num_nodes)),
                            float(rng.uniform(0.1, 0.9)))
        assert_matches_oracle(job)
        assert job.fingerprint() != sim_before[0]
        assert job.family_key() != sim_before[1]


# ----- memo hygiene -----------------------------------------------------------


def fresh_jobs():
    """Jobs over model/cluster/config objects no other test has keyed."""
    model = replace(get_model("resnet50"))
    cluster = cluster_for_gpus(16)
    inputs = PerfModelInputs(world_size=16,
                             bandwidth_bytes_per_s=gbps_to_bytes_per_s(10.0))
    return model, [
        SimJob(model=model, cluster=cluster, scheme=PowerSGDScheme(4),
               fabric=Fabric(cluster), config=DDPConfig(gamma=1.2),
               profile=v100_kernel_profile().scaled(2.0),
               faults=FaultSchedule(stragglers=(
                   StragglerFault(worker=0, slowdown=2.0),))),
        ModelEvalJob(model=model, scheme=TopKScheme(0.01), inputs=inputs),
        AdvisorShardJob(model=model, scheme=None, inputs=inputs,
                        world_size=16, bw_lo_gbps=1.0, bw_hi_gbps=50.0,
                        bw_points=8, start=2, count=4),
    ]


def test_fingerprinting_does_not_grow_pickled_payloads():
    """Pooled tasks ship jobs (and their model) to workers; the fragment
    memo must live outside them."""
    model, jobs = fresh_jobs()
    model_size = len(pickle.dumps(model))
    sizes = [len(pickle.dumps(job)) for job in jobs]
    for job in jobs:
        job.fingerprint()
        job.family_key()
    assert len(pickle.dumps(model)) == model_size
    assert [len(pickle.dumps(job)) for job in jobs] == sizes


def test_memo_does_not_keep_specs_alive():
    model, jobs = fresh_jobs()
    assert all(job.fingerprint() for job in jobs)
    refs = [weakref.ref(model), weakref.ref(jobs[0].cluster),
            weakref.ref(jobs[0].config), weakref.ref(jobs[0].profile)]
    del model, jobs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_fragment_is_rendered_once_per_spec():
    model, _ = fresh_jobs()
    assert model_fragment(model) is model_fragment(model)
    # An equal but distinct spec renders to the same text.
    twin = replace(model)
    assert model_fragment(twin) == model_fragment(model)
