"""Cache keys: pinned values, the digest oracle, memo hygiene.

Job keys are composed from per-spec SHA-256 digests that
:mod:`repro.engine.fingerprint` computes once per spec object.  Four
things keep that safe:

* **golden keys** — literal ``fingerprint()`` values that every cache
  directory on disk is written under; a drifted composer would
  silently orphan them all;
* **the oracle property** — over seeded random jobs of every kind, the
  composed ``fingerprint()`` and ``family_key()`` equal the digests of
  the expanded dict payloads in ``tests/oracle.py`` with each frozen
  member replaced by its digest, including after a scheme attribute or
  the fabric's bandwidth matrix changes;
* **key identity** — equal specs built as distinct objects give equal
  keys, and specs that differ in any one field give different keys;
* **memo hygiene** — fingerprinting never grows a pickled job or model
  (pooled tasks ship them), never keeps a spec alive, renders each
  model once however many jobs read it, and hashes a small payload.
"""

import copy
import gc
import json
import pickle
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from repro.compression import make_scheme, scheme_from_spec
from repro.compression.kernel_cost import v100_kernel_profile
from repro.compression.schemes import PowerSGDScheme, TopKScheme
from repro.core import PerfModelInputs
from repro.engine import (
    FINGERPRINT_VERSION,
    AdvisorShardJob,
    AdvisorShardResult,
    ModelEvalJob,
    SimJob,
    model_digest,
)
import repro.engine.fingerprint as fingerprint_module
from repro.engine.cache import outcome_to_payload, payload_to_outcome
from repro.faults import (
    FaultSchedule,
    LinkFault,
    RetransmitFault,
    StragglerFault,
)
from repro.hardware import available_gpus, available_instances, cluster_for_gpus
from repro.models import get_model
from repro.network import Fabric
from repro.simulator import DDPConfig, TimingResult
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
#: cache directories since fingerprint version 2 (digest-composed
#: keys).  Never edit one to make a test pass: a changed value orphans
#: every cache entry.
GOLDEN_KEYS = {
    "sim-default":
        "e5bb452da051c3606a0d0c47c9b1ed42c693668f38ca2ea16f138b5dca008521",
    "sim-faulted":
        "00f455ebe0fc024233e30f81f42ed8bee053e336d7d9a795768052f039bb4a9c",
    "sim-degraded":
        "e5756c6ec18157250c221db53bac90117e3834bc57016414e931c30ec7571663",
    "sim-bert-powersgd":
        "776393730c0f77c7a9edb773e5e29160f1ecdd8022382af7640132bac3f9f5f3",
    "eval-sweep":
        "1bb2f785df6058eb257e8e25e7d11a71551404b40cd8471923159d341176d648",
    "eval-tradeoff":
        "1d65eaae0966a8ba5635e8c7536ef70f1f3dc206c02a492e87bb74470e9e1b35",
    "advisor-shard":
        "11de864df74f0b9ef289f5d553e959112edb9ba53de06fc54bfb1368edbc6e31",
}


class TestGoldenKeys:
    def test_version_is_unchanged(self):
        assert FINGERPRINT_VERSION == 2

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_fingerprint_is_pinned(self, name):
        job = golden_jobs()[name]
        assert job.fingerprint() == GOLDEN_KEYS[name]
        # Twice: the second call is served from the digest memo.
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
        # The second computation reads every frozen digest from the
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


# ----- key identity -----------------------------------------------------------

#: The spec members of each job kind, and the default each ``None``
#: member stands for.
SPEC_MEMBERS = {
    SimJob: ("model", "cluster", "config", "profile"),
    ModelEvalJob: ("model", "gpu", "profile"),
    AdvisorShardJob: ("model", "gpu", "profile"),
}
DEFAULT_SPECS = {"config": DDPConfig, "profile": v100_kernel_profile}

#: Fields no output depends on, which the key leaves out by design.
UNKEYED = {("ModelSpec", "sample_description"),
           ("InstanceType", "hourly_usd")}


def changed_values(value, rng):
    """``(path, new value)`` for every way of changing one leaf of
    ``value``: each keyed field of a dataclass, and one drawn element
    of a tuple (an empty one gains an element)."""
    if is_dataclass(value):
        for field in fields(value):
            if (type(value).__name__, field.name) in UNKEYED:
                continue
            for path, new in changed_values(getattr(value, field.name), rng):
                twin = copy.copy(value)
                object.__setattr__(twin, field.name, new)
                yield f".{field.name}{path}", twin
    elif value == ():
        yield "", (1,)
    elif isinstance(value, tuple):
        i = int(rng.integers(len(value)))
        for path, new in changed_values(value[i], rng):
            yield f"[{i}]{path}", value[:i] + (new,) + value[i + 1:]
    elif isinstance(value, bool):
        yield "", not value
    elif isinstance(value, int):
        yield "", value + int(rng.integers(1, 4))
    elif isinstance(value, float):
        scale = float(rng.uniform(0.01, 1.0))
        yield "", value * (1.0 + scale) + scale
    elif isinstance(value, str):
        yield "", value + "~"
    else:
        raise AssertionError(f"no way to change a {type(value).__name__}")


def spec_members(job):
    """The job's spec members, ``None`` ones given their default."""
    return {name: getattr(job, name) if getattr(job, name) is not None
            else DEFAULT_SPECS[name]()
            for name in SPEC_MEMBERS[type(job)]}


@pytest.mark.parametrize("seed", range(3))
def test_equal_specs_as_distinct_objects_give_equal_keys(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(20):
        job = draw_job(rng)
        twin = copy.deepcopy(job)
        for name in SPEC_MEMBERS[type(job)]:
            if getattr(job, name) is not None:
                assert getattr(twin, name) is not getattr(job, name)
        assert twin.fingerprint() == job.fingerprint(), job.describe()
        assert twin.family_key() == job.family_key(), job.describe()


@pytest.mark.parametrize("seed", range(3))
def test_specs_differing_in_one_field_give_different_keys(seed):
    rng = np.random.default_rng(300 + seed)
    for _ in range(6):
        job = draw_job(rng)
        members = spec_members(job)
        job = replace(job, **members)
        key, family = job.fingerprint(), job.family_key()
        seen = {key}
        for name, spec in members.items():
            for path, changed in changed_values(spec, rng):
                variant = replace(job, **{name: changed})
                where = f"{job.describe()}: {name}{path}"
                assert variant.fingerprint() not in seen, where
                assert variant.family_key() != family, where
                seen.add(variant.fingerprint())
        # Only the unkeyed fields leave a key where it was.
        model = copy.copy(job.model)
        object.__setattr__(model, "sample_description", "changed")
        assert replace(job, model=model).fingerprint() == key


def test_array_payloads_round_trip_bit_for_bit():
    """Random float64 bit patterns (NaNs aside: no result holds one)
    plus the special values survive a payload's JSON round trip.  A
    timing result's samples are non-empty and finite by contract, so
    its leg leaves out the infinities and the empty array."""
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
               float("inf"), float("-inf"), 1.7976931348623157e308]
    for n in (0, 1, 7, 200):
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64,
                            endpoint=False)
        values = bits.view(np.float64)
        values = np.where(np.isnan(values), -0.0, values)
        values = tuple(values.tolist()) + tuple(special)
        finite = tuple(v for v in values if np.isfinite(v))
        result = TimingResult(model="m", scheme="s", world_size=8,
                              batch_size=32, sync_times=finite,
                              iteration_times=finite[::-1])
        shard = AdvisorShardResult(priced=n, offsets=tuple(range(len(values))),
                                   total_s=values)
        for outcome in (result, shard):
            payload = json.loads(json.dumps(outcome_to_payload(outcome)))
            back = payload_to_outcome(payload)
            for name in ("sync_times", "iteration_times", "total_s"):
                if not hasattr(outcome, name):
                    continue
                got = getattr(back, name)
                assert type(got) is tuple
                assert all(type(v) is float for v in got)
                assert (np.asarray(got).view(np.uint64).tolist()
                        == np.asarray(getattr(outcome, name))
                        .view(np.uint64).tolist())


@pytest.mark.parametrize("sync, iters", [
    ((), ()),
    ((1.0, 2.0), (1.0,)),
    ((1.0, float("inf")), (1.0, 2.0)),
    ((1.0, 2.0), (float("nan"), 2.0)),
])
def test_result_payloads_without_simulable_samples_do_not_rehydrate(
        sync, iters):
    result = TimingResult(model="m", scheme="s", world_size=8,
                          batch_size=32, sync_times=sync,
                          iteration_times=iters)
    with pytest.raises(ValueError):
        payload_to_outcome(outcome_to_payload(result))


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


def test_model_digest_is_computed_once_per_spec():
    model, _ = fresh_jobs()
    assert model_digest(model) is model_digest(model)
    # An equal but distinct spec digests to the same value.
    twin = replace(model)
    assert model_digest(twin) == model_digest(model)


def test_one_model_rendering_serves_100_jobs(monkeypatch):
    """Fingerprinting 100 jobs of every kind over one model renders the
    model's layer JSON once; every other payload hashed stays small."""
    rendered = []
    canonical_json = fingerprint_module.canonical_json

    def recording(payload):
        text = canonical_json(payload)
        rendered.append(text)
        return text

    monkeypatch.setattr(fingerprint_module, "canonical_json", recording)
    model, _ = fresh_jobs()
    cluster = cluster_for_gpus(16)
    jobs = []
    for i in range(100):
        inputs = PerfModelInputs(
            world_size=16, bandwidth_bytes_per_s=gbps_to_bytes_per_s(1.0 + i))
        jobs.append(
            SimJob(model=model, cluster=cluster, scheme=TopKScheme(0.01),
                   fabric=Fabric(cluster), seed=i) if i % 3 == 0 else
            ModelEvalJob(model=model, scheme=PowerSGDScheme(4),
                         inputs=inputs) if i % 3 == 1 else
            AdvisorShardJob(model=model, scheme=None, inputs=inputs,
                            world_size=16, bw_lo_gbps=1.0, bw_hi_gbps=50.0,
                            bw_points=128, start=i, count=1))
    keys = {job.fingerprint() for job in jobs}
    assert len(keys) == 100
    for job in jobs:
        job.family_key()
    layer_renderings = [text for text in rendered if '"layers":' in text]
    assert len(layer_renderings) == 1
    assert len(layer_renderings[0]) > 10_000
    assert max(len(text) for text in rendered
               if text is not layer_renderings[0]) < 2048


def test_one_scheme_rendering_serves_100_jobs(monkeypatch):
    """Jobs of every kind sharing one scheme object render its payload
    once; changing an attribute renders it once more, and the keys
    move as the oracle's do."""
    rendered = []
    canonical_json = fingerprint_module.canonical_json

    def recording(payload):
        text = canonical_json(payload)
        rendered.append(text)
        return text

    monkeypatch.setattr(fingerprint_module, "canonical_json", recording)
    model, _ = fresh_jobs()
    cluster = cluster_for_gpus(16)
    scheme = PowerSGDScheme(4)
    jobs = []
    for i in range(100):
        inputs = PerfModelInputs(
            world_size=16, bandwidth_bytes_per_s=gbps_to_bytes_per_s(1.0 + i))
        jobs.append(
            SimJob(model=model, cluster=cluster, scheme=scheme, seed=i)
            if i % 3 == 0 else
            ModelEvalJob(model=model, scheme=scheme, inputs=inputs)
            if i % 3 == 1 else
            AdvisorShardJob(model=model, scheme=scheme, inputs=inputs,
                            world_size=16, bw_lo_gbps=1.0, bw_hi_gbps=50.0,
                            bw_points=128, start=i, count=1))

    def scheme_renderings():
        return sum('"class":"PowerSGDScheme"' in text for text in rendered)

    before = [(job.fingerprint(), job.family_key()) for job in jobs]
    assert len({key for key, _ in before}) == 100
    assert scheme_renderings() == 1
    scheme.rank = 5
    after = [(job.fingerprint(), job.family_key()) for job in jobs]
    assert scheme_renderings() == 2
    for job, old, new in zip(jobs, before, after):
        assert new[0] != old[0] and new[1] != old[1]
        assert new == (oracle_fingerprint(job), oracle_family_key(job))


@pytest.mark.parametrize("first, then", [
    (1, 1.0), (1, True), (0, False), (0.0, -0.0), (-0.0, 0.0)])
def test_scheme_attribute_of_an_equal_value_is_rendered_again(first, then):
    """The scheme memo compares attribute values by identity: values
    that compare equal but render differently never share a key."""
    scheme = TopKScheme(0.01)
    job = ModelEvalJob(model=get_model("resnet50"), scheme=scheme,
                       inputs=PerfModelInputs(world_size=8,
                                              bandwidth_bytes_per_s=1e9))
    scheme.extra = first
    key = job.fingerprint()
    scheme.extra = then
    assert job.fingerprint() == oracle_fingerprint(job) != key


def test_scheme_holding_a_mutable_value_is_rendered_on_every_call():
    scheme = TopKScheme(0.01)
    scheme.layers = [1, 2]
    job = ModelEvalJob(model=get_model("resnet50"), scheme=scheme,
                       inputs=PerfModelInputs(world_size=8,
                                              bandwidth_bytes_per_s=1e9))
    key = job.fingerprint()
    scheme.layers.append(3)
    assert job.fingerprint() != key
    assert job.fingerprint() == oracle_fingerprint(job)
