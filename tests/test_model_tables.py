"""Per-model simulator tables: exact, shared, and kept off the spec.

The simulator reads three static tables per model spec instead of
walking the model itself: the backward layer order with its name→index
map, the per-layer backward times for a (GPU, batch size), and the
bucket plan for a bucket cap.  The property below draws seeded random
(model, GPU, batch, cap) cases, zoo and generated models alike, and
checks each table against the scalar definition it replaces, exactly.
The hygiene tests check the memo lives beside the spec: pickled models
and jobs keep their size, and entries die with their model.
"""

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.compression.schemes import PowerSGDScheme, TopKScheme
from repro.compute import ComputeModel
from repro.engine import SimJob
from repro.engine.engine import run_sim_family
from repro.faults import FaultSchedule, StragglerFault
from repro.hardware import V100, available_gpus, cluster_for_gpus
from repro.models import (
    LayerSpec,
    ModelSpec,
    available_models,
    get_model,
    mlp_model,
    scaled_model,
    simple_cnn,
)
from repro.network import Fabric
from repro.units import MIB


def _random_layers(rng: np.random.Generator) -> ModelSpec:
    """A model of random layers, some without parameters."""
    layers = []
    for i in range(int(rng.integers(1, 40))):
        rows, cols = (int(v) for v in rng.integers(1, 600, size=2))
        trainable = rng.random() < 0.8
        layers.append(LayerSpec(
            name=f"l{i}", kind="linear" if trainable else "pool",
            param_shape=(rows, cols) if trainable else (),
            matrix_shape=(rows, cols) if trainable else (0, 0),
            extra_params=int(rng.integers(0, 50)) if trainable else 0,
            fwd_flops_per_sample=float(
                rng.random() * 10 ** rng.integers(0, 10)),
            activation_bytes_per_sample=float(rng.integers(0, 10_000))))
    return ModelSpec(name="random", layers=tuple(layers),
                     batch_half_saturation=float(rng.random() * 50),
                     compute_efficiency=float(0.1 + rng.random()))


def _generated_models(rng: np.random.Generator):
    yield _random_layers(rng)
    yield mlp_model("mlp", int(rng.integers(8, 2048)),
                    [int(v) for v in rng.integers(8, 4096, size=3)],
                    int(rng.integers(2, 1000)))
    yield simple_cnn("cnn", 64, [int(v) for v in rng.integers(8, 256, size=3)],
                     int(rng.integers(2, 1000)))
    yield scaled_model(get_model("resnet50"), float(0.25 + rng.random() * 2))


def _cases(seed: int = 0):
    rng = np.random.default_rng(seed)
    models = [get_model(name) for name in available_models()]
    for _ in range(3):
        models.extend(_generated_models(rng))
    gpus = list(available_gpus().values())
    caps = [1.0, 4 * MIB, 25 * MIB, float(rng.integers(1, 10**9)), 1e12]
    for model in models:
        for _ in range(3):
            yield (model, gpus[int(rng.integers(len(gpus)))],
                   int(rng.integers(1, 512)),
                   caps[int(rng.integers(len(caps)))])


@pytest.mark.parametrize("model, gpu, batch_size, cap", list(_cases()),
                         ids=lambda v: getattr(v, "name", None))
def test_shared_tables_equal_their_definitions(model, gpu, batch_size, cap):
    compute = ComputeModel(model, gpu)
    backward = model.backward_layers()
    assert backward == tuple(reversed(model.layers))

    times = compute.backward_layer_times(batch_size)
    expected = [compute.layer_backward_time(layer, batch_size)
                for layer in backward]
    assert times.tolist() == expected  # exact, not approximate
    assert all(type(t) is float for t in times.tolist())
    # Shared across compute models of the same spec; never writable.
    assert ComputeModel(model, gpu).backward_layer_times(batch_size) is times
    assert not times.flags.writeable

    plan = model.bucket_plan(cap)
    buckets = model.gradient_buckets(cap)
    assert plan.sizes == tuple(
        float(sum(layer.grad_bytes for layer in bucket)) for bucket in buckets)
    position = {layer.name: i for i, layer in enumerate(backward)}
    assert plan.close_idx == tuple(
        max(position[layer.name] for layer in bucket) for bucket in buckets)
    assert model.bucket_sizes_bytes(cap) == plan.sizes
    assert model.bucket_plan(cap) is plan

    for layer in model.layers[::7]:
        assert model.layer_named(layer.name) is layer


def test_equal_specs_get_equal_tables():
    """A distinct but equal spec builds its own tables with equal values."""
    model = get_model("resnet101")
    twin = replace(model)
    times = ComputeModel(model, V100).backward_layer_times(64)
    twin_times = ComputeModel(twin, V100).backward_layer_times(64)
    assert twin_times is not times
    assert twin_times.tolist() == times.tolist()
    assert twin.bucket_plan() == model.bucket_plan()
    assert twin.bucket_plan() is not model.bucket_plan()


def _jobs(model):
    cluster = cluster_for_gpus(16)
    straggler = FaultSchedule(stragglers=(
        StragglerFault(worker=0, slowdown=2.0),))
    return [SimJob(model=model, cluster=cluster, scheme=scheme,
                   fabric=Fabric(cluster), iterations=12, warmup=2,
                   faults=faults)
            for scheme in (None, PowerSGDScheme(4), TopKScheme(0.01))
            for faults in (None, straggler)]


def test_simulating_does_not_grow_pickled_payloads():
    """Pooled tasks ship jobs (and their model) to workers; running them
    must leave nothing behind on either."""
    model = replace(get_model("resnet50"))
    jobs = _jobs(model)
    model_size = len(pickle.dumps(model))
    sizes = [len(pickle.dumps(job)) for job in jobs]
    for job in jobs:
        job.evaluate()
    assert len(pickle.dumps(model)) == model_size
    assert [len(pickle.dumps(job)) for job in jobs] == sizes
    assert all(tag == "ok" for tag, *_ in run_sim_family(jobs))
    assert len(pickle.dumps(model)) == model_size
    assert [len(pickle.dumps(job)) for job in jobs] == sizes


def test_tables_are_freed_with_their_model():
    model = replace(get_model("resnet50"))
    assert all(tag == "ok" for tag, *_ in run_sim_family(_jobs(model)))
    refs = [weakref.ref(model),
            weakref.ref(ComputeModel(model, V100).backward_layer_times(64)),
            weakref.ref(model.bucket_plan())]
    del model
    gc.collect()
    assert all(ref() is None for ref in refs)
