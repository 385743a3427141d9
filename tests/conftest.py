"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.hardware import ClusterConfig, cluster_for_gpus
from repro.models import LayerSpec, ModelSpec, get_model
from repro.network import Fabric


@pytest.fixture
def rng():
    """Deterministic random generator for numeric tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def resnet50():
    return get_model("resnet50")


@pytest.fixture(scope="session")
def resnet101():
    return get_model("resnet101")


@pytest.fixture(scope="session")
def bert_base():
    return get_model("bert-base")


@pytest.fixture
def tiny_model():
    """A hand-built 3-layer model small enough to reason about exactly."""
    layers = (
        LayerSpec(name="fc1", kind="linear", param_shape=(8, 4),
                  matrix_shape=(8, 4), extra_params=8,
                  fwd_flops_per_sample=2.0 * 8 * 4,
                  activation_bytes_per_sample=8 * 4),
        LayerSpec(name="act", kind="pool",
                  fwd_flops_per_sample=8.0,
                  activation_bytes_per_sample=8 * 4),
        LayerSpec(name="fc2", kind="linear", param_shape=(2, 8),
                  matrix_shape=(2, 8), extra_params=2,
                  fwd_flops_per_sample=2.0 * 2 * 8,
                  activation_bytes_per_sample=2 * 4),
    )
    return ModelSpec(name="tiny", layers=layers, default_batch_size=4)


@pytest.fixture
def small_cluster():
    """Two p3.8xlarge nodes = 8 GPUs."""
    return cluster_for_gpus(8)


@pytest.fixture
def small_fabric(small_cluster):
    return Fabric(small_cluster)


@pytest.fixture
def retry_policy(monkeypatch):
    """Set the engine's retry constants for one test:
    ``retry_policy(max_retries=0)``.  Backoff defaults to 0 here, so
    retries cost no sleep."""
    import repro.engine.engine as engine_module

    def set_policy(max_retries=engine_module.MAX_RETRIES, backoff_s=0.0):
        monkeypatch.setattr(engine_module, "MAX_RETRIES", max_retries)
        monkeypatch.setattr(engine_module, "RETRY_BACKOFF_S", backoff_s)
    return set_policy


@pytest.fixture
def open_cache():
    """Open caches for one test; each is closed at teardown (closing
    one twice is harmless)."""
    from repro.engine import SimulationCache

    opened = []

    def open_(*args, **kwargs):
        cache = SimulationCache(*args, **kwargs)
        opened.append(cache)
        return cache
    yield open_
    for cache in opened:
        cache.close()
