"""Simulation result cache: key semantics, round-trips, statistics."""

import json
from dataclasses import replace

import pytest

from repro.compression.schemes import PowerSGDScheme, SignSGDScheme
from repro.engine import (
    CacheStats,
    ExperimentEngine,
    SimJob,
    SimulationCache,
)
from repro.engine.pack import segment_name
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.models import get_model
from repro.network import Fabric
from repro.simulator import DDPConfig, DDPSimulator


@pytest.fixture(scope="module")
def rn50():
    return get_model("resnet50")


@pytest.fixture(scope="module")
def base_job(rn50):
    return SimJob(model=rn50, cluster=cluster_for_gpus(8),
                  scheme=PowerSGDScheme(4), batch_size=64,
                  iterations=8, warmup=2, seed=0)


class TestFingerprintSensitivity:
    """The key must change when — and only when — something that
    determines the simulation's output changes."""

    def test_stable_across_calls(self, base_job):
        assert base_job.fingerprint() == base_job.fingerprint()

    def test_equal_jobs_share_a_key(self, rn50):
        a = SimJob(model=rn50, cluster=cluster_for_gpus(8),
                   scheme=PowerSGDScheme(4), batch_size=64,
                   iterations=8, warmup=2)
        b = SimJob(model=rn50, cluster=cluster_for_gpus(8),
                   scheme=PowerSGDScheme(4), batch_size=64,
                   iterations=8, warmup=2)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("mutation", [
        dict(batch_size=32),
        dict(iterations=10),
        dict(warmup=3),
        dict(seed=1),
        dict(scheme=PowerSGDScheme(8)),
        dict(scheme=SignSGDScheme()),
        dict(scheme=None),
        dict(cluster=cluster_for_gpus(16)),
        dict(cluster=cluster_for_gpus(8, seed=5)),
        dict(config=DDPConfig(gamma=1.2)),
        dict(config=DDPConfig(bucket_cap_bytes=10 * 2**20)),
    ])
    def test_any_field_change_changes_key(self, base_job, mutation):
        assert replace(base_job, **mutation).fingerprint() \
            != base_job.fingerprint()

    def test_model_change_changes_key(self, base_job):
        other = replace(base_job, model=get_model("resnet101"))
        assert other.fingerprint() != base_job.fingerprint()

    def test_degraded_fabric_changes_key(self, base_job):
        cluster = base_job.cluster
        pristine = Fabric(cluster)
        degraded = Fabric(cluster)
        degraded.degrade_link(0, 1, 0.5)
        with_pristine = replace(base_job, fabric=pristine)
        with_degraded = replace(base_job, fabric=degraded)
        assert with_pristine.fingerprint() != with_degraded.fingerprint()
        # And an explicit default-parameter fabric still differs from
        # "no fabric given" (the simulator-built default).
        assert with_pristine.fingerprint() != base_job.fingerprint()


class TestCacheRoundTrip:
    def test_cached_result_identical_to_fresh(self, base_job, tmp_path,
                                              open_cache):
        fresh = base_job.build_simulator().run(
            base_job.batch_size, iterations=base_job.iterations,
            warmup=base_job.warmup, seed=base_job.seed)
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        first = engine.run(base_job)
        cached = engine.run(base_job)
        assert first == fresh
        assert cached == fresh  # bit-identical through JSON round-trip
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_oom_outcome_cached(self, tmp_path, open_cache):
        bert = get_model("bert-base")
        job = SimJob(model=bert, cluster=cluster_for_gpus(48),
                     scheme=SignSGDScheme(), batch_size=12,
                     iterations=5, warmup=1)
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(cache=cache)
        with pytest.raises(OutOfMemoryError):
            engine.run(job)
        executed_after_first = engine.executed
        with pytest.raises(OutOfMemoryError) as exc_info:
            engine.run(job)
        assert engine.executed == executed_after_first  # served from disk
        assert exc_info.value.required_bytes > 0

    def test_corrupt_entry_is_a_miss(self, base_job, tmp_path, open_cache):
        key = base_job.fingerprint()
        seed = open_cache(str(tmp_path))
        ExperimentEngine(cache=seed).run(base_job)
        seed.close()
        # Same length, broken JSON: the load-time size check passes, so
        # only reading the record back finds the damage.
        segment = tmp_path / segment_name(1)
        raw = segment.read_bytes()
        segment.write_bytes(b"X" + raw[1:])
        cache = open_cache(str(tmp_path))
        assert cache.verify()["pack_corrupt"] == 1
        engine = ExperimentEngine(cache=cache)
        assert engine.run(base_job) is not None  # recomputed, re-stored
        assert engine.executed == 1
        assert cache.stats.misses == 1
        cache.close()
        # The re-store is appended and its index line wins: a fresh
        # cache instance over the same directory serves the key without
        # re-simulating, and the corrupt record is no longer indexed.
        reopened = open_cache(str(tmp_path))
        assert key in reopened
        assert reopened.get(key) is not None
        assert reopened.verify()["corrupt"] == 0
        reopened.close()

    def test_len_and_contains(self, base_job, tmp_path, open_cache):
        cache = open_cache(str(tmp_path))
        key = base_job.fingerprint()
        assert key not in cache
        assert len(cache) == 0
        ExperimentEngine(cache=cache).run(base_job)
        assert key in cache
        assert len(cache) == 1

    def test_empty_directory_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationCache("")


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == pytest.approx(0.9)
        assert CacheStats().hit_rate == 0.0

    def test_since_snapshot(self):
        stats = CacheStats(hits=5, misses=3, stores=3)
        snap = stats.snapshot()
        stats.hits += 2
        stats.misses += 1
        delta = stats.since(snap)
        assert (delta.hits, delta.misses, delta.stores) == (2, 1, 0)

    def test_describe_mentions_counts(self):
        text = CacheStats(hits=3, misses=1).describe()
        assert "3 hits" in text and "1 misses" in text


class TestMinBandwidthCacheInvalidation:
    """The engine leans on Fabric.min_bandwidth() being memoized; the
    memo must drop whenever the matrix is degraded."""

    def test_degrade_link_invalidates(self):
        fabric = Fabric(cluster_for_gpus(16))
        before = fabric.min_bandwidth()
        fabric.degrade_link(0, 1, 0.5)
        after = fabric.min_bandwidth()
        assert after == pytest.approx(
            fabric.pair_bandwidth(0, 1), rel=1e-12)
        assert after < before

    def test_degrade_node_invalidates(self):
        fabric = Fabric(cluster_for_gpus(16))
        before = fabric.min_bandwidth()
        fabric.degrade_node(2, 0.25)
        assert fabric.min_bandwidth() == pytest.approx(0.25 * before,
                                                       rel=0.05)

    def test_memoized_value_consistent_with_scan(self):
        import numpy as np
        fabric = Fabric(cluster_for_gpus(24))
        n = fabric.cluster.num_nodes
        scan = float(fabric._pair_bw[~np.eye(n, dtype=bool)].min())
        assert fabric.min_bandwidth() == scan
        assert fabric.min_bandwidth() == scan  # second read from memo

    def test_simulator_sees_degradation(self, rn50):
        cluster = cluster_for_gpus(8)
        fabric = Fabric(cluster)
        sim = DDPSimulator(rn50, cluster, fabric=fabric)
        healthy = sim.run(64, iterations=6, warmup=1).mean
        fabric.degrade_link(0, 1, 0.1)
        limping = DDPSimulator(rn50, cluster, fabric=fabric).run(
            64, iterations=6, warmup=1).mean
        assert limping > healthy
