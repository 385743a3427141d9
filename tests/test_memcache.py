"""Hot tier: LRU semantics and byte budgets, against an oracle."""

import numpy as np
import pytest

from repro.engine import MemoryCache, SimulationCache
from repro.engine.advisorjobs import AdvisorShardResult
from repro.engine.cache import outcome_to_payload
from repro.engine.memcache import payload_nbytes
from repro.errors import ConfigurationError

from .oracle import LRUOracle


def _payload(i):
    return {"kind": "predicted", "total": float(i), "compute": 0.5,
            "encode_decode": 0.1, "comm_exposed": 0.4}


def put(cache, key, payload):
    return cache.put_many([(key, payload, None)])


def get(cache, key):
    return cache.get_many([key]).get(key)


class TestBasics:
    def test_roundtrip(self):
        cache = MemoryCache(max_bytes=1 << 20)
        put(cache, "a" * 64, _payload(1))
        assert get(cache, "a" * 64) == _payload(1)
        assert get(cache, "b" * 64) is None
        assert "a" * 64 in cache
        assert len(cache) == 1

    def test_put_refreshes_existing_key(self):
        cache = MemoryCache(max_bytes=1 << 20)
        put(cache, "a" * 64, _payload(1))
        put(cache, "a" * 64, _payload(2))
        assert get(cache, "a" * 64) == _payload(2)
        assert len(cache) == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryCache(max_bytes=0)
        with pytest.raises(ConfigurationError):
            MemoryCache(max_bytes=-1)

    def test_clear(self):
        cache = MemoryCache(max_bytes=1 << 20)
        put(cache, "a" * 64, _payload(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_info_is_json_shaped(self):
        cache = MemoryCache(max_bytes=4096)
        put(cache, "a" * 64, _payload(1))
        assert cache.info() == {"max_bytes": 4096, "entries": 1,
                                "bytes": payload_nbytes(_payload(1)),
                                "evictions": 0}


class TestEviction:
    def test_lru_eviction_within_budget(self):
        entry_bytes = payload_nbytes(_payload(0))
        cache = MemoryCache(max_bytes=3 * entry_bytes)
        keys = [f"{i:064x}" for i in range(4)]
        for i, key in enumerate(keys[:3]):
            put(cache, key, _payload(i))
        get(cache, keys[0])  # refresh: now keys[1] is least recent
        assert put(cache, keys[3], _payload(3)) == 1
        assert get(cache, keys[1]) is None  # evicted
        assert get(cache, keys[0]) is not None
        assert cache.evictions == 1
        assert cache.current_bytes <= cache.max_bytes

    def test_oversized_entry_not_admitted(self):
        cache = MemoryCache(max_bytes=8)
        put(cache, "a" * 64, _payload(1))  # > 8 bytes serialized
        assert get(cache, "a" * 64) is None
        assert len(cache) == 0
        assert cache.evictions == 0

    def test_bytes_accounting_tracks_contents(self):
        cache = MemoryCache(max_bytes=1 << 20)
        keys = [f"{i:064x}" for i in range(10)]
        for i, key in enumerate(keys):
            put(cache, key, _payload(i))
        expected = sum(payload_nbytes(_payload(i)) for i in range(10))
        assert cache.current_bytes == expected


class TestBatchedOps:
    def test_get_many_returns_only_present(self):
        cache = MemoryCache(max_bytes=1 << 20)
        keys = [f"{i:064x}" for i in range(6)]
        cache.put_many((k, _payload(i), None)
                       for i, k in enumerate(keys[:4]))
        found = cache.get_many(keys)
        assert set(found) == set(keys[:4])
        assert found[keys[2]] == _payload(2)

    def test_put_many_with_precomputed_sizes(self):
        cache = MemoryCache(max_bytes=1 << 20)
        key = "a" * 64
        cache.put_many([(key, _payload(1), payload_nbytes(_payload(1)))])
        assert cache.current_bytes == payload_nbytes(_payload(1))

    def test_get_many_refreshes_recency(self):
        entry_bytes = payload_nbytes(_payload(0))
        cache = MemoryCache(max_bytes=2 * entry_bytes)
        a, b = "a" * 64, "b" * 64
        put(cache, a, _payload(0))
        put(cache, b, _payload(1))
        cache.get_many([a])  # a becomes most recent
        put(cache, "c" * 64, _payload(2))
        assert get(cache, b) is None  # b was evicted, not a
        assert get(cache, a) is not None


# ----- seeded property: the hot tier against the LRU oracle ----------------

KEYS = [f"{i:064x}" for i in range(24)]


def _sized_payload(rng, budget):
    """A payload of random size, now and then larger than the budget."""
    length = int(rng.integers(0, budget * 3 // 2))
    return {"kind": "pad", "pad": "x" * length}


def _assert_same(cache, oracle):
    assert list(cache._entries) == list(oracle.entries)
    assert cache.current_bytes == oracle.current_bytes
    assert cache.evictions == oracle.evictions
    assert len(cache) == len(oracle.entries)


@pytest.mark.parametrize("seed", range(8))
def test_hot_tier_matches_the_lru_oracle(seed):
    rng = np.random.default_rng([33, seed])
    budget = int(rng.integers(100, 1500))
    cache, oracle = MemoryCache(budget), LRUOracle(budget)
    for _ in range(300):
        op = rng.random()
        if op < 0.45:
            keys = [KEYS[int(i)] for i in
                    rng.integers(len(KEYS), size=int(rng.integers(0, 8)))]
            assert cache.get_many(keys) == oracle.get_many(keys)
        elif op < 0.97:
            items = []
            for i in rng.integers(len(KEYS), size=int(rng.integers(0, 6))):
                payload = _sized_payload(rng, budget)
                # The pack writer charges its record length, which is
                # not the payload's own; either charge is taken as is.
                nbytes = (None if rng.random() < 0.5
                          else int(rng.integers(1, budget * 3 // 2)))
                items.append((KEYS[int(i)], payload, nbytes))
            assert cache.put_many(items) == oracle.put_many(items)
        else:
            cache.clear()
            oracle.clear()
        _assert_same(cache, oracle)


def _shard(rng):
    """An advisor shard result of random size (payloads grow with it)."""
    count = int(rng.integers(1, 40))
    return AdvisorShardResult(
        priced=count, offsets=tuple(range(count)),
        total_s=tuple(float(x) for x in rng.random(count)))


@pytest.mark.parametrize("seed", range(4))
def test_cache_evictions_match_the_lru_oracle(seed, tmp_path):
    """Through :class:`SimulationCache`: stores and pack hits both write
    back at the payload's length, and ``stats`` counts every eviction
    the oracle makes."""
    rng = np.random.default_rng([34, seed])
    budget = int(rng.integers(400, 3000))
    cache = SimulationCache(str(tmp_path), memory_mb=budget / 2 ** 20)
    oracle = LRUOracle(budget)
    stored = {}
    for _ in range(150):
        keys = [KEYS[int(i)] for i in
                rng.integers(len(KEYS), size=int(rng.integers(1, 7)))]
        if rng.random() < 0.5:
            entries = [(key, _shard(rng)) for key in keys]
            cache.store_many(entries)
            payloads = [(key, outcome_to_payload(shard))
                        for key, shard in entries]
            oracle.put_many((key, payload, None)
                            for key, payload in payloads)
            stored.update(entries)
        else:
            before = cache.stats.memory_hits
            found = cache.lookup_many(keys)
            unique = list(dict.fromkeys(keys))
            hot = oracle.get_many(unique)
            oracle.put_many(
                (key, outcome_to_payload(stored[key]), None)
                for key in unique if key not in hot and key in stored)
            assert found == {key: stored[key] for key in unique
                             if key in stored}
            assert cache.stats.memory_hits - before == sum(
                key in hot for key in keys)
        assert list(cache.memory._entries) == list(oracle.entries)
        assert cache.memory.current_bytes == oracle.current_bytes
        assert cache.stats.evictions == oracle.evictions
    cache.close()


def test_store_and_pack_writeback_charge_the_same(tmp_path):
    """One entry costs the hot tier the same whether it was stored or
    written back from a pack hit."""
    key, shard = KEYS[0], _shard(np.random.default_rng(34))
    stored = SimulationCache(str(tmp_path), memory_mb=1)
    stored.store_many([(key, shard)])
    stored_bytes = stored.memory.current_bytes
    stored.close()
    reopened = SimulationCache(str(tmp_path), memory_mb=1)
    assert reopened.lookup_many([key]) == {key: shard}
    assert reopened.stats.pack_hits == 1
    assert reopened.memory.current_bytes == stored_bytes == payload_nbytes(
        outcome_to_payload(shard))
    reopened.close()
