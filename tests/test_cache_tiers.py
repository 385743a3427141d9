"""Tiered cache: hot/pack interplay, stray per-key files, batched I/O,
chaos."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.perf_model import PredictedTime
from repro.engine import ExperimentEngine, SimJob, SimulationCache
from repro.engine.cache import (
    CacheStats,
    floats_to_text,
    outcome_to_payload,
    payload_to_outcome,
)
from repro.engine.pack import INDEX_FILENAME, segment_name
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware import cluster_for_gpus
from repro.simulator import TimingResult


def _predicted(i):
    return PredictedTime(total=1.0 + i, compute=0.5, encode_decode=0.1,
                         comm_exposed=0.4)


def _result(i):
    return TimingResult(model="m", scheme="s", world_size=8,
                        batch_size=32, sync_times=(0.1 + i, 0.2),
                        iteration_times=(0.3, 0.4 + i))


def _keys(n, prefix=0):
    return [f"{prefix:032x}{i:032x}" for i in range(n)]


def _write_per_key(directory, key, entry):
    """Write a stray ``<key>.json`` file in the per-key layout of older
    caches: an outcome's JSON payload, or ``entry`` verbatim when it is
    already text.  The cache never reads such a file."""
    os.makedirs(directory, exist_ok=True)
    text = entry if isinstance(entry, str) \
        else json.dumps(outcome_to_payload(entry))
    with open(os.path.join(directory, f"{key}.json"), "w",
              encoding="utf-8") as handle:
        handle.write(text)


def _per_key_files(directory):
    """``{name: bytes}`` of the per-key files in ``directory``."""
    return {n: (directory / n).read_bytes() for n in os.listdir(directory)
            if n.endswith(".json") and len(n) == 69}


class TestTierEquivalence:
    def test_hits_identical_across_all_tiers(self, tmp_path, open_cache):
        """The same key must rehydrate byte-identically whether it is
        served hot or from a pack."""
        key = "a" * 64
        outcome = _result(3)

        pack_dir = tmp_path / "pack"
        packed = open_cache(str(pack_dir))
        packed.store_many([(key, outcome)])
        packed.close()
        reopened = open_cache(str(pack_dir))
        from_pack = reopened.get(key)
        assert reopened.stats.pack_hits == 1

        hot = open_cache(str(tmp_path / "hot"), memory_mb=4)
        hot.store_many([(key, outcome)])
        from_memory = hot.get(key)
        assert hot.stats.memory_hits == 1

        assert from_pack == outcome
        assert from_memory == outcome
        assert payload_to_outcome(outcome_to_payload(from_pack)) \
            == from_memory

    def test_oom_round_trips_through_packs(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path))
        oom = OutOfMemoryError("boom", required_bytes=10, budget_bytes=5)
        cache.store_many([("b" * 64, oom)])
        hit = cache.get("b" * 64)
        assert isinstance(hit, OutOfMemoryError)
        assert hit.required_bytes == 10

    def test_memory_mb_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SimulationCache(str(tmp_path), memory_mb=-1)


class TestBatchedIO:
    def test_lookup_many_mixes_tiers(self, tmp_path, open_cache):
        keys = _keys(6)
        seed = open_cache(str(tmp_path))
        seed.store_many(
            [(k, _predicted(i)) for i, k in enumerate(keys[2:4], start=2)])
        seed.close()
        cache = open_cache(str(tmp_path), memory_mb=4)
        cache.store_many(
            [(k, _predicted(i)) for i, k in enumerate(keys[:2])])
        found = cache.lookup_many(keys)
        assert found == {k: _predicted(i) for i, k in enumerate(keys[:4])}
        assert cache.stats.hits == 4
        assert cache.stats.misses == 2
        assert cache.stats.memory_hits == 2
        assert cache.stats.pack_hits == 2

    def test_lookup_many_counts_per_occurrence(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path))
        key = "c" * 64
        cache.store_many([(key, _predicted(0))])
        cache.lookup_many([key, key, "d" * 64])
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_lookup_many_writes_back_to_hot_tier(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path), memory_mb=4)
        key = "e" * 64
        cache.store_many([(key, _predicted(1))])
        cache.memory.clear()  # simulate a restart's cold hot-tier
        cache.lookup_many([key])
        assert cache.stats.pack_hits == 1
        cache.lookup_many([key])
        assert cache.stats.memory_hits == 1

    def test_store_many_duplicate_keys_last_wins(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path))
        key = "f" * 64
        cache.store_many([(key, _predicted(1)), (key, _predicted(2))])
        assert cache.get(key) == _predicted(2)

    def test_concurrent_batches_like_the_scheduler(self, tmp_path, open_cache):
        """Hammer lookup_many/store_many from threads the way the
        serving scheduler's drain loop and HTTP workers do, with a hot
        tier small enough to evict and a switch interval short enough
        to interleave its bookkeeping."""
        cache = open_cache(str(tmp_path), memory_mb=16 / 1024)
        errors = []
        per_thread = 40
        # Every thread re-stores these each round, so the same key is
        # written by several threads at once.
        shared = _keys(20, prefix=99)
        lookups = 20

        def worker(tid):
            try:
                keys = _keys(per_thread, prefix=tid)
                cache.store_many(
                    [(k, _predicted(i)) for i, k in enumerate(keys)])
                for _ in range(5):
                    cache.store_many(
                        [(k, _predicted(i)) for i, k in enumerate(shared)])
                    for _ in range(lookups):
                        found = cache.lookup_many(keys + shared)
                        assert set(found) == set(keys + shared)
                        for i, key in enumerate(keys):
                            assert found[key] == _predicted(i)
                        for i, key in enumerate(shared):
                            assert found[key] == _predicted(i)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = cache.stats
        assert stats.stores == 6 * (per_thread + 5 * len(shared))
        assert stats.hits == 6 * 5 * lookups * (per_thread + len(shared))
        assert stats.misses == 0
        # No lost update in the hot tier's bookkeeping.
        memory = cache.memory
        assert memory.current_bytes == sum(
            nbytes for _, nbytes in memory._entries.values())
        assert 0 < memory.current_bytes <= memory.max_bytes
        assert 0 < memory.evictions == stats.evictions
        cache.close()
        # Everything the threads wrote is durable and healthy.
        reopened = open_cache(str(tmp_path))
        assert len(reopened) == 6 * per_thread + len(shared)
        assert reopened.verify()["corrupt"] == 0


class TestChaos:
    def test_killed_mid_flush_is_detected_not_served(self, tmp_path,
                                                     open_cache):
        """A pack segment torn by a mid-flush kill must read as misses,
        be reported by verify, and never rehydrate into an outcome."""
        cache = open_cache(str(tmp_path))
        keys = _keys(8)
        cache.store_many(
            [(k, _result(i)) for i, k in enumerate(keys)])
        cache.close()
        seg = tmp_path / segment_name(1)
        raw = seg.read_bytes()
        seg.write_bytes(raw[:int(len(raw) * 0.6)])  # the "kill"

        survivor = open_cache(str(tmp_path))
        report = survivor.verify()
        assert report["pack_truncated"] > 0
        assert report["corrupt"] > 0
        served = [k for k in keys if survivor.get(k) is not None]
        dropped = [k for k in keys if k not in served]
        assert dropped, "the torn tail must not be served"
        for key in served:  # survivors rehydrate cleanly
            assert isinstance(survivor.get(key), TimingResult)

    def test_killed_mid_index_append_keeps_prior_entries(self, tmp_path,
                                                         open_cache):
        cache = open_cache(str(tmp_path))
        cache.store_many([(k, _predicted(i))
                          for i, k in enumerate(_keys(3))])
        cache.close()
        with open(tmp_path / INDEX_FILENAME, "ab") as handle:
            handle.write(b'{"k":"torn')
        survivor = open_cache(str(tmp_path))
        assert len(survivor) == 3
        assert survivor.verify()["pack_truncated"] == 1


class TestMaintenance:
    def test_preload_warms_pack_index_and_memory(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path), memory_mb=4)
        keys = _keys(4)
        cache.store_many(
            [(k, _predicted(i)) for i, k in enumerate(keys)])
        cache.close()
        _write_per_key(tmp_path, "b" * 64, _predicted(9))  # never read

        warm = open_cache(str(tmp_path), memory_mb=4)
        report = warm.preload(memory=True)
        assert report["entries"] == 4
        assert report["memory_entries"] == 4
        assert report["skipped"] == 0
        warm.lookup_many(keys + ["b" * 64])
        assert warm.stats.memory_hits == 4  # served without disk I/O
        assert warm.stats.misses == 1

    def test_preload_without_memory_touches_packs_only(self, tmp_path,
                                                       open_cache):
        cache = open_cache(str(tmp_path))
        cache.store_many([("a" * 64, _predicted(1))])
        report = cache.preload()
        assert report == {"entries": 1, "memory_entries": 0,
                          "skipped": 0}

    @pytest.mark.parametrize("payload", [
        {"kind": "advisor-shard", "total_s": [0.125, 0.25]},
        {"kind": "advisor-frontier", "priced": 2, "offsets": [0],
         "total_s": "not base64!"},
        {"kind": "advisor-frontier", "priced": 2, "offsets": [0],
         "total_s": "AAAAAAAAwD8A"},
        {"kind": "result", "model": "m", "scheme": "s", "world_size": 8,
         "batch_size": 32, "sync_times": [0.1], "iteration_times": [0.2]},
    ], ids=["retired-kind", "bad-base64", "ragged-bytes", "list-array"])
    @pytest.mark.parametrize("preload", [False, True])
    def test_bad_record_reads_as_a_miss(self, tmp_path, open_cache,
                                        payload, preload):
        """A pack record that does not rehydrate misses whether or not
        a preload ran first: preload counts it as skipped and keeps it
        out of the hot tier."""
        seed = open_cache(str(tmp_path))
        seed.packs.append_many([("a" * 64, payload)])
        seed.store_many([("b" * 64, _predicted(1))])
        seed.close()
        cache = open_cache(str(tmp_path), memory_mb=8)
        if preload:
            assert cache.preload(memory=True) == {
                "entries": 1, "memory_entries": 1, "skipped": 1}
        found = cache.lookup_many(["a" * 64, "b" * 64])
        assert found == {"b" * 64: _predicted(1)}
        assert cache.stats.misses == 1
        with pytest.raises((KeyError, TypeError, ValueError)):
            payload_to_outcome(payload)

    @pytest.mark.parametrize("sync, iters", [
        ((), ()), ((0.1, 0.2), (0.3,)), ((0.1, float("inf")), (0.3, 0.4)),
        ((0.1, 0.2), (float("nan"), 0.4)),
    ], ids=["empty", "unequal", "infinite", "nan"])
    def test_result_record_without_simulable_samples(self, tmp_path,
                                                     open_cache, tiny_model,
                                                     sync, iters):
        """A result record whose samples no simulation produces is a
        miss: the job is simulated again, and ``verify`` flags the
        record, while a record of a retired kind stays healthy."""
        job = SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                     batch_size=4, iterations=6, warmup=1)
        key = job.fingerprint()
        seed = open_cache(str(tmp_path))
        seed.packs.append_many([
            (key, {"kind": "result", "model": "m", "scheme": "s",
                   "world_size": 4, "batch_size": 4,
                   "sync_times": floats_to_text(sync),
                   "iteration_times": floats_to_text(iters)}),
            ("c" * 64, {"kind": "advisor-shard", "total_s": [0.125]})])
        assert seed.verify()["corrupt"] == 1
        seed.close()
        cache = open_cache(str(tmp_path))
        engine = ExperimentEngine(jobs=1, cache=cache)
        result = engine.run(job)
        assert engine.executed == 1
        assert result == job.evaluate()
        assert cache.stats.misses == 1
        # The re-simulated result is stored after the bad record, and
        # the newest record of a key wins.
        assert cache.lookup_many([key]) == {key: result}
        cache.close()

    def test_info_snapshot_shape(self, tmp_path, open_cache):
        cache = open_cache(str(tmp_path), memory_mb=1)
        cache.store_many([("a" * 64, _predicted(1)),
                          ("b" * 64, _predicted(2))])
        info = cache.info()
        assert set(info) == {"directory", "pack", "memory", "stats"}
        assert info["pack"]["entries"] == 2
        assert info["memory"]["entries"] == 2
        assert info["stats"]["stores"] == 2
        json.dumps(info)  # manifest-embeddable


class TestTierStats:
    def test_describe_unchanged_without_tier_traffic(self):
        assert CacheStats(hits=3, misses=1).describe() \
            == "3 hits / 1 misses (75% hit rate)"

    def test_describe_mentions_tiers_when_used(self):
        text = CacheStats(hits=4, misses=0, memory_hits=2,
                          pack_hits=2).describe()
        assert text.endswith("[2 mem / 2 pack]")

    def test_since_tracks_tier_counters(self):
        stats = CacheStats(hits=4, memory_hits=1, pack_hits=2,
                           evictions=3)
        snap = stats.snapshot()
        stats.memory_hits += 2
        stats.evictions += 1
        delta = stats.since(snap)
        assert delta.memory_hits == 2
        assert delta.pack_hits == 0
        assert delta.evictions == 1

    def test_evictions_mirrored_into_stats(self, tmp_path, open_cache):
        payload = outcome_to_payload(_predicted(0))
        nbytes = len(json.dumps(payload, separators=(",", ":")))
        cache = open_cache(str(tmp_path),
                                memory_mb=2 * nbytes / (1024 * 1024))
        keys = _keys(6)
        cache.store_many(
            [(k, _predicted(0)) for k in keys])
        assert cache.stats.evictions > 0
        assert cache.memory.evictions == cache.stats.evictions


class TestLegacyMigration:
    """A directory from before the pack tier holds one ``<sha>.json``
    file per key.  It is not migrated file by file: those files are
    never read, served or deleted, their keys miss, and the engine's
    re-execution stores them to the pack."""

    def test_stray_files_ignored_and_jobs_reexecuted(self, tmp_path,
                                                     open_cache,
                                                     tiny_model, capsys):
        """A directory holding ``<sha>.json`` files in the older per-key
        layout: ``stats`` and ``verify`` do not count them, lookups do
        not serve them, nothing deletes them, and an engine run over
        the directory re-executes its job to the uncached outcome."""
        job = SimJob(model=tiny_model, cluster=cluster_for_gpus(4),
                     batch_size=4, iterations=6, warmup=1)
        expected = ExperimentEngine().run_outcomes([job])[0]
        key = job.fingerprint()
        # A valid-looking entry with a wrong timing, plus garbage.
        _write_per_key(tmp_path, key, _result(7))
        _write_per_key(tmp_path, "b" * 64, "{ torn")
        _write_per_key(tmp_path, "c" * 64, "[]")
        stray = _per_key_files(tmp_path)

        cache = open_cache(str(tmp_path))
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.info()["pack"]["entries"] == 0
        assert cache.verify() == {"pack_entries": 0, "pack_ok": 0,
                                  "pack_corrupt": 0, "pack_truncated": 0,
                                  "entries": 0, "corrupt": 0}
        engine = ExperimentEngine(cache=cache)
        outcome = engine.run_outcomes([job])[0]
        assert engine.executed == 1
        assert outcome.ok and outcome.result == expected.result
        cache.close()

        assert main(["cache", "stats", "--cache", str(tmp_path)]) == 0
        assert main(["cache", "verify", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries in 1 segment(s)" in out
        assert "total:  1 distinct keys" in out
        assert "OK: 1 entries healthy" in out
        reopened = open_cache(str(tmp_path))
        assert reopened.get(key) == expected.result
        assert _per_key_files(tmp_path) == stray  # untouched

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_non_object_entry_is_corrupt_not_a_crash(self, tmp_path,
                                                     open_cache, text):
        """A key whose per-key file and pack record both hold a JSON
        value that is not an object: it misses, verify counts the pack
        record (and only it) as corrupt, and the record beside it and
        the per-key file are untouched."""
        key = "a" * 64
        _write_per_key(tmp_path, key, text)
        stray = _per_key_files(tmp_path)
        cache = open_cache(str(tmp_path))
        cache.packs.append_many([(key, json.loads(text))])
        cache.store_many([("b" * 64, _predicted(2))])
        cache.close()
        reopened = open_cache(str(tmp_path))
        assert reopened.get(key) is None
        assert reopened.get("b" * 64) == _predicted(2)
        assert reopened.verify()["corrupt"] == 1
        assert _per_key_files(tmp_path) == stray
        with pytest.raises(TypeError):
            payload_to_outcome(json.loads(text))

    @pytest.mark.parametrize("case", range(6))
    def test_mixed_directory_property(self, tmp_path, open_cache, case):
        """Seeded directories mixing pack-only keys, per-key files
        (valid, corrupt and non-object) with and without a pack record,
        and a torn pack tail: every packed record that survived
        rehydrates to what was written, every other key misses, and
        verify counts the pack alone.  Once the misses are re-stored,
        as the engine does after re-executing them, the next open
        serves every key, and the per-key files are as they were."""
        rng = np.random.default_rng([2022, case])
        keys = _keys(int(rng.integers(20, 60)), prefix=case)
        written = {k: _result(i) if rng.random() < 0.5 else _predicted(i)
                   for i, k in enumerate(keys)}
        garbage = ["{ torn", "[]", '"x"', "1", "null"]
        kinds = rng.choice(["stray", "pack", "both", "corrupt",
                            "corrupt+pack", "torn", "torn+stray"],
                           size=len(keys))
        packed = [k for k, kind in zip(keys, kinds)
                  if kind in ("pack", "both", "corrupt+pack")]
        torn = [k for k, kind in zip(keys, kinds) if kind.startswith("torn")]

        seed = open_cache(str(tmp_path))
        seed.store_many([(k, written[k]) for k in packed])
        if torn:
            seed.store_many([(k, written[k]) for k in torn])
            locations = [seed.packs.index[k] for k in torn]
        seed.close()
        cut_keys = set()
        if torn:
            # Tear the last batch at a random byte inside it.
            segment = tmp_path / locations[0].segment
            start = min(loc.offset for loc in locations)
            raw = segment.read_bytes()
            cut = int(rng.integers(start, len(raw)))
            segment.write_bytes(raw[:cut])
            cut_keys = {k for k, loc in zip(torn, locations)
                        if loc.offset + loc.length > cut}
        for key, kind in zip(keys, kinds):
            if kind in ("stray", "both", "torn+stray"):
                _write_per_key(tmp_path, key, written[key])
            elif kind in ("corrupt", "corrupt+pack"):
                _write_per_key(tmp_path, key,
                               garbage[int(rng.integers(len(garbage)))])
        stray = _per_key_files(tmp_path)

        cache = open_cache(str(tmp_path))
        served = (set(packed) | set(torn)) - cut_keys
        found = cache.lookup_many(keys)
        assert set(found) == served
        for key, outcome in found.items():
            assert outcome == payload_to_outcome(
                outcome_to_payload(written[key]))
        report = cache.verify()
        assert report["entries"] == len(served)
        assert report["pack_ok"] == len(served)
        assert report["pack_truncated"] == len(cut_keys)
        cache.close()

        again = open_cache(str(tmp_path))
        assert set(again.lookup_many(keys)) == served
        again.store_many([(k, written[k]) for k in keys if k not in served])
        again.close()
        migrated = open_cache(str(tmp_path))
        found = migrated.lookup_many(keys)
        assert found == {k: payload_to_outcome(outcome_to_payload(o))
                         for k, o in written.items()}
        report = migrated.verify()
        assert report["pack_ok"] == len(keys)
        # The torn records' index lines are still there, and still
        # dropped at load.
        assert report["pack_truncated"] == len(cut_keys)
        assert _per_key_files(tmp_path) == stray
