"""Pack tier: append-only segments, offset index, crash tolerance."""

import json
import multiprocessing
import os

import pytest

from repro.engine import PackStore
from repro.engine.pack import (
    DEFAULT_SEGMENT_BYTES,
    INDEX_FILENAME,
    segment_name,
)
from repro.errors import ConfigurationError


def _payload(i):
    return {"kind": "predicted", "total": float(i), "compute": 0.5,
            "encode_decode": 0.1, "comm_exposed": 0.4}


def _keys(n):
    return [f"{i:064x}" for i in range(n)]


class TestAppendAndLookup:
    def test_roundtrip(self, tmp_path):
        store = PackStore(str(tmp_path))
        keys = _keys(5)
        written = store.append_many(
            (k, _payload(i)) for i, k in enumerate(keys))
        assert len(written) == 5
        for i, key in enumerate(keys):
            assert store.lookup(key) == _payload(i)
        assert store.lookup("f" * 64) is None
        store.close()

    def test_reopen_serves_same_entries(self, tmp_path):
        store = PackStore(str(tmp_path))
        keys = _keys(3)
        store.append_many((k, _payload(i)) for i, k in enumerate(keys))
        store.close()
        reopened = PackStore(str(tmp_path))
        assert len(reopened) == 3
        assert reopened.lookup(keys[1]) == _payload(1)
        reopened.close()

    def test_rewrite_newest_wins(self, tmp_path):
        store = PackStore(str(tmp_path))
        key = "a" * 64
        store.append_many([(key, _payload(1))])
        store.append_many([(key, _payload(2))])
        assert store.lookup(key) == _payload(2)
        store.close()
        reopened = PackStore(str(tmp_path))
        assert reopened.lookup(key) == _payload(2)
        reopened.close()

    def test_deterministic_layout_for_a_batch(self, tmp_path):
        keys = _keys(6)
        entries = [(k, _payload(i)) for i, k in enumerate(keys)]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        a = PackStore(str(a_dir))
        a.append_many(entries)
        a.close()
        b = PackStore(str(b_dir))
        b.append_many(reversed(entries))  # same set, reversed order
        b.close()
        name = segment_name(1)
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_segment_rolls_past_size_limit(self, tmp_path):
        store = PackStore(str(tmp_path), segment_bytes=256)
        for i, key in enumerate(_keys(10)):
            store.append_many([(key, _payload(i))])
        store.close()
        segments = [n for n in os.listdir(tmp_path)
                    if n.startswith("pack-") and n != INDEX_FILENAME]
        assert len(segments) > 1
        reopened = PackStore(str(tmp_path), segment_bytes=256)
        assert len(reopened) == 10
        reopened.close()

    def test_invalid_segment_bytes_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PackStore(str(tmp_path), segment_bytes=0)

    def test_default_segment_size_is_sane(self):
        assert DEFAULT_SEGMENT_BYTES >= 1 << 20


class TestCrashTolerance:
    def _populate(self, tmp_path, n=4):
        store = PackStore(str(tmp_path))
        store.append_many(
            (k, _payload(i)) for i, k in enumerate(_keys(n)))
        store.close()

    def test_truncated_segment_detected_at_load(self, tmp_path):
        self._populate(tmp_path)
        seg = tmp_path / segment_name(1)
        raw = seg.read_bytes()
        seg.write_bytes(raw[:len(raw) // 2])  # kill mid flush
        store = PackStore(str(tmp_path))
        assert store.truncated > 0
        # Undamaged prefix records still serve.
        served = sum(1 for k in _keys(4) if store.lookup(k) is not None)
        assert 0 < served < 4
        report = store.verify()
        assert report["truncated"] > 0
        assert report["corrupt"] == 0
        store.close()

    def test_torn_index_tail_dropped(self, tmp_path):
        self._populate(tmp_path)
        index = tmp_path / INDEX_FILENAME
        with open(index, "ab") as handle:
            handle.write(b'{"k": "abc", "s"')  # torn mid write
        store = PackStore(str(tmp_path))
        assert store.truncated == 1
        assert len(store) == 4  # healthy entries unaffected
        store.close()

    def test_overwritten_record_becomes_a_miss(self, tmp_path):
        self._populate(tmp_path, n=2)
        seg = tmp_path / segment_name(1)
        raw = seg.read_bytes()
        first_len = raw.index(b"\n") + 1
        seg.write_bytes(b"x" * first_len + raw[first_len:])
        store = PackStore(str(tmp_path))
        key0, key1 = _keys(2)
        assert store.lookup(key0) is None  # corrupt bytes never served
        assert store.truncated == 1
        assert key0 not in store  # dropped from the index
        assert store.lookup(key1) == _payload(1)
        store.close()

    def test_missing_segment_is_all_misses(self, tmp_path):
        self._populate(tmp_path)
        os.unlink(tmp_path / segment_name(1))
        store = PackStore(str(tmp_path))
        assert len(store) == 0
        assert store.truncated == 4
        store.close()

    def test_scan_stops_at_torn_tail(self, tmp_path):
        self._populate(tmp_path)
        seg = tmp_path / segment_name(1)
        raw = seg.read_bytes()
        seg.write_bytes(raw[:-3])  # tear the final record
        store = PackStore(str(tmp_path))
        recovered = dict(store.scan())
        assert len(recovered) == 3
        assert all(json.dumps(p) for p in recovered.values())
        store.close()


class TestVerify:
    def test_healthy_store_verifies_clean(self, tmp_path):
        store = PackStore(str(tmp_path))
        store.append_many(
            (k, _payload(i)) for i, k in enumerate(_keys(3)))
        report = store.verify()
        assert report == {"entries": 3, "ok": 3, "corrupt": 0,
                          "truncated": 0}
        store.close()

    def test_verify_reports_without_mutating(self, tmp_path):
        store = PackStore(str(tmp_path))
        store.append_many([("a" * 64, _payload(1))])
        store.close()
        seg = tmp_path / segment_name(1)
        raw = seg.read_bytes()
        seg.write_bytes(b"X" + raw[1:])  # same length, broken JSON
        reopened = PackStore(str(tmp_path))
        report = reopened.verify()
        assert report["corrupt"] == 1
        assert "a" * 64 in reopened  # verify itself drops nothing
        reopened.close()


def _append_from_process(directory, worker, barrier, batches, per_batch):
    """One stress appender: ``batches`` appends of ``per_batch`` records,
    all starting together on the barrier."""
    store = PackStore(directory, segment_bytes=4096)
    barrier.wait()
    for batch in range(batches):
        store.append_many(
            (_stress_key(worker, batch, i), _payload(batch * per_batch + i))
            for i in range(per_batch))
    store.close()


def _stress_key(worker, batch, i):
    return f"{worker:02x}{batch:04x}{i:02x}".ljust(64, "0")


class TestMultiProcessAppend:
    def test_concurrent_appenders_lose_nothing(self, tmp_path):
        """Four processes hammering one directory (small segments, so
        they also race to roll new ones): every record reads back and
        nothing is dropped as truncated."""
        workers, batches, per_batch = 4, 60, 5
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(workers)
        procs = [ctx.Process(target=_append_from_process,
                             args=(str(tmp_path), w, barrier, batches,
                                   per_batch))
                 for w in range(workers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive() and proc.exitcode == 0
        store = PackStore(str(tmp_path), segment_bytes=4096)
        assert store.truncated == 0
        for w in range(workers):
            for batch in range(batches):
                for i in range(per_batch):
                    assert store.lookup(_stress_key(w, batch, i)) \
                        == _payload(batch * per_batch + i)
        report = store.verify()
        assert report == {"entries": workers * batches * per_batch,
                          "ok": workers * batches * per_batch,
                          "corrupt": 0, "truncated": 0}
        store.close()
