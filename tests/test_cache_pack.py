"""Pack tier: append-only segments, offset index, crash tolerance."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.engine import PackStore
from repro.engine.pack import (
    DEFAULT_SEGMENT_BYTES,
    INDEX_FILENAME,
    parse_records,
    segment_name,
)
from repro.errors import ConfigurationError

from .oracle import index_oracle


def _payload(i):
    return {"kind": "predicted", "total": float(i), "compute": 0.5,
            "encode_decode": 0.1, "comm_exposed": 0.4}


def _keys(n):
    return [f"{i:064x}" for i in range(n)]


class TestAppendAndLookup:
    def test_roundtrip(self, tmp_path):
        store = PackStore(str(tmp_path))
        keys = _keys(5)
        store.append_many((k, _payload(i)) for i, k in enumerate(keys))
        assert len(store) == 5
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

    def test_index_line_that_is_not_utf8_is_dropped(self, tmp_path):
        self._populate(tmp_path)
        with open(tmp_path / INDEX_FILENAME, "ab") as handle:
            handle.write(b'\xff\xfe{"k":"a"}\n')
        store = PackStore(str(tmp_path))
        assert store.truncated == 1
        assert store.lookup(_keys(4)[3]) == _payload(3)
        store.close()

    def test_missing_segment_is_all_misses(self, tmp_path):
        self._populate(tmp_path)
        os.unlink(tmp_path / segment_name(1))
        store = PackStore(str(tmp_path))
        assert len(store) == 0
        assert store.truncated == 4
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


# ----- one parse for an intact index or batch of records ---------------------

#: Groups of lines that are not one valid entry each: torn writes,
#: non-objects, wrong field types, lines that are valid only alone, a
#: line holding two entries, and triples whose first two lines would
#: read as ONE value if the lines were joined into an array carelessly
#: (through an array, an object and a string), while the third holds
#: two, so an element count alone would not notice.
BAD_LINES = [
    ("{ torn",), ("[]",), ('"x"',), ("1",), ("null",), ("",), (" ",),
    ("\r",), ("{}",), ("1,2",), ("é",), ('{"k":"a"}',),
    ('{"k":"a","s":"pack-000001.jsonl","o":"x","l":1}',),
    ('{"k":"a","s":"pack-000001.jsonl","o":1.5,"l":1}',),
    ('{"k":"a","s":"pack-000001.jsonl","o":Infinity,"l":1}',),
    ('{"k":"a","s":"pack-000001.jsonl","o":NaN,"l":1}',),
    ('{"k":["a"],"s":"pack-000001.jsonl","o":0,"l":1}',),
    ('{"k":"a","s":["pack-000001.jsonl"],"o":0,"l":1}',),
    ('{"k":"a","s":{"x":1},"o":0,"l":1}',),
    (' {"k":"b","s":"pack-000001.jsonl","o":0,"l":1}',),
    ('{"k":"c","s":"pack-000001.jsonl","o":0,"l":1}\r',),
    ('{"k":"é","s":"pack-000001.jsonl","o":0,"l":1}',),
    ('{"k":"d","s":"pack-000001.jsonl","o":0,"l":1} {"k":"e"}',),
    ('{"k":"o","s":"pack-000001.jsonl","o":0,"l":1},'
     '{"k":"p","s":"pack-000001.jsonl","o":0,"l":2}',),
    ('{"a":[{}', '{}]}',
     '{"k":"f","s":"pack-000001.jsonl","o":0,"l":1},'
     '{"k":"g","s":"pack-000001.jsonl","o":0,"l":2}'),
    ('{"k":"h"', '"s":"pack-000001.jsonl","o":0,"l":1}',
     '{"k":"i","s":"pack-000001.jsonl","o":0,"l":1},'
     '{"k":"j","s":"pack-000001.jsonl","o":0,"l":2}'),
    ('{"k":"l', '{","s":"pack-000001.jsonl","o":0,"l":1}',
     '{"k":"m","s":"pack-000001.jsonl","o":0,"l":1},'
     '{"k":"n","s":"pack-000001.jsonl","o":0,"l":2}'),
]


def _entry_line(key, segment, offset, length):
    return json.dumps({"k": key, "s": segment, "o": offset, "l": length},
                      separators=(",", ":"))


def _draw_index(rng, directory):
    """Segments of drawn sizes, and an index over them (and over one
    segment that does not exist) with duplicate keys, offsets past a
    segment's end, no bad lines, one group of them or many, and a tail
    that ends in a newline, ends without one, or is torn."""
    sizes = {segment_name(seq): int(rng.integers(0, 3000))
             for seq in (1, 2, 3)}
    for name, size in sizes.items():
        (directory / name).write_bytes(b"x" * size)
    segments = list(sizes) + [segment_name(9)]
    keys = [f"{i:064x}" for i in range(int(rng.integers(1, 12)))]
    bad_groups = int(rng.choice([0, 1, 8]))

    def entry():
        segment = segments[int(rng.integers(len(segments)))]
        size = sizes.get(segment, 1000)
        return _entry_line(keys[int(rng.integers(len(keys)))], segment,
                           int(rng.integers(0, size + 1)),
                           int(rng.integers(1, 300)))

    lines = [entry() for _ in range(int(rng.integers(0, 30)))]
    for _ in range(bad_groups):
        at = int(rng.integers(len(lines) + 1))
        lines[at:at] = BAD_LINES[int(rng.integers(len(BAD_LINES)))]
    text = "\n".join(lines)
    ending = rng.choice(["newline", "newline", "bare", "torn"])
    if lines and ending == "newline":
        text += "\n"
    elif ending == "torn":
        line = entry()
        text += ("\n" if lines else "") \
            + line[:int(rng.integers(1, len(line)))]
    (directory / INDEX_FILENAME).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("seed", range(6))
def test_index_load_matches_the_line_by_line_loader(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for draw in range(60):
        directory = tmp_path / str(draw)
        directory.mkdir()
        _draw_index(rng, directory)
        store = PackStore(str(directory))
        got = ({key: tuple(location)
                for key, location in store.index.items()}, store.truncated)
        store.close()
        assert got == index_oracle(str(directory)), \
            (directory / INDEX_FILENAME).read_text(encoding="utf-8")


def test_intact_index_is_parsed_with_one_json_loads(tmp_path, monkeypatch):
    store = PackStore(str(tmp_path))
    keys = _keys(50)
    store.append_many((k, _payload(i)) for i, k in enumerate(keys))
    store.close()
    parsed = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    reopened = PackStore(str(tmp_path))
    assert len(reopened) == 50 and reopened.truncated == 0
    assert len(parsed) == 1
    reopened.close()
    # A torn tail: every line is parsed on its own.
    with open(tmp_path / INDEX_FILENAME, "a", encoding="utf-8") as handle:
        handle.write('{"k": "abc", "s"')
    parsed.clear()
    torn = PackStore(str(tmp_path))
    assert len(torn) == 50 and torn.truncated == 1
    assert len(parsed) == 1 + 51
    torn.close()


def _record(key, payload):
    return json.dumps({"k": key, "p": payload},
                      separators=(",", ":")).encode("utf-8") + b"\n"


#: Groups of raw records that are not one JSON object each; the pairs
#: would read as ONE value if a record's parse could run on into the
#: next one.
BAD_RECORDS = [
    (None,), (b"x" * 20 + b"\n",), (b"[1]\n",), (b" " * 5 + b"\n",),
    (b"\x00{}\n",), (b'{"k":"a"} {"k":"b"}\n',),
    (b'{"k":"\xc3\xa9","p":{}}\n',), (b'{"k":"\xff"}\n',),
    (b' {"k":"a","p":{}}\n',), (b'{"k":"a","p":"\n',), (b"{}\n",),
    (b'{"k":"a","p":[\n', b"1]}\n"), (b'{"k":"a","p":{"x":\n', b"1}}\n"),
]


@pytest.mark.parametrize("seed", range(4))
def test_record_batches_parse_as_each_record_alone(seed):
    rng = np.random.default_rng(seed)

    def alone(raw):
        if raw is None:
            return None
        try:
            return json.loads(raw)
        except ValueError:
            return None

    for _ in range(200):
        raws = []
        for i in range(int(rng.integers(0, 12))):
            if rng.random() < 0.3:
                raws.extend(BAD_RECORDS[int(rng.integers(len(BAD_RECORDS)))])
            else:
                raws.append(_record(f"{i:064x}", _payload(i)))
        assert parse_records(raws) == [alone(raw) for raw in raws], raws
