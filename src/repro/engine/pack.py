"""Packed cold tier: append-only segments plus an offset index.

The cache's one on-disk format.  Storing a 200-job engine batch's
misses costs **one segment append and one fsync per batch**, not one
file per key:

* ``pack-000001.jsonl`` … — append-only *segments*.  Each line is a
  self-describing record ``{"k": <key>, "p": <payload>}`` in compact
  JSON, so a segment alone is enough to rebuild its index entries.
* ``pack-index.jsonl`` — the offset index, itself append-only: one
  line ``{"k", "s", "o", "l"}`` (key, segment, byte offset, byte
  length) per record, appended after the segment flush that made the
  record durable.

Crash safety is by construction: records are appended segment-first
(flush + fsync), index-second.  A process killed mid
flush can leave (a) a truncated segment tail the index never points at,
or (b) index lines pointing past the segment's end — both are detected
at load time (offsets validated against segment sizes, the torn last
index line dropped) and surface as plain misses plus a ``truncated``
count, never as corrupt outcomes.
``verify`` goes further and re-reads every record.

Processes sharing one directory (``repro serve --cache D`` next to
``repro experiment --cache D``) coordinate through an advisory
``fcntl.flock`` on ``pack.lock``: segment choice, the segment's real
end-of-file offset, the segment write + fsync and the index write +
fsync happen under it, so two appenders never pick the same new
segment, never record each other's bytes as their own offsets, and
never interleave index lines.  Each process still appends only to
segments it created, so a segment torn by a killed process is never
appended to.  A process's index is loaded once, at open: records
another process appends later are misses here until the next open.
"""

from __future__ import annotations

import contextlib
import fcntl
import io
import json
import os
import re
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ..errors import ConfigurationError

#: Segment file name pattern: ``pack-<6-digit-seq>.jsonl``.
SEGMENT_PATTERN = re.compile(r"^pack-(\d{6})\.jsonl$")

#: The append-only offset index living beside the segments.
INDEX_FILENAME = "pack-index.jsonl"

#: The advisory lock file serializing appends across processes.
LOCK_FILENAME = "pack.lock"

#: Records a whole-pack pass (verify, preload) reads and parses at a
#: time.
READ_BATCH = 4096

_DECODER = json.JSONDecoder()

#: Roll to a fresh segment once the current one crosses this size, so
#: verification reads bounded pieces.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


def segment_name(seq: int) -> str:
    """File name of segment number ``seq`` (1-based)."""
    return f"pack-{seq:06d}.jsonl"


class PackLocation(NamedTuple):
    """Where one record lives: segment file, byte offset, byte length."""

    segment: str
    offset: int
    length: int


def parse_records(raws: Sequence[Optional[bytes]]) -> List[Any]:
    """``json.loads`` of each raw record, ``None`` for a missing one or
    one that is not valid JSON, with one text decode for the batch.

    A record that starts with ``{"`` (bytes ``json.loads`` reads as
    UTF-8, as it reads every record this module writes) is parsed in
    place inside the batch's text and must end, whitespace aside, at
    its own last byte; any other record, and every record of a batch
    holding non-ASCII bytes, goes through ``json.loads`` alone.
    """
    present = [raw for raw in raws if raw is not None]
    try:
        text: Optional[str] = b"".join(present).decode("utf-8",
                                                       "surrogatepass")
    except UnicodeDecodeError:
        text = None
    if text is not None and len(text) != sum(map(len, present)):
        text = None  # multi-byte characters: offsets no longer line up
    values: List[Any] = []
    end = 0
    for raw in raws:
        if raw is None:
            values.append(None)
            continue
        start, end = end, end + len(raw)
        try:
            if text is not None and raw.startswith(b'{"'):
                value, stop = _DECODER.raw_decode(text, start)
                if stop > end or text[stop:end].strip(" \t\n\r"):
                    value = None
            else:
                value = json.loads(raw)
        except ValueError:
            value = None
        values.append(value)
    return values


def parse_index_lines(text: str) -> List[Any]:
    """One JSON value per non-empty line of ``text``; ``None`` for a
    line that is not valid JSON.

    An intact index is parsed in ONE ``json.loads``: its lines joined
    as the elements of an array.  That is exact when every line is
    one JSON value by itself, and the joined parse only stands when
    nothing else can have happened: the newlines are kept (a JSON
    string cannot span one), every line after the first starts with
    ``{`` (so none can continue an object left open on the line
    before), there is no ``[`` (nor an array left open), and the array
    has exactly one element per line (so no line held two values).
    Anything else — a torn tail above all — is parsed line by line.
    """
    body = text[:-1] if text.endswith("\n") else text
    if not body:
        return []
    newlines = body.count("\n")
    if "[" not in body and body.count("\n{") == newlines:
        try:
            values = json.loads("[" + body.replace("\n", ",\n") + "]")
        except ValueError:
            values = None
        if values is not None and len(values) == newlines + 1:
            return values
    values = []
    for line in text.split("\n"):
        if not line:
            continue
        try:
            values.append(json.loads(line))
        except ValueError:
            values.append(None)
    return values


class PackStore:
    """Reader/appender for the pack tier of one cache directory.

    Not thread-safe by itself — :class:`~repro.engine.cache.
    SimulationCache` serializes access under its own lock, which is the
    point: one lock acquisition covers a whole batch append.  Appends
    are safe across processes (see the module docstring).
    """

    def __init__(self, directory: str,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        """Open the pack tier at ``directory``, loading the index.

        Index lines that fail validation (torn tail, offsets past a
        segment's end, missing segment) are dropped and counted in
        ``truncated`` — the keys simply read as misses.
        """
        if segment_bytes <= 0:
            raise ConfigurationError(
                f"segment_bytes must be positive, got {segment_bytes}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        #: key -> newest location (later index lines win, so a
        #: re-stored key reads its latest payload).
        self.index: Dict[str, PackLocation] = {}
        #: Index entries dropped at load because they could not be
        #: trusted (torn line, truncated segment, missing segment).
        self.truncated = 0
        self._read_handles: Dict[str, io.BufferedReader] = {}
        self._append_handle: Optional[io.BufferedWriter] = None
        self._append_segment: Optional[str] = None
        self._load_index()

    # ----- index loading -----------------------------------------------------

    def _segment_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return sizes
        for name in names:
            if SEGMENT_PATTERN.match(name):
                try:
                    sizes[name] = os.path.getsize(
                        os.path.join(self.directory, name))
                except OSError:
                    continue
        return sizes

    def _load_index(self) -> None:
        index_path = os.path.join(self.directory, INDEX_FILENAME)
        sizes = self._segment_sizes()
        try:
            # A byte that is not UTF-8 spoils its line only.
            with open(index_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                text = handle.read()
        except OSError:
            text = ""
        for entry in parse_index_lines(text):
            try:
                key = entry["k"]
                location = PackLocation(entry["s"], int(entry["o"]),
                                        int(entry["l"]))
                size = sizes.get(location.segment)
                hash(key)
            except (ValueError, KeyError, TypeError, OverflowError):
                # A torn index line (killed mid append).  Only the tail
                # can tear, but counting every bad line keeps the load
                # robust to hand-edited files too.
                self.truncated += 1
                continue
            if size is None or location.offset + location.length > size:
                # The segment flush never completed (or the segment is
                # gone): the record is unreadable, so the key stays a
                # miss rather than serving torn bytes.
                self.truncated += 1
                continue
            self.index[key] = location

    # ----- reads -------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    def _reader(self, segment: str) -> io.BufferedReader:
        handle = self._read_handles.get(segment)
        if handle is None or handle.closed:
            handle = open(os.path.join(self.directory, segment), "rb")
            self._read_handles[segment] = handle
        return handle

    def lookup(self, key: str) -> Optional[dict]:
        """The payload stored for ``key``, or ``None``; a one-key
        :meth:`lookup_many`."""
        return self.lookup_many([key]).get(key)

    def lookup_many(self, keys: Iterable[str]) -> Dict[str, dict]:
        """The payloads stored for those of ``keys`` the index holds.

        A record that fails to read back (disappeared segment, torn
        bytes despite the load-time size check, malformed JSON) is
        dropped from the in-memory index and counted in ``truncated``;
        the caller treats it as a miss, as it does a record whose
        payload is not an object.
        """
        found = [key for key in dict.fromkeys(keys) if key in self.index]
        records = self._records([self.index[key] for key in found])
        payloads: Dict[str, dict] = {}
        for key, record in zip(found, records):
            if record is None or record.get("k") != key:
                del self.index[key]
                self.truncated += 1
                continue
            payload = record.get("p")
            if isinstance(payload, dict):
                payloads[key] = payload
        return payloads

    def _records(self, locations: Sequence[PackLocation],
                 ) -> List[Optional[dict]]:
        """The record at each location, or ``None`` where it does not
        read back as a JSON object (:func:`parse_records`)."""
        return [record if isinstance(record, dict) else None
                for record in parse_records(
                    [self._read_raw(location) for location in locations])]

    def _read_raw(self, location: PackLocation) -> Optional[bytes]:
        try:
            handle = self._reader(location.segment)
            handle.seek(location.offset)
            raw = handle.read(location.length)
        except OSError:
            return None
        if len(raw) != location.length or not raw.endswith(b"\n"):
            return None
        return raw

    # ----- appends -----------------------------------------------------------

    @contextlib.contextmanager
    def _append_lock(self) -> Iterator[None]:
        """Hold the directory's exclusive advisory append lock.

        The lock file is opened per append, so two stores on one
        directory exclude each other even inside a single process, and
        a forked child never inherits a held lock.
        """
        fd = os.open(os.path.join(self.directory, LOCK_FILENAME),
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the lock

    def _next_segment_seq(self) -> int:
        seqs = [int(m.group(1)) for m in
                (SEGMENT_PATTERN.match(n) for n in self._segment_sizes())
                if m]
        return max(seqs, default=0) + 1

    def _open_for_append(self) -> Tuple[io.BufferedWriter, str]:
        """The current append segment, rolling to a fresh one when the
        open segment crossed its size limit.  Call with the append lock
        held: a fresh segment's number comes from a directory listing,
        which only the lock keeps other processes from racing."""
        handle = self._append_handle
        if handle is not None and not handle.closed \
                and self._append_segment is not None:
            if os.fstat(handle.fileno()).st_size < self.segment_bytes:
                return handle, self._append_segment
            handle.close()
            self._append_handle = None
        name = segment_name(self._next_segment_seq())
        handle = open(os.path.join(self.directory, name), "ab")
        self._append_handle = handle
        self._append_segment = name
        return handle, name

    def append_many(self, entries: Iterable[Tuple[str, dict]]) -> None:
        """Append ``(key, payload)`` records as ONE segment flush.

        Every record is buffered into the open segment, then a single
        ``flush`` + ``fsync`` makes the whole batch durable, then the
        index lines are appended (and fsynced) — segment-first ordering
        is what makes a mid-flush kill detectable instead of corrupting.
        """
        # Sort by key so the same set of stores produces byte-identical
        # segments regardless of batch-internal ordering (family
        # grouping and task packing must not change what lands on
        # disk).
        entries = sorted(entries, key=lambda item: item[0])
        if not entries:
            return
        with self._append_lock():
            handle, segment = self._open_for_append()
            # The real end of file, not this handle's idea of it.
            offset = os.fstat(handle.fileno()).st_size
            written: List[Tuple[str, PackLocation]] = []
            for key, payload in entries:
                line = json.dumps({"k": key, "p": payload},
                                  separators=(",", ":")).encode("utf-8") \
                    + b"\n"
                handle.write(line)
                written.append((key, PackLocation(segment, offset,
                                                  len(line))))
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
            index_path = os.path.join(self.directory, INDEX_FILENAME)
            with open(index_path, "ab") as index_handle:
                for key, location in written:
                    index_handle.write(json.dumps(
                        {"k": key, "s": location.segment,
                         "o": location.offset, "l": location.length},
                        separators=(",", ":")).encode("utf-8") + b"\n")
                index_handle.flush()
                os.fsync(index_handle.fileno())
        self.index.update(written)

    def close(self) -> None:
        """Close every open segment handle (reads and the appender)."""
        for handle in self._read_handles.values():
            if not handle.closed:
                handle.close()
        self._read_handles.clear()
        if self._append_handle is not None \
                and not self._append_handle.closed:
            self._append_handle.close()
        self._append_handle = None

    # ----- maintenance -------------------------------------------------------

    def verify(self, sound: Optional[Callable[[dict], bool]] = None,
               ) -> Dict[str, int]:
        """Re-read every indexed record; report (don't mutate) health.

        Returns counters: ``entries`` checked, ``ok``, ``corrupt``
        (indexed records that no longer read back cleanly, or whose
        payload ``sound`` rejects), plus the ``truncated`` count
        accumulated since load.  ``repro cache verify`` renders this.
        """
        keys = list(self.index)
        ok = 0
        for start in range(0, len(keys), READ_BATCH):
            batch = keys[start:start + READ_BATCH]
            records = self._records([self.index[key] for key in batch])
            for key, record in zip(batch, records):
                payload = (record.get("p")
                           if record is not None and record.get("k") == key
                           else None)
                if isinstance(payload, dict) \
                        and (sound is None or sound(payload)):
                    ok += 1
        return {"entries": len(keys), "ok": ok,
                "corrupt": len(keys) - ok, "truncated": self.truncated}

    def info(self) -> dict:
        """JSON-serializable snapshot (manifests, ``repro cache stats``)."""
        sizes = self._segment_sizes()
        return {
            "segments": len(sizes),
            "entries": len(self.index),
            "bytes": sum(sizes.values()),
            "truncated": self.truncated,
        }
