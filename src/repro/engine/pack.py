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
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

#: Segment file name pattern: ``pack-<6-digit-seq>.jsonl``.
SEGMENT_PATTERN = re.compile(r"^pack-(\d{6})\.jsonl$")

#: The append-only offset index living beside the segments.
INDEX_FILENAME = "pack-index.jsonl"

#: The advisory lock file serializing appends across processes.
LOCK_FILENAME = "pack.lock"

#: Roll to a fresh segment once the current one crosses this size, so
#: verification reads bounded pieces.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


def segment_name(seq: int) -> str:
    """File name of segment number ``seq`` (1-based)."""
    return f"pack-{seq:06d}.jsonl"


@dataclass(frozen=True)
class PackLocation:
    """Where one record lives: segment file, byte offset, byte length."""

    segment: str
    offset: int
    length: int


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
            with open(index_path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except OSError:
            lines = []
        for line in lines:
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["k"]
                location = PackLocation(segment=entry["s"],
                                        offset=int(entry["o"]),
                                        length=int(entry["l"]))
            except (ValueError, KeyError, TypeError):
                # A torn index line (killed mid append).  Only the tail
                # can tear, but counting every bad line keeps the load
                # robust to hand-edited files too.
                self.truncated += 1
                continue
            size = sizes.get(location.segment)
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
        """The payload stored for ``key``, or ``None``.

        A record that fails to read back (disappeared segment, torn
        bytes despite the load-time size check, malformed JSON) is
        dropped from the in-memory index and counted in ``truncated``;
        the caller treats it as a miss.
        """
        location = self.index.get(key)
        if location is None:
            return None
        record = self._read_record(location)
        if record is None or record.get("k") != key:
            del self.index[key]
            self.truncated += 1
            return None
        payload = record.get("p")
        return payload if isinstance(payload, dict) else None

    def _read_record(self, location: PackLocation) -> Optional[dict]:
        try:
            handle = self._reader(location.segment)
            handle.seek(location.offset)
            raw = handle.read(location.length)
        except OSError:
            return None
        if len(raw) != location.length or not raw.endswith(b"\n"):
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

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
                written.append((key, PackLocation(segment=segment,
                                                  offset=offset,
                                                  length=len(line))))
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

    def verify(self) -> Dict[str, int]:
        """Re-read every indexed record; report (don't mutate) health.

        Returns counters: ``entries`` checked, ``ok``, ``corrupt``
        (indexed records that no longer read back cleanly), plus the
        ``truncated`` count accumulated since load.  ``repro cache
        verify`` renders this.
        """
        ok = 0
        corrupt = 0
        for key, location in list(self.index.items()):
            record = self._read_record(location)
            if record is None or record.get("k") != key \
                    or not isinstance(record.get("p"), dict):
                corrupt += 1
            else:
                ok += 1
        return {"entries": len(self.index), "ok": ok,
                "corrupt": corrupt, "truncated": self.truncated}

    def info(self) -> dict:
        """JSON-serializable snapshot (manifests, ``repro cache stats``)."""
        sizes = self._segment_sizes()
        return {
            "segments": len(sizes),
            "entries": len(self.index),
            "bytes": sum(sizes.values()),
            "truncated": self.truncated,
        }
