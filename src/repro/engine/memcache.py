"""In-process hot tier for the simulation result cache.

A warm disk hit still costs an ``open`` + ``json.load`` per key; for a
long-lived process (the serving scheduler owns one engine for its whole
lifetime) that disk round-trip is pure overhead the second time the
same key is asked for.  :class:`MemoryCache` keeps recently-touched
cache *payloads* — the exact JSON-shaped dicts the disk tiers store —
in memory behind a byte budget, so a hot hit is a dict lookup plus the
same payload→outcome rehydration a disk hit performs.  Because both
tiers rehydrate through the identical converters, a hot hit is
byte-for-byte the outcome a disk hit would have produced.

The tier is one LRU ``OrderedDict`` with no lock of its own:
:class:`~repro.engine.cache.SimulationCache` serializes it under the
same lock as the pack tier, taken once per batched call.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import ConfigurationError


def payload_nbytes(payload: dict) -> int:
    """Byte-budget charge for one payload: its compact-JSON length.

    The same serialization the pack tier writes, so an entry costs the
    hot tier what it costs the cold tier — plus nothing for Python
    object overhead, which keeps the accounting deterministic across
    interpreter versions.
    """
    return len(json.dumps(payload, separators=(",", ":")))


class MemoryCache:
    """Byte-budgeted LRU of cache payloads (not thread-safe by itself).

    Attributes:
        max_bytes: The budget; least-recently-used entries are evicted
            past it.  An entry larger than the whole budget is never
            admitted (it would evict everything for one key).
        current_bytes: Bytes currently held.
        evictions: Entries evicted over the cache's lifetime.
    """

    def __init__(self, max_bytes: int):
        """Validate the budget."""
        if max_bytes <= 0:
            raise ConfigurationError(
                f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.evictions = 0
        #: key -> (payload, nbytes); insertion order is recency order.
        self._entries: "OrderedDict[str, Tuple[dict, int]]" = OrderedDict()

    def get_many(self, keys: Sequence[str]) -> Dict[str, dict]:
        """The present keys' payloads, each refreshed as most recent in
        the order of ``keys`` (absent keys fall through to disk)."""
        found: Dict[str, dict] = {}
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                found[key] = entry[0]
        return found

    def put_many(self, items: Iterable[Tuple[str, dict, Optional[int]]],
                 ) -> int:
        """Insert (or refresh) ``(key, payload, nbytes-or-None)`` entries
        in order; returns how many entries the budget evicted.

        ``nbytes`` lets callers that already serialized the payload (the
        pack writer) skip re-encoding it for the size charge.  An
        oversized entry still drops the key's older payload, so the
        cold tiers answer for it.
        """
        evicted = 0
        for key, payload, nbytes in items:
            if nbytes is None:
                nbytes = payload_nbytes(payload)
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            if nbytes > self.max_bytes:
                continue
            self._entries[key] = (payload, nbytes)
            self.current_bytes += nbytes
            while self.current_bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.current_bytes -= dropped
                evicted += 1
        self.evictions += evicted
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry (budget and eviction counter persist)."""
        self._entries.clear()
        self.current_bytes = 0

    def info(self) -> dict:
        """JSON-serializable snapshot (manifests, ``repro cache stats``)."""
        return {
            "max_bytes": self.max_bytes,
            "entries": len(self),
            "bytes": self.current_bytes,
            "evictions": self.evictions,
        }
