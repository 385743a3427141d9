"""Content-addressed, tiered cache of simulation results.

Two tiers answer a lookup, cheapest first:

* **hot** — an in-process LRU of payloads
  (:class:`~repro.engine.memcache.MemoryCache`), enabled by a byte
  budget (``--cache-mem-mb``).  Write-through: every pack hit and every
  store lands here, so repeat traffic in a long-lived process (the
  serving scheduler) never touches the filesystem again.
* **pack** — append-only ``pack-*.jsonl`` segments plus an offset
  index (:class:`~repro.engine.pack.PackStore`).  Stores go here: one
  segment append and one fsync per engine batch.

Both tiers store the same JSON payload and every hit rehydrates
through the same converter, so a hot hit and a pack hit return
byte-identical outcomes.  Scalars are JSON numbers (``repr`` floats,
exact); every float array — a result's ``sync_times`` and
``iteration_times``, an advisor frontier's ``total_s`` — is one base64
string of its little-endian float64 bytes, so a record's arrays decode
in one call each and round-trip bit for bit (``-0.0``, subnormals and
infinities included).  That array format arrived with
``FINGERPRINT_VERSION`` 2, so no record of the older list format is
ever looked up under a current key.  An entry stores either a full
:class:`~repro.simulator.TimingResult`, the
:class:`~repro.errors.OutOfMemoryError` the simulation
deterministically raises, a closed-form
:class:`~repro.core.perf_model.PredictedTime`, or an advisor pricing
shard.

The pack is the one on-disk format.  Any other file in the directory
(a ``manifest.json`` sidecar, a per-key ``<sha256>.json`` file from an
older layout) is never read, served or deleted: its key is a miss, and
the engine re-executes it and stores it to the pack.  A torn pack
record drops its index entry (the segments are append-only, so there
is nothing to move) and the key reads as a miss.

Batched I/O (:meth:`SimulationCache.lookup_many` /
:meth:`SimulationCache.store_many`) serves a whole engine batch, both
tiers, in one pass under one lock acquisition — the engine and the
serving scheduler's drain loop call these instead of looping
single-key round-trips.
"""

from __future__ import annotations

import base64
import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.perf_model import PredictedTime
from ..errors import ConfigurationError, OutOfMemoryError
from ..simulator import TimingResult
from ..telemetry.metrics import get_registry
from .advisorjobs import AdvisorShardResult
from .memcache import MemoryCache, payload_nbytes
from .pack import READ_BATCH, PackStore

#: What a cache lookup can yield: a simulated result, the deterministic
#: OOM, a closed-form model prediction (``ModelEvalJob`` entries), or
#: an advisor shard's Pareto survivors (``AdvisorShardJob`` entries).
CachedOutcome = Union[TimingResult, OutOfMemoryError, PredictedTime,
                      AdvisorShardResult]


@dataclass
class CacheStats:
    """Hit/miss counters, exposed on the CLI after every sweep.

    ``hits`` is the all-tier total; ``memory_hits`` / ``pack_hits``
    attribute it to the hot tier and the pack tier.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_hits: int = 0
    pack_hits: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counter values."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          stores=self.stores,
                          memory_hits=self.memory_hits,
                          pack_hits=self.pack_hits,
                          evictions=self.evictions)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return CacheStats(hits=self.hits - earlier.hits,
                          misses=self.misses - earlier.misses,
                          stores=self.stores - earlier.stores,
                          memory_hits=self.memory_hits - earlier.memory_hits,
                          pack_hits=self.pack_hits - earlier.pack_hits,
                          evictions=self.evictions - earlier.evictions)

    def describe(self) -> str:
        """One-line human rendering; the per-tier split is appended
        once a tier served anything."""
        text = (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.0%} hit rate)")
        if self.memory_hits or self.pack_hits:
            text += f" [{self.memory_hits} mem / {self.pack_hits} pack]"
        return text


def floats_to_text(values: Sequence[float]) -> str:
    """Base64 of ``values`` as little-endian float64: exact, one call."""
    return base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def text_to_floats(text: str) -> Tuple[float, ...]:
    """Inverse of :func:`floats_to_text`; raises ``ValueError`` on bad
    base64 or a byte length that is not a multiple of 8, and
    ``TypeError`` on a value that is not a string."""
    raw = base64.b64decode(text, validate=True)
    return tuple(np.frombuffer(raw, dtype="<f8").tolist())


def result_to_payload(result: TimingResult) -> dict:
    """JSON-serializable form of a timing result cache entry."""
    return {
        "kind": "result",
        "model": result.model,
        "scheme": result.scheme,
        "world_size": result.world_size,
        "batch_size": result.batch_size,
        "sync_times": floats_to_text(result.sync_times),
        "iteration_times": floats_to_text(result.iteration_times),
    }


def payload_to_result(payload: dict) -> TimingResult:
    """Inverse of :func:`result_to_payload`; raises ``ValueError`` unless
    both samples are non-empty, of equal length and finite, as every
    simulated result's are (a record that is not reads as a miss)."""
    sync = base64.b64decode(payload["sync_times"], validate=True)
    iterations = base64.b64decode(payload["iteration_times"], validate=True)
    if not sync or len(sync) != len(iterations) or len(sync) % 8:
        raise ValueError("a cached result needs non-empty samples of "
                         "equal length")
    # Both samples in one array: one finiteness check, one conversion.
    both = np.frombuffer(sync + iterations, dtype="<f8")
    if not np.isfinite(both).all():
        raise ValueError("a cached result needs finite samples")
    values = both.tolist()
    half = len(values) // 2
    return TimingResult(
        model=payload["model"],
        scheme=payload["scheme"],
        world_size=payload["world_size"],
        batch_size=payload["batch_size"],
        sync_times=tuple(values[:half]),
        iteration_times=tuple(values[half:]),
    )


def oom_to_payload(error: OutOfMemoryError) -> dict:
    """JSON-serializable form of a deterministic-OOM cache entry."""
    return {
        "kind": "oom",
        "message": str(error),
        "required_bytes": error.required_bytes,
        "budget_bytes": error.budget_bytes,
    }


def payload_to_oom(payload: dict) -> OutOfMemoryError:
    """Inverse of :func:`oom_to_payload`."""
    return OutOfMemoryError(
        payload["message"],
        required_bytes=payload["required_bytes"],
        budget_bytes=payload["budget_bytes"],
    )


def predicted_to_payload(predicted: PredictedTime) -> dict:
    """JSON-serializable form of a model-prediction cache entry.

    Its four floats survive the JSON round trip exactly (``repr``
    rendering), so a warm-cache sweep reproduces its cold run byte for
    byte.
    """
    return {
        "kind": "predicted",
        "total": predicted.total,
        "compute": predicted.compute,
        "encode_decode": predicted.encode_decode,
        "comm_exposed": predicted.comm_exposed,
    }


def payload_to_predicted(payload: dict) -> PredictedTime:
    """Inverse of :func:`predicted_to_payload`."""
    return PredictedTime(
        total=payload["total"],
        compute=payload["compute"],
        encode_decode=payload["encode_decode"],
        comm_exposed=payload["comm_exposed"],
    )


def advisor_shard_to_payload(shard: AdvisorShardResult) -> dict:
    """JSON-serializable form of an advisor shard's Pareto survivors.

    ``total_s`` is stored by :func:`floats_to_text`, bit for bit, so a
    warm-cache ``repro advise`` reproduces its cold run byte for byte.
    The kind is ``advisor-frontier``: records of the retired
    ``advisor-shard`` kind (every total of the shard) do not rehydrate,
    so they read as misses and are re-priced.
    """
    return {
        "kind": "advisor-frontier",
        "priced": shard.priced,
        "offsets": list(shard.offsets),
        "total_s": floats_to_text(shard.total_s),
    }


def payload_to_advisor_shard(payload: dict) -> AdvisorShardResult:
    """Inverse of :func:`advisor_shard_to_payload`."""
    return AdvisorShardResult(priced=payload["priced"],
                              offsets=tuple(payload["offsets"]),
                              total_s=text_to_floats(payload["total_s"]))


def outcome_to_payload(outcome: CachedOutcome) -> dict:
    """The JSON payload for any cacheable outcome kind."""
    if isinstance(outcome, TimingResult):
        return result_to_payload(outcome)
    if isinstance(outcome, PredictedTime):
        return predicted_to_payload(outcome)
    if isinstance(outcome, AdvisorShardResult):
        return advisor_shard_to_payload(outcome)
    return oom_to_payload(outcome)


#: Each payload kind the cache serves, and its converter.  Records of
#: any other kind (a retired one, such as ``advisor-shard``) are
#: healthy records that read as misses.
_FROM_PAYLOAD = {
    "result": payload_to_result,
    "oom": payload_to_oom,
    "predicted": payload_to_predicted,
    "advisor-frontier": payload_to_advisor_shard,
}


def payload_to_outcome(payload: dict) -> CachedOutcome:
    """Rehydrate any tier's payload; raises ``KeyError`` on an unknown
    kind or missing fields, ``TypeError`` on a payload that is not a
    JSON object or a field of the wrong type, and ``ValueError`` on a
    float array that does not decode or a result whose samples could
    not have been simulated — every tier shares this one converter,
    which is what makes hot and pack hits byte-identical."""
    if not isinstance(payload, dict):
        raise TypeError(
            f"cache payload must be an object, not {type(payload).__name__}")
    return _FROM_PAYLOAD[payload.get("kind")](payload)


def _rehydrate(payload: dict) -> Optional[CachedOutcome]:
    """:func:`payload_to_outcome`, or ``None`` for a payload that does
    not rehydrate (the cache reads it as a miss)."""
    try:
        return payload_to_outcome(payload)
    except (KeyError, TypeError, ValueError):
        return None


def _sound(payload: dict) -> bool:
    """Whether ``repro cache verify`` passes a pack payload: one of a
    served kind must rehydrate; one of another kind is a plain miss."""
    return payload.get("kind") not in _FROM_PAYLOAD \
        or _rehydrate(payload) is not None


class SimulationCache:
    """Maps fingerprint keys to simulation outcomes across two tiers.

    Attributes:
        directory: The cache directory (pack segments and their index).
        memory: The hot tier, or ``None`` when no byte budget was
            given — in which case every lookup reads the pack tier.
        packs: The pack tier (always constructed; empty for a fresh
            directory).

    Thread-safe: both tiers are serialized by one internal lock,
    acquired **once** per batched call.
    """

    def __init__(self, directory: str, memory_mb: float = 0.0):
        """Open (creating if needed) the cache at ``directory``.

        ``memory_mb`` > 0 enables the write-through hot tier with that
        byte budget.
        """
        if not directory:
            raise ConfigurationError("cache directory must be non-empty")
        budget = self.memory_budget(memory_mb)
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {directory!r} as a cache directory: {exc}")
        self.memory: Optional[MemoryCache] = None
        if budget > 0:
            self.memory = MemoryCache(max_bytes=int(budget))
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self.packs = PackStore(directory)

    @staticmethod
    def memory_budget(memory_mb: float) -> float:
        """The hot tier's byte budget for ``memory_mb`` megabytes;
        :class:`ConfigurationError` unless it is finite and >= 0."""
        budget = memory_mb * 1024 * 1024
        if not 0 <= budget < math.inf:
            raise ConfigurationError(
                f"memory_mb must be finite and >= 0, got {memory_mb}")
        return budget

    # ----- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[CachedOutcome]:
        """Look up one key; a one-key :meth:`lookup_many`."""
        return self.lookup_many([key]).get(key)

    def lookup_many(self, keys: Sequence[str],
                    ) -> Dict[str, CachedOutcome]:
        """Resolve a whole batch of keys: hot tier, then pack tier.

        Both tiers are consulted under ONE acquisition of the cache
        lock for the entire batch — this is what the engine and the
        serving scheduler's drain loop call, so a 200-job batch costs
        one cache pass, not 200.  Returns ``{key: outcome}`` for the
        hits; every *occurrence* in ``keys`` counts one hit or one
        miss.  A pack record that does not rehydrate is a miss.
        """
        unique = list(dict.fromkeys(keys))
        outcomes: Dict[str, CachedOutcome] = {}
        tiers: Dict[str, str] = {}
        with self._lock:
            if self.memory is not None and unique:
                for key, payload in self.memory.get_many(unique).items():
                    # Hot-tier payloads were validated on the way in.
                    outcomes[key] = payload_to_outcome(payload)
                    tiers[key] = "memory"
            writeback: List[Tuple[str, dict]] = []
            stored = self.packs.lookup_many(
                [key for key in unique if key not in outcomes])
            for key, payload in stored.items():
                outcome = _rehydrate(payload)
                if outcome is None:
                    continue
                outcomes[key] = outcome
                tiers[key] = "pack"
                writeback.append((key, payload))
            if writeback:
                self._remember(writeback)
            # Per-occurrence accounting, aggregated into one counter
            # increment per tier, so the bookkeeping stays O(tiers).
            tier_counts = {"memory": 0, "pack": 0}
            misses = 0
            for key in keys:
                tier = tiers.get(key)
                if tier is None:
                    misses += 1
                else:
                    tier_counts[tier] += 1
            hits = len(keys) - misses
            self.stats.misses += misses
            self.stats.hits += hits
            self.stats.memory_hits += tier_counts["memory"]
            self.stats.pack_hits += tier_counts["pack"]
        registry = get_registry()
        if misses:
            registry.counter("cache_misses_total").inc(misses)
        if hits:
            registry.counter("cache_hits_total").inc(hits)
        for tier, count in tier_counts.items():
            if count:
                registry.counter("cache_tier_hits_total",
                                 tier=tier).inc(count)
        return outcomes

    # ----- stores ------------------------------------------------------------

    def store_many(self, entries: Sequence[Tuple[str, CachedOutcome]],
                   ) -> None:
        """Store a whole batch: ONE pack append, ONE fsync, one lock.

        Entries land in the pack tier and the hot tier.  Duplicate keys
        keep the last entry.
        """
        if not entries:
            return
        payloads = [(key, outcome_to_payload(outcome))
                    for key, outcome in entries]
        with self._lock:
            self.packs.append_many(payloads)
            self._remember(payloads)
            self.stats.stores += len(payloads)
        registry = get_registry()
        registry.counter("cache_stores_total").inc(len(payloads))
        registry.counter("cache_pack_appends_total").inc()

    def _remember(self, items: Sequence[Tuple[str, dict]]) -> None:
        """Write ``(key, payload)`` entries through to the hot tier, if
        there is one, each charged :func:`payload_nbytes` however it
        arrived, and count what its budget evicted (cache lock held)."""
        if self.memory is None:
            return
        evicted = self.memory.put_many(
            (key, payload, None) for key, payload in items)
        if evicted:
            self.stats.evictions += evicted
            get_registry().counter(
                "cache_memory_evictions_total").inc(evicted)

    # ----- warm start --------------------------------------------------------

    def preload(self, memory: bool = False) -> Dict[str, int]:
        """Warm the cache up front instead of on first traffic.

        The pack index is already resident (loaded at open); this
        touches every indexed record so a cold server's first burst
        reads pre-faulted pages, and with ``memory=True`` (and the hot
        tier enabled) loads payloads into the hot tier while they fit
        its budget, so preloading never evicts.  A record that does not
        read back or does not rehydrate is counted in ``skipped`` and
        stays out of the hot tier, so it reads as a miss exactly as it
        would without a preload.  Returns counters for the CLI to print.
        """
        memory = memory and self.memory is not None
        loaded = 0
        mem_loaded = 0
        skipped = 0
        with self._lock:
            keys = list(self.packs.index)
            for start in range(0, len(keys), READ_BATCH):
                batch = keys[start:start + READ_BATCH]
                stored = self.packs.lookup_many(batch)
                skipped += len(batch) - len(stored)
                for key, payload in stored.items():
                    if _rehydrate(payload) is None:
                        skipped += 1
                        continue
                    loaded += 1
                    if not memory:
                        continue
                    assert self.memory is not None
                    nbytes = payload_nbytes(payload)
                    if self.memory.current_bytes + nbytes \
                            <= self.memory.max_bytes:
                        self.memory.put_many([(key, payload, nbytes)])
                        mem_loaded += 1
        return {"entries": loaded, "memory_entries": mem_loaded,
                "skipped": skipped}

    # ----- maintenance (repro cache …) ---------------------------------------

    def verify(self) -> Dict[str, int]:
        """Re-read every pack record; mutate nothing.

        Returns the pack tier's :meth:`~repro.engine.pack.PackStore.
        verify` counters under ``pack_*`` names, plus the ``entries``
        and ``corrupt`` (corrupt or truncated) totals.  ``repro cache
        verify`` exits non-zero when anything is corrupt or truncated,
        which is how the chaos tests prove a killed pack flush is
        *detected*, not served.
        """
        with self._lock:
            report = self.packs.verify(_sound)
        return {
            "pack_entries": report["entries"],
            "pack_ok": report["ok"],
            "pack_corrupt": report["corrupt"],
            "pack_truncated": report["truncated"],
            "entries": report["entries"],
            "corrupt": report["corrupt"] + report["truncated"],
        }

    def info(self) -> dict:
        """JSON-serializable tier snapshot (manifests, ``cache stats``)."""
        with self._lock:
            return {
                "directory": self.directory,
                "pack": self.packs.info(),
                "memory": (self.memory.info()
                           if self.memory is not None else None),
                "stats": {
                    "hits": self.stats.hits,
                    "misses": self.stats.misses,
                    "stores": self.stats.stores,
                    "memory_hits": self.stats.memory_hits,
                    "pack_hits": self.stats.pack_hits,
                    "evictions": self.stats.evictions,
                },
            }

    def close(self) -> None:
        """Release pack file handles (safe to call more than once)."""
        with self._lock:
            self.packs.close()

    # ----- membership --------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Membership probe that does not disturb the stats."""
        with self._lock:
            return (self.memory is not None and key in self.memory) \
                or key in self.packs

    def __len__(self) -> int:
        """Distinct keys in the pack tier (the hot tier is a subset)."""
        with self._lock:
            return len(self.packs)
