"""Keyed engine/index cache with LRU eviction against device memory.

Building an index is the paper's offline phase (§V-B): expensive, done
once, excluded from response time.  A service that rebuilt the index for
every batch would throw that away, so the service keeps built engines in
a cache keyed by *database fingerprint × method × canonical parameters*
— the exact inputs that determine an index's contents.

Eviction is LRU against a byte budget sized to the device pool's
aggregate global memory: each cached GPU engine holds real allocations on
its private :class:`~repro.gpu.device.VirtualGPU`, so the budget models
"how many indexes fit resident on the cards".  CPU engines live in host
memory, which is not the scarce resource here; they are cached with a
zero device footprint.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.types import SegmentArray
from ..engines.base import SearchEngine
from ..gpu.device import VirtualGPU

__all__ = ["CacheEntry", "CacheStats", "EngineCache",
           "canonical_params", "database_fingerprint"]


def database_fingerprint(database: SegmentArray) -> str:
    """Content hash of a database: equal arrays ⇒ equal fingerprint.

    ``SegmentArray`` is unhashable by design (it holds mutable-looking
    NumPy arrays); the service needs a stable dict key that survives
    round-trips through files, so it hashes the raw column bytes.
    """
    h = hashlib.sha1()
    for name in (*SegmentArray._FIELDS, "traj_ids", "seg_ids"):
        h.update(np.ascontiguousarray(getattr(database, name)).tobytes())
    return h.hexdigest()


def _hashable(value: Any) -> Any:
    if isinstance(value, np.generic):
        # np.int64(40) etc. hash/compare differently from the Python
        # scalar across dict round-trips; canonicalize to the builtin.
        value = value.item()
    if isinstance(value, dict):
        return tuple(sorted((str(k), _hashable(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, tuple(value.ravel().tolist()))
    return value


def canonical_params(params: dict) -> tuple:
    """Deterministic, hashable view of an engine-parameter dict.

    Logically-equal dicts must canonicalize identically or the engine
    cache silently rebuilds: nested dicts are flattened to sorted item
    tuples, NumPy scalars collapse to their Python equivalents, and
    lists/tuples/arrays become plain tuples.
    """
    return tuple(sorted((str(k), _hashable(v))
                        for k, v in params.items()))


@dataclass
class CacheEntry:
    """One cached engine: the built index plus placement bookkeeping."""

    key: tuple
    engine: SearchEngine
    #: the engine's private device (None for CPU engines).
    gpu: VirtualGPU | None
    #: pool lane the engine is homed on (-1 = host lane).
    lane: int
    #: device bytes the entry holds resident (0 for CPU engines).
    nbytes: int
    #: wall seconds the one-time build took (reported, not charged to
    #: response time — the offline phase of §V-B).
    build_wall_s: float
    #: requests this entry has served (hit, or the miss that built
    #: it).  A compaction re-warms only entries with a nonzero count:
    #: one a prewarm built and nobody asked for since is dropped, not
    #: rebuilt at every compaction.
    served: int = 0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, exposed through service stats.

    ``failed_builds`` counts misses whose engine build then failed —
    those never become cache entries, so a failed build is visible in
    the stats without ever being mistaken for a usable cached engine.
    ``invalidations`` counts entries dropped for health reasons (their
    device lane was quarantined), as opposed to LRU ``evictions``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    failed_builds: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "failed_builds": self.failed_builds,
                "invalidations": self.invalidations,
                "hit_ratio": self.hit_ratio}


class EngineCache:
    """LRU cache of built engines bounded by a device-byte budget."""

    def __init__(self, budget_bytes: int,
                 on_evict: Callable[[CacheEntry], None] | None = None
                 ) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._on_evict = on_evict
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def resident_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def get(self, key: tuple) -> CacheEntry | None:
        """Look up an entry, counting the hit/miss and refreshing LRU
        recency on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert an entry, evicting least-recently-used entries until
        the byte budget holds.  An entry larger than the whole budget is
        rejected (it could never be cached honestly)."""
        if entry.nbytes > self.budget_bytes:
            raise ValueError(
                f"engine needs {entry.nbytes} bytes, cache budget is "
                f"{self.budget_bytes}")
        while self._entries \
                and self.resident_bytes + entry.nbytes > self.budget_bytes:
            _, victim = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._on_evict is not None:
                self._on_evict(victim)
        self._entries[entry.key] = entry

    def record_failed_build(self) -> None:
        """Count a miss whose engine build failed (no entry created)."""
        self.stats.failed_builds += 1

    def invalidate_lane(self, lane: int) -> int:
        """Drop every entry homed on ``lane`` (the lane was quarantined;
        its device-resident indexes are gone).  ``on_evict`` runs for
        each dropped entry so pool residency stays balanced.  Returns
        the number of entries dropped."""
        return self.invalidate_where(lambda e: e.lane == lane)

    def invalidate_where(self, predicate: Callable[[CacheEntry], bool]
                         ) -> int:
        """Drop every entry matching ``predicate`` (quarantined lane,
        compacted-away base, ...), counting them as invalidations, not
        LRU evictions.  ``on_evict`` runs for each dropped entry so
        pool residency stays balanced.  Returns the number dropped."""
        victims = [key for key, e in self._entries.items()
                   if predicate(e)]
        for key in victims:
            entry = self._entries.pop(key)
            self.stats.invalidations += 1
            if self._on_evict is not None:
                self._on_evict(entry)
        return len(victims)

    def entries(self) -> list[CacheEntry]:
        """Snapshot in LRU order (oldest first), for reporting."""
        return list(self._entries.values())
