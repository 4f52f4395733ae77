"""Keyed engine/index cache with LRU eviction against device memory.

Building an index is the paper's offline phase (§V-B): expensive, done
once, excluded from response time.  A service that rebuilt the index for
every batch would throw that away, so the service keeps built engines in
a cache keyed by *method × canonical parameters*: every entry indexes
the service's current base, and a compaction that changes the base
empties the cache.

Eviction is LRU against a byte budget sized to the device pool's
aggregate global memory: each cached GPU engine holds real allocations on
its private :class:`~repro.gpu.device.VirtualGPU`, so the budget models
"how many indexes fit resident on the cards".  An entry's bytes, and a
lane's load, are read from those engines' ledgers, never copied, so a
result buffer grown by a retry is counted at once.  CPU engines live in
host memory, which is not the scarce resource here; they are cached
with a zero device footprint.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..engines.base import SearchEngine
from ..engines.registry import get_engine
from ..gpu.device import VirtualGPU

__all__ = ["CacheEntry", "CacheStats", "EngineCache",
           "canonical_params"]


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


def _cache_key(method: str, params: dict):
    """``(cache key, validated config)`` of engine ``method`` built
    with ``params`` over the current base.  The key holds the
    canonical *validated* parameters, so spellings of one configuration
    share an entry."""
    cfg = get_engine(method).config_type.from_params(**params)
    return (method, canonical_params(cfg.to_dict())), cfg


@dataclass
class CacheEntry:
    """One cached engine: the built index plus placement bookkeeping."""

    key: tuple
    engine: SearchEngine
    #: the engine's private device (None for CPU engines).
    gpu: VirtualGPU | None
    #: pool lane the engine is homed on (-1 = host lane).
    lane: int
    #: wall seconds the one-time build took (reported, not charged to
    #: response time — the offline phase of §V-B).
    build_wall_s: float
    #: requests this entry has served (hit, or the miss that built
    #: it).  A compaction re-warms only entries with a nonzero count:
    #: one a prewarm built and nobody asked for since is dropped, not
    #: rebuilt at every compaction.
    served: int = 0

    @property
    def nbytes(self) -> int:
        """Device bytes the entry holds resident: its engine's ledger
        (0 for CPU engines)."""
        return 0 if self.gpu is None else self.gpu.memory.allocated_bytes


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, exposed through service stats.

    ``hits`` and ``misses`` count requests' lookups, never a prewarm.
    ``failed_builds`` counts failed builds (a miss's or a prewarm's) —
    those never become cache entries, so a failed build is visible in
    the stats without ever being mistaken for a usable cached engine.
    ``invalidations`` counts entries dropped because their device lane
    was quarantined or a compaction replaced their base, as opposed to
    LRU ``evictions``.
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

    def lane_bytes(self, lane: int) -> int:
        """Device bytes the entries homed on ``lane`` hold resident."""
        return sum(e.nbytes for e in self._entries.values()
                   if e.lane == lane)

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

    def invalidate_where(self, predicate: Callable[[CacheEntry], bool]
                         ) -> int:
        """Drop every entry matching ``predicate`` (quarantined lane,
        compacted-away base, ...), counting them as invalidations, not
        LRU evictions.  ``on_evict`` runs for each dropped entry.
        Returns the number dropped."""
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
