"""Incremental trajectory ingestion with versioned snapshots.

The paper treats index construction as an offline phase over a frozen
database (§V-B): any change to ``D`` would force a full rebuild.  This
package makes the database *mutable without rebuilds*, log-structured
like an LSM tree:

* the **base** is an immutable :class:`~repro.core.types.SegmentArray`
  that the expensive indexes (any of the five engines) are built over;
* appends land in a small mutable **delta** that is searched by
  brute-force scan and unioned with the base engine's results;
* deletes are **tombstones** — trajectory ids filtered from both result
  streams at refinement time, never touching the index;
* a :class:`CompactionPolicy` bounds the delta: when it grows past a
  size or delta/base-ratio threshold, the delta (minus tombstones) is
  merged into a fresh base off the hot path, exactly like GTS-style
  GPU delta indexes merge in the background.

Reads are MVCC-style: :meth:`VersionedDatabase.snapshot` returns an
immutable :class:`Snapshot` pinning ``(base, delta, tombstones)`` under
an epoch counter, so an in-flight request keeps the view it started on
while writers append.  The serving layer
(:class:`~repro.service.QueryService`) keys its engine cache by the
*base* fingerprint, which appends do not change — a warm base index is
reused across ingests instead of invalidated.

Every change is one :class:`Mutation` value (append / delete / compact
plus exactly its arguments), which is what the service pipeline, the
WAL, the shard router's op log and campaign schedules pass around.
"""

from .mutation import AppliedKeys, IngestError, Mutation, as_segments
from .overlay import overlay_search
from .versioned import (CompactionPolicy, CompactionResult,
                        IngestReceipt, Snapshot, VersionedDatabase)

__all__ = [
    "AppliedKeys",
    "CompactionPolicy",
    "CompactionResult",
    "IngestError",
    "IngestReceipt",
    "Mutation",
    "Snapshot",
    "VersionedDatabase",
    "as_segments",
    "overlay_search",
]
