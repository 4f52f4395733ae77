"""Delta-overlay search: base-engine results ∪ brute-force delta scan.

A query against a snapshot runs in three refinement-time steps, none of
which touch the base index:

1. the base engine answers over the (immutable, indexed) base;
2. tombstoned trajectories are filtered out of those results;
3. the live delta is scanned brute-force (a
   :class:`~repro.engines.cpu_scan.CpuScanEngine` over the delta rows —
   the delta is small by policy, so the scan is bounded) and the two
   result streams are unioned.

The scan cost is real and charged: the delta profile is priced on the
paper's host CPU (:func:`repro.gpu.costmodel.price`) and added to the
base outcome's modeled breakdown, so the latency gap between a dirty
snapshot and a freshly-compacted one is visible in every response —
that gap is exactly what the compaction policy bounds (see
``benchmarks/test_ingest_latency.py``).
"""

from __future__ import annotations

from ..core.result import ResultSet
from ..core.search import SearchOutcome
from ..core.types import SegmentArray
from ..engines.cpu_scan import CpuScanEngine
from ..gpu.costmodel import price
from ..gpu.profiler import CpuSearchProfile
from .versioned import Snapshot

__all__ = ["delta_engine_for", "overlay_search"]


def delta_engine_for(snapshot: Snapshot) -> CpuScanEngine | None:
    """The snapshot's brute-force delta engine (None when the live
    delta is empty).  Cached on the snapshot: one sort pays for every
    query pinned to it."""
    live = snapshot.live_delta()
    if len(live) == 0:
        return None
    engine = getattr(snapshot, "_overlay_engine", None)
    if engine is None:
        engine = CpuScanEngine(live)
        snapshot._overlay_engine = engine
    return engine


def overlay_search(outcome: SearchOutcome, snapshot: Snapshot,
                   queries: SegmentArray, d: float, *,
                   exclude_same_trajectory: bool = False
                   ) -> tuple[SearchOutcome, CpuSearchProfile | None]:
    """Lift a base-only outcome to the full snapshot.

    Returns the corrected outcome plus the delta-scan profile (None
    when the snapshot was clean and the outcome passed through
    untouched).  The outcome's modeled breakdown gains the scan's
    host-side cost; its engine profile stays the base engine's — the
    scan is reported separately so dashboards can tell index work from
    overlay work.
    """
    if snapshot.clean:
        return outcome, None
    results = snapshot.filter_tombstoned(outcome.results)
    modeled = outcome.modeled
    delta_profile: CpuSearchProfile | None = None
    engine = delta_engine_for(snapshot)
    if engine is not None:
        delta_results, delta_profile = engine.search(
            queries, d,
            exclude_same_trajectory=exclude_same_trajectory)
        # Deletes issued after the append can hide delta rows too —
        # live_delta() already dropped them, so no second filter here.
        results = ResultSet.from_parts(
            [results, delta_results]).deduplicated()
        modeled = modeled + price(delta_profile)
    return (SearchOutcome(results=results, profile=outcome.profile,
                          modeled=modeled),
            delta_profile)
