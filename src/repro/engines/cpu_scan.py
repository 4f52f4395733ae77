"""CPU sequential scan — the index-free lower-bound baseline.

Not part of the paper's evaluation, but the natural sanity baseline any
index must beat: refine every temporally-plausible pair with no index at
all (a time-sorted scan bounded by the database's maximum segment extent,
so it's a *smart* scan rather than the full cross product).  Useful for

* validating that the indexes actually earn their complexity on a given
  dataset (see ``tune``-style experiments), and
* tiny databases, where building any index costs more than it saves.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.profiler import CpuSearchProfile
from ..obs.telemetry import current as current_telemetry
from .base import RangeBatch, SearchEngine, ThreadWork, refine
from .config import CpuScanConfig

__all__ = ["CpuScanEngine"]


class CpuScanEngine(SearchEngine):
    """Time-bounded sequential scan on the CPU."""

    name = "cpu_scan"
    config_type = CpuScanConfig

    def __init__(self, database: SegmentArray,
                 config: CpuScanConfig = CpuScanConfig()) -> None:
        if len(database) == 0:
            raise ValueError("database must not be empty")
        self.database = database.sorted_by_start_time()
        # A segment can only overlap queries within max_extent of its
        # start; precompute for the scan window.
        self._max_extent = float(
            (self.database.te - self.database.ts).max())

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, CpuSearchProfile]:
        with current_telemetry().span(
                "engine.search", engine=self.name,
                num_queries=len(queries)) as span:
            wall0 = time.perf_counter()
            db = self.database
            # Candidate rows for query k: entries with ts <= q.te and
            # ts >= q.ts - max_extent (a superset of temporal overlap).
            lo = np.searchsorted(db.ts, queries.ts - self._max_extent,
                                 side="left")
            hi = np.searchsorted(db.ts, queries.te, side="right") - 1
            lens = np.maximum(hi - lo + 1, 0)
            one_each = np.arange(len(queries) + 1, dtype=np.int64)
            solved = refine(
                queries, db, ThreadWork(RangeBatch(one_each[:-1], lo, lens,
                                                   one_each)), d,
                exclude_same_trajectory=exclude_same_trajectory)
            result = ResultSet(queries.seg_ids[solved.q_rows],
                               db.seg_ids[solved.e_rows], solved.t_lo,
                               solved.t_hi).deduplicated()
            profile = CpuSearchProfile(
                engine=self.name,
                num_queries=len(queries),
                node_visits=0,
                comparisons=int(lens.sum()),
                result_items=len(result),
                index_bytes=0,
                wall_seconds=time.perf_counter() - wall0,
            )
            span.set_attributes(comparisons=profile.comparisons,
                                result_items=profile.result_items)
            return result, profile
