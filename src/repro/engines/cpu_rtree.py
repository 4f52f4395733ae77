"""CPU-RTree — the multithreaded CPU baseline (paper §V-B).

An in-memory R-tree over 4-D MBBs covering ``r`` consecutive segments per
trajectory, searched by one thread per query segment (OpenMP in the paper,
6 threads at ~80 % parallel efficiency on the Xeon W3690).  The search is
the classic two-phase filter-and-refine: traverse the tree with the
query's MBB expanded by ``d`` (spatial axes only), then refine every
segment of every overlapping leaf MBB.

The key response-time driver the paper highlights: as ``d`` grows, the
expanded query boxes overlap more of the tree — candidates grow roughly
with the swept volume — so CPU-RTree's response time *rises with d*, while
GPUTemporal's candidate count does not.  That asymmetry creates the
crossover the paper's Figures 5 and 6 report.

``r`` trades index search time against refinement volume; the paper sweeps
it and reports only the best value per experiment
(:func:`tune_segments_per_mbb` reproduces that protocol).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.costmodel import price
from ..gpu.profiler import CpuSearchProfile
from ..indexes.rtree import RTree
from ..obs.telemetry import current as current_telemetry
from .base import (RangeBatch, SearchEngine, index_build_phase,
                   refine_ranges)
from .config import CpuRTreeConfig

__all__ = ["CpuRTreeEngine", "tune_segments_per_mbb"]


class CpuRTreeEngine(SearchEngine):
    """The CPU-only baseline engine."""

    name = "cpu_rtree"
    config_type = CpuRTreeConfig

    def __init__(self, database: SegmentArray, *,
                 segments_per_mbb: int = 4, fanout: int = 16,
                 build_method: str = "guttman",
                 temporal_axis: bool = True) -> None:
        if len(database) == 0:
            raise ValueError("database must not be empty")
        with index_build_phase(self.name):
            self.index = RTree.build(database,
                                     segments_per_mbb=segments_per_mbb,
                                     fanout=fanout, method=build_method,
                                     temporal_axis=temporal_axis)
            self.database = self.index.segments

    def search(self, queries: SegmentArray, d: float, *,
               exclude_same_trajectory: bool = False
               ) -> tuple[ResultSet, CpuSearchProfile]:
        with current_telemetry().span(
                "engine.search", engine=self.name,
                num_queries=len(queries)) as span:
            result, profile = self._search_impl(
                queries, d,
                exclude_same_trajectory=exclude_same_trajectory)
            span.set_attributes(node_visits=profile.node_visits,
                                comparisons=profile.comparisons,
                                result_items=profile.result_items)
            return result, profile

    def _search_impl(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, CpuSearchProfile]:
        wall0 = time.perf_counter()
        cand_rows, cand_start, node_visits = \
            self.index.query_candidates_flat(queries, d)
        lens = np.diff(cand_start)
        batch = RangeBatch(q_rows=np.arange(len(queries), dtype=np.int64),
                           candidate_rows=cand_rows, cand_start=cand_start)
        hits, pq, pe, plo, phi = refine_ranges(
            queries, self.database, batch, d,
            exclude_same_trajectory=exclude_same_trajectory)

        result = ResultSet(queries.seg_ids[pq], self.database.seg_ids[pe],
                           plo, phi).deduplicated()
        profile = CpuSearchProfile(
            engine=self.name,
            num_queries=len(queries),
            node_visits=int(node_visits.sum()),
            comparisons=int(lens.sum()),
            result_items=len(result),
            index_bytes=self.index.nbytes(),
            wall_seconds=time.perf_counter() - wall0,
        )
        return result, profile


def tune_segments_per_mbb(
    database: SegmentArray,
    queries: SegmentArray,
    d: float,
    *,
    r_values: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> tuple[int, dict[int, float]]:
    """Reproduce the paper's protocol of sweeping ``r`` and keeping the
    best: returns ``(best_r, {r: modeled_seconds})``.

    The sweep is honest about both sides of the trade-off: small ``r``
    means deep traversals (node visits dominate), large ``r`` means fat
    leaves (refinement dominates).
    """
    times: dict[int, float] = {}
    for r in r_values:
        engine = CpuRTreeEngine(database, segments_per_mbb=r)
        _, profile = engine.search(queries, d)
        times[r] = price(profile).total
    best = min(times, key=times.__getitem__)
    return best, times
