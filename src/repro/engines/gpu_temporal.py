"""GPUTemporal — temporal indexing search engine (paper §IV-B, Alg. 2).

Workflow per search:

1. Host sorts ``Q`` by non-decreasing ``t_start`` (``O(|Q| log |Q|)``).
2. Host computes the *schedule* ``S``: for each query, the contiguous
   candidate row range ``E_k`` from the temporal-bin index (near-constant
   time per query thanks to the sorted order; §IV-B.2 notes computing this
   on the GPU yielded no gain).
3. ``Q`` and ``S`` are shipped to the device; the kernel assigns one query
   per thread, which refines every candidate in ``D[E_k]`` and atomically
   appends results.
4. If the device result buffer fills, unpublished queries are re-processed
   by another invocation after the host drains the buffer — the paper's
   incremental processing of large query sets, which is
   ``GpuEngineBase._search_once``; this file is steps 1-2 and each
   thread's candidate list.

The candidate count of a query does not depend on ``d`` — the scheme's
signature behaviour: response time is flat in the query distance, except
for the result-volume effects (more atomic appends, more d2h traffic, more
invocations) at large ``d``.
"""

from __future__ import annotations

import numpy as np

from ..core.ranges import expand_ranges
from ..core.types import SegmentArray
from ..indexes.temporal import TemporalIndex
from .base import (GpuEngineBase, HostPlan, RangeBatch, RefineCache,
                   ThreadWork, index_build_phase)
from .config import GpuTemporalConfig

__all__ = ["GpuTemporalEngine"]


class GpuTemporalEngine(GpuEngineBase):
    """The GPUTemporal search engine."""

    name = "gpu_temporal"
    config_type = GpuTemporalConfig

    def __init__(self, database: SegmentArray, *, num_bins: int = 1000,
                 gpu=None, result_buffer_items: int = 2_000_000,
                 retry=None) -> None:
        super().__init__(database, gpu=gpu,
                         result_buffer_items=result_buffer_items,
                         retry=retry)
        # Offline: build the index and place D (sorted) + bins on device.
        with index_build_phase(self.name):
            self.index = TemporalIndex.build(database, num_bins)
            self.database = self.index.segments
            self._place_database(self.database, "temporal_db")
            self.gpu.memory.put("temporal_bins", np.stack(
                [self.index.bin_start, self.index.bin_end,
                 self.index.bin_first.astype(np.float64),
                 self.index.bin_last.astype(np.float64)]))
        self._refine_cache = RefineCache()

    def _host_plan(self, queries: SegmentArray, d: float,
                   exclude_same_trajectory: bool) -> HostPlan:
        # The schedule is d-invariant (§IV-B): the memoised full
        # temporal-range batch *is* S, two row ids per query.
        memo = self._refine_cache.lookup(queries, self.index)
        return HostPlan(memo.q_sorted, len(memo.q_sorted),
                        schedule_bytes=len(memo.q_sorted) * 16,
                        schedule=memo)

    def _thread_work(self, plan: HostPlan, live: np.ndarray,
                     d: float) -> ThreadWork:
        full = plan.schedule.batch
        if live.size == plan.num_threads:
            # Only the first invocation runs every thread (the first
            # live thread always publishes or ends the attempt): the
            # memoised schedule, as is.
            return ThreadWork(full)
        lens = full.lengths()[live]
        return ThreadWork(RangeBatch.from_lengths(
            live, expand_ranges(plan.schedule.row_lo[live], lens), lens))
