"""GPUSpatioTemporal — bins + spatial subbins engine (paper §IV-C, Alg. 3).

Identical host workflow to GPUTemporal (sort ``Q``, compute a schedule,
ship ``Q`` + ``S``), but the schedule points into one of the ``X``/``Y``/
``Z`` subbin id arrays when the query overlaps a single subbin index in
some dimension — giving spatial selectivity for the price of **one extra
indirection** (the kernel reads the entry row id from the subbin array,
then the segment from ``D``).  Queries for which no dimension qualifies
default to the temporal scheme within the same kernel (line 15 of
Algorithm 3); the schedule is pre-sorted by lookup-array selector so warps
see neighbours taking the same branch.

Work accounting: indirect threads charge one *gather* unit per candidate
(the extra id load) on top of the comparison; defaulted threads charge
comparisons only — which is how the cost model exposes the paper's
measured ~12 % indirection overhead (§V-C).
"""

from __future__ import annotations

import numpy as np

from ..core.ranges import expand_ranges
from ..core.types import SegmentArray
from ..indexes.spatiotemporal import SpatioTemporalIndex
from .base import (GpuEngineBase, HostPlan, RangeBatch, ThreadWork,
                   index_build_phase)
from .config import GpuSpatioTemporalConfig

__all__ = ["GpuSpatioTemporalEngine"]


class GpuSpatioTemporalEngine(GpuEngineBase):
    """The GPUSpatioTemporal search engine."""

    name = "gpu_spatiotemporal"
    config_type = GpuSpatioTemporalConfig

    def __init__(self, database: SegmentArray, *, num_bins: int = 1000,
                 num_subbins: int = 4, strict_subbins: bool = True,
                 gpu=None, result_buffer_items: int = 2_000_000,
                 retry=None) -> None:
        super().__init__(database, gpu=gpu,
                         result_buffer_items=result_buffer_items,
                         retry=retry)
        with index_build_phase(self.name):
            self.index = SpatioTemporalIndex.build(
                database, num_bins, num_subbins, strict=strict_subbins)
            self.database = self.index.segments
            self._place_database(self.database, "st_db")
            mem = self.gpu.memory
            for name, arr, offs in zip("XYZ", self.index.dim_arrays,
                                       self.index.dim_offsets):
                mem.put(f"subbin_{name}", arr.astype(np.int32))
                mem.put(f"subbin_{name}_offsets", offs)
            mem.put("st_bins", np.stack(
                [self.index.temporal.bin_start,
                 self.index.temporal.bin_end]))

    def _host_plan(self, queries: SegmentArray, d: float,
                   exclude_same_trajectory: bool) -> HostPlan:
        # The schedule is d-dependent (spatial selectivity): nothing but
        # the sort could be kept between searches.
        q_sorted = queries.sorted_by_start_time()
        schedule = self.index.make_schedule(q_sorted, d)
        # Thread order = schedule order (sorted by array selector).
        return HostPlan(q_sorted, len(schedule),
                        schedule_bytes=schedule.nbytes,
                        defaulted_queries=schedule.num_defaulted,
                        schedule=schedule)

    def _thread_work(self, plan: HostPlan, live: np.ndarray,
                     d: float) -> ThreadWork:
        schedule = plan.schedule
        sel = schedule.array_sel[live]
        lo = schedule.ent_min[live]
        lens = np.maximum(schedule.ent_max[live] - lo + 1, 0)
        batch = RangeBatch.from_lengths(
            schedule.q_rows[live], np.empty(int(lens.sum()), dtype=np.int64),
            lens)
        # Indirect threads gather entry rows through X/Y/Z; defaulted
        # threads (-1) take the range itself.
        for dim in range(-1, 3):
            pick = np.flatnonzero(sel == dim)
            rows = expand_ranges(lo[pick], lens[pick])
            if dim >= 0:
                rows = self.index.dim_arrays[dim][rows]
            batch.candidate_rows[expand_ranges(
                batch.cand_start[pick], lens[pick])] = rows
        # The extra indirection of subbin threads.
        return ThreadWork(batch, gather_work=np.where(sel >= 0, lens, 0))
