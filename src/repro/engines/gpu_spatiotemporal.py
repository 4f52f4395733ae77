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

from ..core.types import SegmentArray
from ..indexes.spatiotemporal import SpatioTemporalIndex
from .base import (BinSpans, GpuEngineBase, HostPlan, RangeBatch,
                   ThreadWork, index_build_phase)
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
        super().__init__(database, gpu=gpu, retry=retry)
        with index_build_phase(self.name):
            self.index = SpatioTemporalIndex.build(
                database, num_bins, num_subbins, strict=strict_subbins)
            self.database = self.index.segments
            self._place_database(self.database, "st_db",
                                 result_buffer_items)
            self._place_index()
            self._bin_grid = self.index.temporal.bin_grid()

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
        schedule, index = plan.schedule, self.index
        sel = schedule.array_sel[live]
        lo = schedule.ent_min[live]
        lens = np.maximum(schedule.ent_max[live] - lo + 1, 0)
        # Subbin threads read entry rows through X/Y/Z; defaulted
        # threads (-1) take the range itself.  Neither is expanded here:
        # the reject reads them through the bins, or expands them itself
        # when the grid does not pay.
        batch = RangeBatch.contiguous(schedule.q_rows[live], lo, lens,
                                      sel, index.dim_arrays)
        bins = BinSpans(self._bin_grid, schedule.bin_lo[live],
                        schedule.bin_hi[live], schedule.subbin[live],
                        (index.space_min, index.subbin_width,
                         index.num_subbins))
        # The extra indirection of subbin threads.
        return ThreadWork(batch, gather_work=np.where(sel >= 0, lens, 0),
                          bins=bins)
