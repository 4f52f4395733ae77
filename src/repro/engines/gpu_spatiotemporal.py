"""GPUSpatioTemporal — bins + spatial subbins engine (paper §IV-C, Alg. 3).

The same host workflow as GPUTemporal — ``GpuEngineBase``'s default
hooks: sort ``Q``, compute a schedule, ship ``Q`` + ``S`` — over
GPUTemporal's own schedule, except that a query overlapping a single
subbin index in some dimension gets a range of that dimension's
``X``/``Y``/``Z`` subbin id array instead — spatial selectivity for the
price of **one extra indirection** (the kernel reads the entry row id
from the subbin array, then the segment from ``D``).  Queries for which
no dimension qualifies keep their temporal entry and default to the
temporal scheme within the same kernel (line 15 of Algorithm 3); the
schedule is pre-sorted by lookup-array selector so warps see neighbours
taking the same branch.

Work accounting: indirect threads charge one *gather* unit per candidate
(the extra id load) on top of the comparison; defaulted threads charge
comparisons only — which is how the cost model exposes the paper's
measured ~12 % indirection overhead (§V-C).
"""

from __future__ import annotations

from ..core.types import SegmentArray
from ..indexes.spatiotemporal import SpatioTemporalIndex
from .base import GpuEngineBase, index_build_phase
from .config import GpuSpatioTemporalConfig

__all__ = ["GpuSpatioTemporalEngine"]


class GpuSpatioTemporalEngine(GpuEngineBase):
    """The GPUSpatioTemporal search engine."""

    name = "gpu_spatiotemporal"
    config_type = GpuSpatioTemporalConfig

    def __init__(self, database: SegmentArray,
                 config: GpuSpatioTemporalConfig = GpuSpatioTemporalConfig(),
                 *, gpu=None, retry=None) -> None:
        super().__init__(database, gpu=gpu, retry=retry)
        with index_build_phase(self.name):
            self.index = SpatioTemporalIndex.build(
                database, config.num_bins, config.num_subbins,
                strict=config.strict_subbins)
            self.database = self.index.segments
            self._place_database(self.database, "st_db",
                                 config.result_buffer_items)
            self._place_index()
            # Held: the shared grid lives as long as an engine over it.
            self._bin_grid = self.index.bin_grid()
