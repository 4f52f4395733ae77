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
   ``GpuEngineBase._search_once``.

Steps 1-2 and each thread's candidate list are ``GpuEngineBase``'s
default hooks over :meth:`TemporalIndex.make_schedule` — the schedule
GPUSpatioTemporal starts from — so this file is the offline build.

The candidate count of a query does not depend on ``d`` — the scheme's
signature behaviour: response time is flat in the query distance, except
for the result-volume effects (more atomic appends, more d2h traffic, more
invocations) at large ``d``.
"""

from __future__ import annotations

from ..core.types import SegmentArray
from ..indexes.temporal import TemporalIndex
from .base import GpuEngineBase, index_build_phase
from .config import GpuTemporalConfig

__all__ = ["GpuTemporalEngine"]


class GpuTemporalEngine(GpuEngineBase):
    """The GPUTemporal search engine."""

    name = "gpu_temporal"
    config_type = GpuTemporalConfig

    def __init__(self, database: SegmentArray,
                 config: GpuTemporalConfig = GpuTemporalConfig(), *,
                 gpu=None, retry=None) -> None:
        super().__init__(database, gpu=gpu, retry=retry)
        # Offline: build the index and place D (sorted) + bins on device.
        with index_build_phase(self.name):
            self.index = TemporalIndex.build(database, config.num_bins)
            self.database = self.index.segments
            self._place_database(self.database, "temporal_db",
                                 config.result_buffer_items)
            self._place_index()
            # Held: the shared grid lives as long as an engine over it.
            self._bin_grid = self.index.bin_grid()
