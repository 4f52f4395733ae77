"""GPUSpatial — flat-grid search engine (paper §IV-A, Algorithm 1).

Per kernel invocation, each live query gets one thread which:

1. rasterizes the query MBB **expanded by d** onto the grid;
2. binary-searches each overlapped cell in the non-empty-cell array ``G``
   (``O(log |G|)`` per probe);
3. copies the candidate entry ids of found cells from the lookup array
   ``A`` into its slice ``U_k`` of the shared candidate buffer —
   ``|U_k| = s / |live queries|``.  If the slice overflows, the thread
   atomically appends its query id to ``redo`` and **terminates without
   refining** (Algorithm 1 lines 10-12);
4. refines each buffered candidate and atomically appends results.

The host re-invokes the kernel with the ``redo`` list; each re-invocation
has fewer live queries, hence larger per-query buffer slices, so overflow
pressure decays geometrically.  Candidate ids are *not* deduplicated (an
id occurs in ``A`` once per overlapped cell), so redundant comparisons and
duplicate result items are possible; the host filters duplicates after the
search (§IV-A.2).

This scheme has no temporal selectivity at all: candidates are whatever
spatially overlaps, whenever it exists — one of the two reasons it loses
on large datasets (the other being buffer-pressure re-invocations).
"""

from __future__ import annotations

import numpy as np

from ..core.execmode import current_execution_mode
from ..core.geometry import expand, segment_mbbs
from ..core.ranges import expand_ranges
from ..core.types import SegmentArray
from ..indexes.fsg import FlatGrid
from .base import (GpuEngineBase, HostPlan, RangeBatch, ThreadWork,
                   index_build_phase)
from .config import GpuSpatialConfig

__all__ = ["GpuSpatialEngine"]

#: Upper bound on (query, cell) probe pairs rasterized per vectorized
#: chunk; keeps peak host memory flat independent of box sizes.
_MAX_PROBES_PER_CHUNK = 1 << 22


class GpuSpatialEngine(GpuEngineBase):
    """The GPUSpatial search engine."""

    name = "gpu_spatial"
    config_type = GpuSpatialConfig
    gathers_on_device = True    # Algorithm 1 lines 1-12 run in the kernel

    def __init__(self, database: SegmentArray, *,
                 cells_per_dim: int | tuple[int, int, int] = 50,
                 gpu=None,
                 candidate_buffer_items: int = 8_000_000,
                 result_buffer_items: int = 2_000_000,
                 retry=None) -> None:
        super().__init__(database, gpu=gpu,
                         result_buffer_items=result_buffer_items,
                         retry=retry)
        if candidate_buffer_items <= 0:
            raise ValueError("candidate buffer must be positive")
        #: the paper's overall buffer size ``s``, split across live queries.
        self.candidate_buffer_items = int(candidate_buffer_items)
        with index_build_phase(self.name):
            self.index = FlatGrid.build(database, cells_per_dim)
            self.database = database
            self._place_database(database, "fsg_db")
            mem = self.gpu.memory
            mem.put("fsg_G", self.index.cell_ids)
            mem.put("fsg_ranges", np.stack([self.index.cell_start,
                                            self.index.cell_end]))
            mem.put("fsg_A", self.index.lookup.astype(np.int32))
            mem.alloc("fsg_U", self.candidate_buffer_items,
                      dtype=np.int32)

    def _host_plan(self, queries: SegmentArray, d: float,
                   exclude_same_trajectory: bool) -> HostPlan:
        # No sorting of Q and no schedule for the spatial scheme
        # (§IV-A.2).
        return HostPlan(queries, len(queries))

    def _resubmit_limit(self, num_live, num_pending, redo_hits,
                        redo_blocked) -> int:
        # The redo mechanism lets the host choose which query ids to
        # resubmit.  After progress: all of them.  When an invocation
        # completed no query (every live thread overflowed an
        # identical-size U_k): half, doubling the per-thread slice — so
        # convergence is unconditional, down to one query alone.
        if redo_hits.size < num_live:
            return num_pending
        if num_live > 1:
            return num_live // 2
        if redo_blocked[0]:
            raise RuntimeError(
                "candidate buffer too small: one query's candidate set "
                f"exceeds the whole buffer (s={self.candidate_buffer_items}"
                "); increase candidate_buffer_items or coarsen the grid")
        raise self._overflow_error(int(redo_hits[0]))

    # -- candidate gathering (kernel steps 1-3) -----------------------------------

    def _thread_work(self, plan: HostPlan, live: np.ndarray,
                     d: float) -> ThreadWork:
        """Fill per-thread candidate slices.

        ``blocked`` flags threads that exceeded ``|U_k|`` (their
        candidate lists are left empty — the thread terminated);
        ``gather_work`` is probe + fill units.

        The batch path exploits the grid's physical layout: ``lookup``
        ranges of consecutive non-empty cells are contiguous
        (``cell_end[i] == cell_start[i+1]``), so each z-run of a query's
        cell box — a contiguous linear-coordinate interval — collapses to
        two binary searches in ``G`` plus one contiguous ``lookup``
        slice.  All live queries' runs are enumerated as flat
        ``(query, ix, iy)`` triples and searched in one vectorized pass;
        the per-cell op counts (``|cells| * log |G|`` probe charges) are
        modeled exactly as the reference per-cell gather records them.
        """
        if current_execution_mode() == "perthread":
            return self._gather_perthread(plan.queries, live, d)

        slice_cap = self.candidate_buffer_items // max(live.size, 1)
        boxes = expand(segment_mbbs(plan.queries).take(live), d)
        log_g = max(1, int(np.ceil(np.log2(max(self.index
                                               .num_nonempty_cells, 2)))))
        m = live.size
        index = self.index
        ny, nz = index.dims[1], index.dims[2]
        # bound[i]:bound[i+1] is non-empty cell i's lookup range; the
        # ranges tile lookup, so a run of cells is one contiguous slice.
        bound = np.append(index.cell_start, index.lookup.shape[0])

        lo_c, hi_c = FlatGrid._cell_span(boxes.lo, boxes.hi, index.origin,
                                         index.cell_size, index.dims)
        spans = hi_c - lo_c + 1                     # (m, 3)
        probe_ops = np.prod(spans, axis=1) * log_g
        nruns = spans[:, 0] * spans[:, 1]

        totals = np.zeros(m, dtype=np.int64)
        row_parts: list[np.ndarray] = []
        start_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []

        # Chunk queries so the flat per-run arrays stay small.
        cum = np.cumsum(nruns)
        q = 0
        while q < m:
            base = cum[q - 1] if q else 0
            q_end = int(np.searchsorted(cum, base + _MAX_PROBES_PER_CHUNK,
                                        side="right"))
            q_end = max(q_end, q + 1)

            nr = nruns[q:q_end]
            total = int(nr.sum())
            # Enumerate the k-th (ix, iy) z-run of each query, y-fastest —
            # ascending linear coordinate, the order
            # cells_overlapping_box emits cells.
            run_q = np.repeat(np.arange(q, q_end, dtype=np.int64), nr)
            offs = np.arange(total, dtype=np.int64) \
                - np.repeat(np.cumsum(nr) - nr, nr)
            sy = np.repeat(spans[q:q_end, 1], nr)
            ix = np.repeat(lo_c[q:q_end, 0], nr) + offs // sy
            iy = np.repeat(lo_c[q:q_end, 1], nr) + offs % sy
            h0 = (ix * ny + iy) * nz + np.repeat(lo_c[q:q_end, 2], nr)
            h1 = h0 + np.repeat(spans[q:q_end, 2], nr)  # exclusive
            c0 = np.searchsorted(index.cell_ids, h0, side="left")
            c1 = np.searchsorted(index.cell_ids, h1, side="left")
            a = bound[c0]
            counts = bound[c1] - a
            totals[q:q_end] = np.bincount(
                run_q - q, weights=counts,
                minlength=q_end - q).astype(np.int64)

            keep = counts > 0
            row_parts.append(run_q[keep])
            start_parts.append(a[keep])
            count_parts.append(counts[keep])
            q = q_end

        overflowed = totals > slice_cap
        gather_ops = np.where(overflowed, slice_cap, totals)
        lens = np.where(overflowed, 0, totals)

        run_q = np.concatenate(row_parts) if row_parts \
            else np.zeros(0, dtype=np.int64)
        keep = ~overflowed[run_q]
        starts_f = np.concatenate(start_parts)[keep] if start_parts \
            else np.zeros(0, dtype=np.int64)
        counts_f = np.concatenate(count_parts)[keep] if count_parts \
            else np.zeros(0, dtype=np.int64)
        candidate_rows = index.lookup[expand_ranges(starts_f, counts_f)]

        return ThreadWork(
            RangeBatch.from_lengths(live, candidate_rows, lens),
            gather_work=probe_ops + gather_ops, blocked=overflowed)

    def _gather_perthread(self, q_sorted: SegmentArray, live: np.ndarray,
                          d: float) -> ThreadWork:
        """Legacy reference: gather one logical thread at a time."""
        slice_cap = self.candidate_buffer_items // max(live.size, 1)
        boxes = expand(segment_mbbs(q_sorted).take(live), d)
        log_g = max(1, int(np.ceil(np.log2(max(self.index
                                               .num_nonempty_cells, 2)))))

        cand_lists: list[np.ndarray] = []
        lens = np.zeros(live.size, dtype=np.int64)
        overflowed = np.zeros(live.size, dtype=bool)
        probe_ops = np.zeros(live.size, dtype=np.int64)
        gather_ops = np.zeros(live.size, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)

        for i in range(live.size):
            cells = self.index.cells_overlapping_box(boxes.lo[i],
                                                     boxes.hi[i])
            found, start, end = self.index.probe(cells)
            probe_ops[i] = cells.size * log_g
            counts = (end - start)[found]
            total = int(counts.sum())
            if total > slice_cap:
                # Thread terminates: partial fill up to capacity was paid,
                # then the query id goes to `redo` (one atomic).
                overflowed[i] = True
                gather_ops[i] = slice_cap
                cand_lists.append(empty)
                continue
            gather_ops[i] = total
            lens[i] = total
            if total:
                starts_f = start[found]
                ends_f = end[found]
                parts = [self.index.lookup[s:e]
                         for s, e in zip(starts_f, ends_f)]
                cand_lists.append(np.concatenate(parts))
            else:
                cand_lists.append(empty)

        candidate_rows = (np.concatenate(cand_lists) if cand_lists
                          else empty)
        return ThreadWork(
            RangeBatch.from_lengths(live, candidate_rows, lens),
            gather_work=probe_ops + gather_ops, blocked=overflowed)
