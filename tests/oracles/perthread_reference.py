"""The engines' one-logical-thread-at-a-time reference execution.

Every modeled second is priced from the per-thread op counts the kernels
record (one query per GPU thread, paper §IV).  The engines compute those
counts in a few whole-batch NumPy passes; this module keeps the
straightforward formulation they were vectorized from — refine, gather
and traverse one query at a time — so
``tests/test_batch_equivalence.py`` can hold the production path to
byte-identical results and identical ``KernelStats``.

Nothing here is imported by ``src/``.  :func:`install` swaps the
reference in for one test with ``monkeypatch``:

* :func:`refine` for the module-level ``refine`` (the one chunk loop)
  of ``engines.base``, ``engines.cpu_scan`` and ``engines.cpu_rtree``;
* :func:`gather` for ``GpuSpatialEngine._thread_work`` (Algorithm 1
  lines 1-12: rasterize, probe ``G``, fill ``U_k``);
* :func:`query_blocks` for ``RTree.query_blocks``;
* :func:`keep_all` for ``engines.base.surviving_rows``: the reference
  refines every scheduled pair, with no reject in front.

The refine and gather bodies are the per-thread twins the engines
carried up to commit 130f75f, where a ``"perthread"`` execution mode
selected them; only ``self`` became an explicit engine or grid argument.
The R-tree walk is a per-query depth-first recursion over the frozen
tree's levels, written independently of the production level walk.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import compare_pairs
from repro.core.geometry import expand, segment_mbbs
from repro.core.ranges import range_offsets
from repro.core.types import SegmentArray
from repro.engines import base, cpu_rtree, cpu_scan
from repro.engines.base import HostPlan, RangeBatch, Refined, ThreadWork
from repro.engines.gpu_spatial import GpuSpatialEngine
from repro.indexes.fsg import FlatGrid
from repro.indexes.rtree import RTree

__all__ = ["cells_overlapping_box", "explicit", "gather", "install",
           "keep_all", "probe", "query_blocks", "query_spans", "refine"]


def install(patch) -> None:
    """Run the engines on the reference path for the rest of the test
    (``patch`` is pytest's ``monkeypatch`` or one of its contexts)."""
    for module in (base, cpu_scan, cpu_rtree):
        patch.setattr(module, "refine", refine)
    patch.setattr(base, "surviving_rows", keep_all)
    patch.setattr(GpuSpatialEngine, "_thread_work", gather)
    patch.setattr(RTree, "query_blocks", query_blocks)


def explicit(q_rows: np.ndarray, rows: np.ndarray,
             lens: np.ndarray) -> RangeBatch:
    """The batch whose thread ``i`` owns the next ``lens[i]`` of the
    explicit ``rows``: one range over that list per thread."""
    return RangeBatch(q_rows, range_offsets(lens)[:-1], lens,
                      np.arange(q_rows.shape[0] + 1), rows)


def keep_all(queries: SegmentArray, database: SegmentArray,
             work: ThreadWork, d: float, scale: float, grid
             ) -> tuple[np.ndarray, np.ndarray, int]:
    """The reject that rejects nothing: every scheduled pair survives,
    its row named, and none is read."""
    return work.batch.lengths(), work.rows(), 0


# -- refinement --------------------------------------------------------------------


def refine(queries: SegmentArray, database: SegmentArray, work: ThreadWork,
           d: float, *, exclude_same_trajectory: bool,
           scale: float | None = None) -> Refined:
    """Refine one logical thread at a time.  A GPU caller's candidates
    (``scale`` given) pass the reject seam first, as one run."""
    lens = work.batch.lengths()
    if scale is not None:
        lens, rows, _ = base.surviving_rows(queries, database, work, d,
                                            scale, None)
        work = ThreadWork(explicit(work.batch.q_rows, rows, lens))
    nthreads = lens.shape[0]
    hits_per_thread = np.zeros(nthreads, dtype=np.int64)
    out_q, out_e, out_lo, out_hi = [], [], [], []
    for t in range(nthreads):
        e_idx = work.threads(t, t + 1).rows()
        q_idx = np.full(int(lens[t]), work.batch.q_rows[t], dtype=np.int64)
        res = compare_pairs(queries, database, q_idx, e_idx, d,
                            exclude_same_trajectory=exclude_same_trajectory)
        if res.num_hits:
            hit = res.mask
            hits_per_thread[t] = res.num_hits
            out_q.append(q_idx[hit])
            out_e.append(e_idx[hit])
            out_lo.append(res.t_lo[hit])
            out_hi.append(res.t_hi[hit])
    refined = int(lens.sum())
    if out_q:
        return Refined(hits_per_thread, np.concatenate(out_q),
                       np.concatenate(out_e), np.concatenate(out_lo),
                       np.concatenate(out_hi), 0, refined)
    z = np.zeros(0)
    zi = np.zeros(0, dtype=np.int64)
    return Refined(hits_per_thread, zi, zi.copy(), z, z.copy(), 0, refined)


# -- GPUSpatial's gather (Algorithm 1 lines 1-12) -----------------------------------


def cells_overlapping_box(grid: FlatGrid, lo: np.ndarray,
                          hi: np.ndarray) -> np.ndarray:
    """Linear ids of all grid cells a (single) box overlaps.

    Kernel-side step 1 of Algorithm 1: rasterize the query MBB (already
    expanded by ``d`` by the caller).  Returns cells whether or not they
    are non-empty; probing decides.
    """
    lo_c, hi_c = FlatGrid._cell_span(lo[None, :], hi[None, :], grid.origin,
                                     grid.cell_size, grid.dims)
    xr = np.arange(lo_c[0, 0], hi_c[0, 0] + 1, dtype=np.int64)
    yr = np.arange(lo_c[0, 1], hi_c[0, 1] + 1, dtype=np.int64)
    zr = np.arange(lo_c[0, 2], hi_c[0, 2] + 1, dtype=np.int64)
    ix, iy, iz = np.meshgrid(xr, yr, zr, indexing="ij")
    return grid.linearize(ix.ravel(), iy.ravel(), iz.ravel())


def probe(grid: FlatGrid, h: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
    """Binary-search cells ``h`` in ``G``.

    Returns ``(found_mask, start, end)`` where ``[start, end)`` indexes
    ``lookup`` for found cells (zeros otherwise).  One probe costs
    ``O(log |G|)``; the engine charges it as gather work.
    """
    pos = np.searchsorted(grid.cell_ids, h)
    pos_c = np.minimum(pos, grid.num_nonempty_cells - 1)
    found = (grid.num_nonempty_cells > 0) & (grid.cell_ids[pos_c] == h)
    start = np.where(found, grid.cell_start[pos_c], 0)
    end = np.where(found, grid.cell_end[pos_c], 0)
    return found, start, end


def gather(engine: GpuSpatialEngine, plan: HostPlan, live: np.ndarray,
           d: float) -> ThreadWork:
    """Gather one logical thread at a time: rasterize, probe, fill
    ``U_k`` or terminate on overflow."""
    slice_cap = engine.candidate_buffer_items // max(live.size, 1)
    boxes = expand(segment_mbbs(plan.queries).take(live), d)
    grid = engine.index
    log_g = max(1, int(np.ceil(np.log2(max(grid.num_nonempty_cells, 2)))))

    cand_lists: list[np.ndarray] = []
    lens = np.zeros(live.size, dtype=np.int64)
    overflowed = np.zeros(live.size, dtype=bool)
    probe_ops = np.zeros(live.size, dtype=np.int64)
    gather_ops = np.zeros(live.size, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)

    for i in range(live.size):
        cells = cells_overlapping_box(grid, boxes.lo[i], boxes.hi[i])
        found, start, end = probe(grid, cells)
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
            parts = [grid.lookup[s:e]
                     for s, e in zip(start[found], end[found])]
            cand_lists.append(np.concatenate(parts))
        else:
            cand_lists.append(empty)

    candidate_rows = np.concatenate(cand_lists) if cand_lists else empty
    return ThreadWork(
        explicit(live, candidate_rows, lens),
        gather_work=probe_ops + gather_ops, blocked=overflowed)


# -- CPU-RTree's traversal ---------------------------------------------------------


def query_spans(tree: RTree, queries: SegmentArray, d: float
                ) -> tuple[list[list[tuple[int, int]]], np.ndarray]:
    """Index phase of the search: per-query leaf row spans.

    The query's MBB is expanded by ``d`` on the spatial axes only, then
    one query at a time descends depth-first: at each node it tests all
    of the node's entry boxes, recursing into the overlapping children
    in slot order.  Returns ``(spans, node_visits)`` where ``spans[k]``
    lists the inclusive row range ``(lo, hi)`` of every leaf MBB query
    ``k`` overlaps (its candidates are all ``r`` segments of each) and
    ``node_visits[k]`` counts the nodes query ``k`` expanded.
    """
    nq = len(queries)
    qboxes = segment_mbbs(queries, temporal=tree.temporal_axis)
    q_lo = qboxes.lo.copy()
    q_hi = qboxes.hi.copy()
    q_lo[:, :3] -= d
    q_hi[:, :3] += d
    leaf_depth = len(tree.levels) - 1

    spans: list[list[tuple[int, int]]] = [[] for _ in range(nq)]
    node_visits = np.zeros(nq, dtype=np.int64)

    def descend(k: int, depth: int, node: int) -> None:
        node_visits[k] += 1
        level = tree.levels[depth]
        first, last = level.start[node], level.start[node + 1]
        box_lo = level.lo[:, first:last].T
        box_hi = level.hi[:, first:last].T
        overlaps = np.all((q_lo[k] <= box_hi) & (box_lo <= q_hi[k]),
                          axis=1)
        for slot in np.flatnonzero(overlaps):
            entry = int(first + slot)
            if depth == leaf_depth:
                lo_r, hi_r = level.ranges[entry]
                spans[k].append((int(lo_r), int(hi_r)))
            else:
                descend(k, depth + 1, entry)    # entry e is node e below

    for k in range(nq):
        descend(k, 0, 0)
    return spans, node_visits


def query_blocks(tree: RTree, queries: SegmentArray, d: float):
    """:func:`query_spans` in the production walk's form, every query
    in one block: ``(block, first, start, length, node_visits)``."""
    spans, node_visits = query_spans(tree, queries, d)
    flat = np.array([s for per_query in spans for s in per_query],
                    dtype=np.int64).reshape(-1, 2)
    yield (slice(0, len(queries)),
           range_offsets(np.array([len(s) for s in spans], dtype=np.int64)),
           flat[:, 0], flat[:, 1] - flat[:, 0] + 1, node_visits)
