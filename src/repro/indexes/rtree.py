"""In-memory R-tree over trajectory MBBs — the CPU baseline's index.

The paper's CPU-RTree (from the authors' earlier work [11], [25]) stores
``r >= 1`` *consecutive segments of one trajectory* per leaf MBB: larger
``r`` shrinks the tree (cheaper traversal) but widens the boxes (more
candidates to refine).  ``r`` is the baseline's tuning knob, swept in the
evaluation with only the best value reported per experiment.

Two construction methods (``method=``) and two box dimensionalities
(``temporal_axis=``) are provided, because the paper specifies neither
and the choice materially shapes the baseline (DESIGN.md §6.3):

* **Guttman insertion** (default) — the classic dynamic R-tree the paper
  cites, built in :mod:`repro.indexes.rtree_insert`;
* **STR bulk loading** — a near-optimally packed tree, generalized to
  k dimensions, as a strictly stronger ablation baseline;
* boxes are **3-D spatial** (time handled in refinement only) or **4-D
  spatiotemporal** (time as an index axis).

The frozen tree is arrays, one :class:`RTreeLevel` per depth, root level
first: level ``i``'s node ``n`` owns entries ``start[n]:start[n+1]``,
internal entry ``e`` *is* node ``e`` of level ``i + 1``, and the leaf
level carries each entry's row range.  Both builders make balanced trees
and go through the one :func:`flatten`, which takes a depth at a time:
a leaf level is one gather (``take``) over its leaves' chunk indices.
The search walks the levels with one frontier of ``(query, node)``
pairs per block of queries, testing one axis at a time and compacting
the frontier between axes; it produces exactly the candidates, in
exactly the order, and the node-visit counts a per-query depth-first
traversal would, which is what the CPU cost model charges.  Candidates
leave the walk as leaf row spans, one block of queries at a time; the
engine names their rows a run at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.geometry import segment_mbbs
from ..core.ranges import expand_ranges, range_offsets
from ..core.types import SegmentArray

__all__ = ["RTree", "RTreeLevel", "flatten"]

#: Queries walked down the tree at once.  Every query set of the
#: end-to-end benchmark (8 and 64 segments) is one block; a larger batch
#: holds one block's frontier at a time, not the whole batch's.  The
#: frontier's peak is its leaf level, ~34 B per expanded (query, entry)
#: pair: 4.1 MB for a 128-query block on S3 at 5 % (d = 0.02).
_QUERY_BLOCK = 64


class RTreeLevel(NamedTuple):
    """Every node at one depth of a frozen tree, in breadth-first order.

    Node ``n`` owns entries ``start[n]:start[n+1]``.  ``lo``/``hi`` are
    ``(ndim, entries)``: one contiguous row of entry-box bounds per axis.
    On the leaf level ``ranges`` holds each entry's inclusive row range
    ``(lo, hi)`` into the (trajectory-grouped) segment ordering — the
    ``r`` consecutive segments its box bounds; above it, entry ``e`` is
    node ``e`` of the next level down and ``ranges`` is None.
    """

    start: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ranges: np.ndarray | None


def flatten(root, is_leaf, level) -> tuple[RTreeLevel, ...]:
    """Freeze a balanced node graph into levels, root level first.

    ``level(nodes, leaf)`` describes one depth's ``nodes`` in one piece:
    ``(sizes, lo, hi, below, ranges)`` — each node's entry count, the
    ``(ndim, entries)`` entry-box bounds of all of them laid end to end,
    and either the next depth's nodes (then ``ranges`` is None) or, when
    ``leaf``, the ``(entries, 2)`` leaf row ranges (then ``below`` is
    None).  A level lists its nodes in the order their parents' entries
    name them, so in a balanced tree breadth-first order within a depth
    is depth-first order — which the search's emission order and
    node-visit counts rest on.
    """
    levels = []
    nodes = [root]
    while nodes:
        leaf = is_leaf(nodes[0])
        assert all(is_leaf(node) == leaf for node in nodes), \
            "leaves at more than one depth"
        sizes, lo, hi, nodes, ranges = level(nodes, leaf)
        levels.append(RTreeLevel(
            start=range_offsets(np.asarray(sizes, dtype=np.int64)),
            lo=np.ascontiguousarray(lo), hi=np.ascontiguousarray(hi),
            ranges=ranges))
    return tuple(levels)


def _str_pack(lo: np.ndarray, hi: np.ndarray, fanout: int) -> np.ndarray:
    """Sort-Tile-Recursive grouping: assign each input box to a group of at
    most ``fanout`` boxes, returning the group id per box.

    Recursively tiles dimensions in order: split the boxes (sorted by
    center along the current axis) into vertical "slabs" sized so that the
    remaining dimensions can finish the packing, then recurse per slab.
    """
    n = lo.shape[0]
    ndim = lo.shape[1]
    group = np.zeros(n, dtype=np.int64)

    def recurse(idx: np.ndarray, axis: int, next_group: int) -> int:
        k = idx.shape[0]
        if k <= fanout or axis == ndim - 1:
            centers = 0.5 * (lo[idx, axis] + hi[idx, axis])
            order = idx[np.argsort(centers, kind="stable")]
            for g0 in range(0, k, fanout):
                group[order[g0:g0 + fanout]] = next_group
                next_group += 1
            return next_group
        num_groups = int(np.ceil(k / fanout))
        slabs = int(np.ceil(num_groups ** (1.0 / (ndim - axis))))
        per_slab = int(np.ceil(k / slabs))
        centers = 0.5 * (lo[idx, axis] + hi[idx, axis])
        order = idx[np.argsort(centers, kind="stable")]
        for s0 in range(0, k, per_slab):
            next_group = recurse(order[s0:s0 + per_slab], axis + 1,
                                 next_group)
        return next_group

    recurse(np.arange(n, dtype=np.int64), 0, 0)
    return group


def _grouped(segments: SegmentArray) -> SegmentArray:
    """``segments`` with each trajectory's rows contiguous and
    time-ordered: the caller's array itself when it already is (every
    generated dataset and every compacted base), else a sorted copy."""
    order = np.lexsort((segments.ts, segments.traj_ids))
    if np.array_equal(order, np.arange(len(order))):
        return segments
    return segments.take(order)


def _chunk_boxes(seg: SegmentArray, first: np.ndarray, temporal: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The ``(chunks, ndim)`` boxes of the contiguous row chunks that
    start at ``first``, one axis at a time: no per-segment box array."""
    shape = (first.shape[0], 4 if temporal else 3)
    lo, hi = np.empty(shape), np.empty(shape)
    for d, (start, end) in enumerate(((seg.xs, seg.xe), (seg.ys, seg.ye),
                                      (seg.zs, seg.ze))):
        lo[:, d] = np.minimum.reduceat(np.minimum(start, end), first)
        hi[:, d] = np.maximum.reduceat(np.maximum(start, end), first)
    if temporal:
        lo[:, 3] = np.minimum.reduceat(seg.ts, first)
        hi[:, 3] = np.maximum.reduceat(seg.te, first)
    return lo, hi


def _str_levels(lo: np.ndarray, hi: np.ndarray, ranges: np.ndarray,
                fanout: int) -> tuple[RTreeLevel, ...]:
    """STR bulk load: pack the leaf entries into nodes, then those
    nodes' boxes, until one node is left; freeze it with :func:`flatten`.
    A node is ``(boxes, entries, children)``: its depth's packed
    ``(lo, hi)`` boxes, its entries' positions among them (chunk indices
    on the leaf level) in input order within their group, and its child
    nodes (None on the leaf level)."""
    below = None
    while True:
        group = _str_pack(lo, hi, fanout)
        order = np.argsort(group, kind="stable")
        nodes = [((lo, hi), sel,
                  None if below is None else [below[i] for i in sel])
                 for sel in np.split(order,
                                     np.cumsum(np.bincount(group))[:-1])]
        if len(nodes) == 1:
            break
        lo = np.array([lo[sel].min(axis=0) for _, sel, _ in nodes])
        hi = np.array([hi[sel].max(axis=0) for _, sel, _ in nodes])
        below = nodes

    def level(nodes, leaf):
        (lo, hi), rows = nodes[0][0], np.concatenate([s for _, s, _ in nodes])
        return ([sel.shape[0] for _, sel, _ in nodes],
                lo.T.take(rows, axis=1), hi.T.take(rows, axis=1),
                None if leaf else [c for *_, cs in nodes for c in cs],
                ranges[rows] if leaf else None)

    return flatten(nodes[0], lambda node: node[2] is None, level)


@dataclass
class RTree:
    """An R-tree over a segment database (3-D spatial or 4-D boxes).

    ``segments`` is the database with every trajectory's segments
    contiguous and time-ordered (leaf MBBs cover consecutive rows): the
    caller's own array when it already was so ordered, else a re-sorted
    copy.  The tree never writes to it.
    ``levels`` is the frozen tree, root level first (:func:`flatten`).
    """

    segments: SegmentArray
    levels: tuple[RTreeLevel, ...]
    segments_per_mbb: int
    fanout: int
    num_leaf_mbbs: int
    temporal_axis: bool = False

    @property
    def num_nodes(self) -> int:
        return sum(level.start.shape[0] - 1 for level in self.levels)

    @classmethod
    def build(cls, segments: SegmentArray, segments_per_mbb: int = 4,
              fanout: int = 16, method: str = "guttman",
              temporal_axis: bool = False) -> "RTree":
        """Build the tree over per-``r``-segment MBBs.

        ``segments_per_mbb`` is the paper's ``r``; ``fanout`` the node
        capacity ``M``.  ``method`` selects the construction:

        * ``"guttman"`` (default) — dynamic insertion with quadratic
          splits, the classic R-tree the paper's baseline cites.  Node
          overlap (and hence traversal cost) reflects a real dynamic
          R-tree's behaviour, degradation on uniform dense data included.
        * ``"str"`` — Sort-Tile-Recursive bulk loading: near-optimally
          packed, minimal overlap.  A stronger-than-the-paper baseline,
          useful for ablations.

        ``temporal_axis=False`` (default) indexes the 3 spatial
        dimensions only, with time handled purely in refinement — the
        configuration whose measured behaviour matches the paper's
        baseline (its CPU-RTree loses temporal discrimination on
        temporally co-extensive datasets).  ``temporal_axis=True`` adds
        time as a fourth index axis, a strictly stronger baseline used in
        ablations.
        """
        if segments_per_mbb <= 0:
            raise ValueError("segments_per_mbb must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if method not in ("guttman", "str"):
            raise ValueError(f"unknown build method {method!r}")
        if len(segments) == 0:
            raise ValueError("cannot index an empty database")

        # Group rows so each trajectory's segments are contiguous and
        # time-ordered; leaf MBBs must never span trajectories.
        seg = _grouped(segments)
        r = segments_per_mbb
        # Chunk rows into runs of r consecutive same-trajectory segments.
        tid = seg.traj_ids
        run_break = np.ones(len(seg), dtype=bool)
        run_break[1:] = tid[1:] != tid[:-1]
        run_start_of = np.maximum.accumulate(
            np.where(run_break, np.arange(len(seg)), 0))
        chunk_break = run_break | ((np.arange(len(seg)) - run_start_of)
                                   % r == 0)
        # Chunks are contiguous row runs, so each bound is a reduceat.
        first = np.flatnonzero(chunk_break)
        num_chunks = first.shape[0]
        chunk_lo, chunk_hi = _chunk_boxes(seg, first, temporal_axis)
        last = np.empty_like(first)
        last[:-1] = first[1:] - 1
        last[-1] = len(seg) - 1
        ranges = np.stack([first, last], axis=1).astype(np.int64)

        if method == "guttman":
            from .rtree_insert import GuttmanBuilder
            # Dynamic R-trees are sensitive to insertion order.  Snapshot
            # datasets (Merger, Random-dense) are produced timestep-major,
            # so the natural load order presents time-adjacent but
            # spatially random entries back to back — the order a system
            # ingesting simulation output would see.
            if temporal_axis:
                insert_order = np.argsort(chunk_lo[:, 3], kind="stable")
            else:
                insert_order = np.arange(num_chunks)
            levels = GuttmanBuilder(fanout=fanout).build(
                chunk_lo, chunk_hi, ranges, insert_order)
        else:
            levels = _str_levels(chunk_lo, chunk_hi, ranges, fanout)
        return cls(segments=seg, levels=levels, segments_per_mbb=r,
                   fanout=fanout, num_leaf_mbbs=num_chunks,
                   temporal_axis=temporal_axis)

    # -- search --------------------------------------------------------------------

    def query_blocks(self, queries: SegmentArray, d: float
                     ) -> Iterator[tuple[slice, np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]]:
        """Index phase of the search, ``_QUERY_BLOCK`` queries at a time.

        The query's MBB is expanded by ``d`` on the spatial axes only,
        then walked down the levels.  Yields, per block of queries,
        ``(block, first, start, length, node_visits)``: query
        ``block.start + i``'s candidates are the leaf spans ``first[i]
        .. first[i+1] - 1`` (all ``r`` segments of every overlapping leaf
        MBB, leaf visits in DFS order), span ``j`` the rows ``start[j]
        .. start[j] + length[j] - 1``, and ``node_visits[i]`` counts the
        nodes that query expanded — the traversal cost the CPU model
        charges.  Blocks split the batch by query, so the walk holds one
        block's frontier at a time, and the caller one block's spans.
        """
        nq = len(queries)
        qboxes = segment_mbbs(queries, temporal=self.temporal_axis)
        q_lo = np.ascontiguousarray(qboxes.lo.T)    # one row per axis
        q_hi = np.ascontiguousarray(qboxes.hi.T)
        q_lo[:3] -= d
        q_hi[:3] += d
        ranges = self.levels[-1].ranges
        for first in range(0, nq, _QUERY_BLOCK):
            block = slice(first, min(first + _QUERY_BLOCK, nq))
            q, entry, node_visits = self._walk(q_lo[:, block],
                                               q_hi[:, block])
            start = ranges[entry, 0]
            yield (block, range_offsets(np.bincount(
                       q, minlength=block.stop - first)),
                   start, ranges[entry, 1] - start + 1, node_visits)

    def _walk(self, q_lo: np.ndarray, q_hi: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk one block of query boxes (``(ndim, n)`` per bound) down
        the levels with one frontier of ``(query, node)`` pairs.  Returns
        the leaf frontier ``(query, leaf entry)`` — each query's leaf
        entries in depth-first order — and each query's node visits."""
        nq = q_lo.shape[1]
        # Time first on a 4-D tree: the order cannot change the outcome.
        axes = (3, 0, 1, 2) if self.temporal_axis else (0, 1, 2)
        # The frontier: (query, node) pairs sorted by query, then by
        # position in the level — each query's depth-first visit order.
        q = np.arange(nq, dtype=np.int64)
        node = np.zeros(nq, dtype=np.int64)
        visited = []
        for level in self.levels:
            visited.append(q)
            first = level.start[node]
            fan = level.start[node + 1] - first
            q = np.repeat(q, fan)
            entry = expand_ranges(first, fan)
            for axis in axes:
                keep = ((q_lo[axis][q] <= level.hi[axis][entry])
                        & (level.lo[axis][entry] <= q_hi[axis][q]))
                q = q[keep]
                entry = entry[keep]
            node = entry    # entry e is node e one level down
            if not q.size:
                break
        # Past the loop the frontier holds leaf entries, or nothing.
        return q, node, np.bincount(np.concatenate(visited), minlength=nq)

    # -- reporting ------------------------------------------------------------------

    def nbytes(self) -> int:
        """In-memory index footprint: the entry boxes and leaf ranges
        (the per-level ``start`` offsets are not counted)."""
        boxes = sum(lvl.lo.nbytes + lvl.hi.nbytes for lvl in self.levels)
        return boxes + self.levels[-1].ranges.nbytes

    def depth(self) -> int:
        return len(self.levels)
