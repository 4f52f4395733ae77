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

The search is implemented as a *batched* descent: all queries enter at the
root and the per-node overlap tests are vectorized over the queries
visiting that node.  This keeps the Python overhead per node constant
while producing exactly the node-visit counts a per-query traversal would,
which is what the CPU cost model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.geometry import segment_mbbs
from ..core.ranges import expand_ranges
from ..core.types import SegmentArray

__all__ = ["RTree", "RTreeNode"]


@dataclass
class RTreeNode:
    """One internal or leaf-level node.

    ``child_lo``/``child_hi`` are ``(k, 4)`` arrays of child MBBs.  For an
    internal node ``children`` holds child ``RTreeNode``s; for a leaf-level
    node ``ranges`` holds per-child inclusive row ranges ``(lo, hi)`` into
    the (trajectory-grouped) segment ordering — each range covering the
    ``r`` consecutive segments the child MBB bounds.
    """

    child_lo: np.ndarray
    child_hi: np.ndarray
    children: list["RTreeNode"] = field(default_factory=list)
    ranges: np.ndarray | None = None  # (k, 2) for leaf-level nodes

    @property
    def is_leaf(self) -> bool:
        return self.ranges is not None

    @property
    def num_children(self) -> int:
        return int(self.child_lo.shape[0])


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


@dataclass
class RTree:
    """An R-tree over a segment database (3-D spatial or 4-D boxes).

    ``segments`` is the database re-sorted so every trajectory's segments
    are contiguous and time-ordered (leaf MBBs cover consecutive rows).
    """

    segments: SegmentArray
    root: RTreeNode
    segments_per_mbb: int
    fanout: int
    num_nodes: int
    num_leaf_mbbs: int
    temporal_axis: bool = False

    def __post_init__(self) -> None:
        # The tree is immutable once built: size it once, not per search.
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += node.child_lo.nbytes + node.child_hi.nbytes
            if node.ranges is not None:
                total += node.ranges.nbytes
            stack.extend(node.children)
        self._nbytes = total

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
        order = np.lexsort((segments.ts, segments.traj_ids))
        seg = segments.take(order)
        r = segments_per_mbb

        boxes = segment_mbbs(seg, temporal=temporal_axis)
        ndim = boxes.ndim
        # Chunk rows into runs of r consecutive same-trajectory segments.
        tid = seg.traj_ids
        run_break = np.ones(len(seg), dtype=bool)
        run_break[1:] = tid[1:] != tid[:-1]
        run_start_of = np.maximum.accumulate(
            np.where(run_break, np.arange(len(seg)), 0))
        chunk_break = run_break | ((np.arange(len(seg)) - run_start_of)
                                   % r == 0)
        # Chunks are contiguous row runs, so one reduceat per bound.
        first = np.flatnonzero(chunk_break)
        num_chunks = first.shape[0]
        chunk_lo = np.minimum.reduceat(boxes.lo, first, axis=0)
        chunk_hi = np.maximum.reduceat(boxes.hi, first, axis=0)
        last = np.empty_like(first)
        last[:-1] = first[1:] - 1
        last[-1] = len(seg) - 1
        ranges = np.stack([first, last], axis=1).astype(np.int64)

        if method == "guttman":
            from .rtree_insert import GuttmanBuilder
            builder = GuttmanBuilder(fanout=fanout, ndim=ndim)
            # Dynamic R-trees are sensitive to insertion order.  Snapshot
            # datasets (Merger, Random-dense) are produced timestep-major,
            # so the natural load order presents time-adjacent but
            # spatially random entries back to back — the order a system
            # ingesting simulation output would see.
            if temporal_axis:
                insert_order = np.argsort(chunk_lo[:, 3], kind="stable")
            else:
                insert_order = np.arange(num_chunks)
            for c, row_range in zip(insert_order,
                                    ranges[insert_order].tolist()):
                builder.insert(chunk_lo[c], chunk_hi[c], tuple(row_range))
            return cls(segments=seg, root=builder.finalize(),
                       segments_per_mbb=r, fanout=fanout,
                       num_nodes=builder.num_nodes,
                       num_leaf_mbbs=num_chunks,
                       temporal_axis=temporal_axis)

        node_count = [0]

        def build_level(lo: np.ndarray, hi: np.ndarray,
                        payload_nodes: list[RTreeNode] | None,
                        payload_ranges: np.ndarray | None
                        ) -> tuple[np.ndarray, np.ndarray, list[RTreeNode]]:
            group = _str_pack(lo, hi, fanout)
            num_groups = int(group.max()) + 1
            nodes: list[RTreeNode] = []
            up_lo = np.empty((num_groups, ndim))
            up_hi = np.empty((num_groups, ndim))
            for g in range(num_groups):
                sel = np.flatnonzero(group == g)
                node = RTreeNode(
                    child_lo=lo[sel], child_hi=hi[sel],
                    children=([payload_nodes[s] for s in sel]
                              if payload_nodes is not None else []),
                    ranges=(payload_ranges[sel]
                            if payload_ranges is not None else None),
                )
                nodes.append(node)
                node_count[0] += 1
                up_lo[g] = lo[sel].min(axis=0)
                up_hi[g] = hi[sel].max(axis=0)
            return up_lo, up_hi, nodes

        lo, hi, nodes = build_level(chunk_lo, chunk_hi, None, ranges)
        while len(nodes) > 1:
            lo, hi, nodes = build_level(lo, hi, nodes, None)
        return cls(segments=seg, root=nodes[0], segments_per_mbb=r,
                   fanout=fanout, num_nodes=node_count[0],
                   num_leaf_mbbs=num_chunks, temporal_axis=temporal_axis)

    # -- search --------------------------------------------------------------------

    def query_candidates_flat(
        self, queries: SegmentArray, d: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index phase of the search: every query's candidate rows.

        The query's 4-D MBB is expanded by ``d`` on the spatial axes
        only, then pushed down the tree; leaf hits are emitted as flat
        ``(query, leaf-range)`` triples and expanded into one candidate
        array in a single vectorized pass.  Returns
        ``(candidate_rows, cand_start, node_visits)``: query ``k``'s
        candidates (all ``r`` segments of every overlapping leaf MBB, leaf
        visits in DFS order, leaf children in slot order) are
        ``candidate_rows[cand_start[k]:cand_start[k+1]]``, and
        ``node_visits[k]`` counts the nodes query ``k`` expanded — the
        traversal cost the CPU model charges.
        """
        nq = len(queries)
        qboxes = segment_mbbs(queries, temporal=self.temporal_axis)
        q_lo = qboxes.lo.copy()
        q_hi = qboxes.hi.copy()
        q_lo[:, :3] -= d
        q_hi[:, :3] += d

        node_visits = np.zeros(nq, dtype=np.int64)
        hit_q: list[np.ndarray] = []
        hit_lo: list[np.ndarray] = []
        hit_len: list[np.ndarray] = []

        def descend(node: RTreeNode, q_idx: np.ndarray) -> None:
            node_visits[q_idx] += 1
            ov = np.all(
                (q_lo[q_idx][:, None, :] <= node.child_hi[None, :, :])
                & (node.child_lo[None, :, :] <= q_hi[q_idx][:, None, :]),
                axis=2)
            if node.is_leaf:
                assert node.ranges is not None
                # nonzero on the transpose walks hits child-major — the
                # per-leaf emission order of a per-query descent.
                col, row = np.nonzero(ov.T)
                if col.size:
                    hit_q.append(q_idx[row])
                    hit_lo.append(node.ranges[col, 0])
                    hit_len.append(node.ranges[col, 1]
                                   - node.ranges[col, 0] + 1)
            else:
                for col, child in enumerate(node.children):
                    sub = q_idx[ov[:, col]]
                    if sub.size:
                        descend(child, sub)

        if nq:
            descend(self.root, np.arange(nq, dtype=np.int64))

        if hit_q:
            q_all = np.concatenate(hit_q)
            lo_all = np.concatenate(hit_lo)
            len_all = np.concatenate(hit_len)
            # Stable sort groups each query's leaf ranges while keeping
            # them in DFS emission order.
            order = np.argsort(q_all, kind="stable")
            q_all = q_all[order]
            lo_all = lo_all[order]
            len_all = len_all[order]
            lens = np.bincount(q_all, weights=len_all,
                               minlength=nq).astype(np.int64)
            candidate_rows = expand_ranges(lo_all, len_all)
        else:
            lens = np.zeros(nq, dtype=np.int64)
            candidate_rows = np.zeros(0, dtype=np.int64)
        cand_start = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(lens, out=cand_start[1:])
        return candidate_rows, cand_start, node_visits

    # -- reporting ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Approximate in-memory index footprint (boxes + ranges),
        computed at build."""
        return self._nbytes

    def depth(self) -> int:
        node, depth = self.root, 1
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth
