"""Classic Guttman R-tree construction (dynamic insertion, quadratic split).

The paper's CPU baseline uses "an in-memory R-tree index [12]" — Guttman's
original dynamic R-tree — built by inserting the per-``r``-segment MBBs
one at a time.  Unlike a packed (STR) tree, an insertion-built R-tree has
significant *node overlap*, especially on uniformly dense data: every
query descends multiple subtrees and touches many leaf MBBs whose dead
space intersects the expanded query box.  That degradation is a real part
of the baseline's measured behaviour (it is why the paper's CPU loses on
Random-dense for all but the smallest d), so we reproduce the construction
faithfully:

* **ChooseLeaf** descends into the child needing the least area
  enlargement (ties by smallest area);
* node overflow triggers Guttman's **quadratic split**: pick the two
  entries wasting the most area as seeds, then assign the rest by
  maximum preference (area-enlargement difference), honouring the
  minimum-fill invariant ``m = M // 2``;
* splits propagate upward; a root split grows the tree.

The produced structure is frozen with
:func:`~repro.indexes.rtree.flatten` into the per-level arrays the
search consumes, so both construction methods share the query path and
the node-visit accounting.
"""

from __future__ import annotations

import numpy as np

from repro.indexes.rtree import RTreeLevel, flatten

__all__ = ["GuttmanBuilder"]


class _MutableNode:
    """Growable node used during insertion; frozen afterwards."""

    __slots__ = ("lo", "hi", "count", "children", "ranges", "is_leaf")

    def __init__(self, capacity: int, is_leaf: bool, ndim: int = 4) -> None:
        self.lo = np.empty((capacity + 1, ndim))
        self.hi = np.empty((capacity + 1, ndim))
        self.count = 0
        self.is_leaf = is_leaf
        self.children: list["_MutableNode"] = []
        self.ranges: list[tuple[int, int]] = []

    def add(self, lo: np.ndarray, hi: np.ndarray,
            child: "_MutableNode | None" = None,
            rng: tuple[int, int] | None = None) -> None:
        self.lo[self.count] = lo
        self.hi[self.count] = hi
        self.count += 1
        if child is not None:
            self.children.append(child)
        if rng is not None:
            self.ranges.append(rng)

    def mbb(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.lo[:self.count].min(axis=0),
                self.hi[:self.count].max(axis=0))


class GuttmanBuilder:
    """Builds an R-tree by repeated insertion with quadratic splits.

    ``fanout`` is Guttman's ``M`` (max entries/node); minimum fill is
    ``M // 2``.  Entries are leaf-level ``(mbb, row-range)`` pairs — the
    same per-``r``-segment chunks the STR builder uses.
    """

    def __init__(self, fanout: int = 16) -> None:
        if fanout < 4:
            raise ValueError("fanout must be at least 4 for quadratic "
                             "split's minimum-fill invariant")
        self.fanout = fanout
        self.min_fill = fanout // 2

    # -- public API -----------------------------------------------------------

    def build(self, lo: np.ndarray, hi: np.ndarray, ranges: np.ndarray,
              order: np.ndarray) -> tuple[RTreeLevel, ...]:
        """The shipped builder's entry point: insert chunk ``order[0]``,
        then ``order[1]``, ... (each ``(lo[c], hi[c], ranges[c])``), and
        freeze."""
        self.ndim = lo.shape[1]
        self.root = _MutableNode(self.fanout, is_leaf=True, ndim=self.ndim)
        self.num_nodes = 1
        for c, row_range in zip(order, ranges[order].tolist()):
            self.insert(lo[c], hi[c], tuple(row_range))
        return self.finalize()

    def insert(self, lo: np.ndarray, hi: np.ndarray,
               row_range: tuple[int, int]) -> None:
        split = self._insert_rec(self.root, lo, hi, row_range)
        if split is not None:
            new_root = _MutableNode(self.fanout, is_leaf=False,
                                    ndim=self.ndim)
            for node in (self.root, split):
                nlo, nhi = node.mbb()
                new_root.add(nlo, nhi, child=node)
            self.root = new_root
            self.num_nodes += 1

    def finalize(self) -> tuple[RTreeLevel, ...]:
        """Freeze the mutable tree into the search's per-level arrays."""
        return flatten(self.root, lambda node: node.is_leaf, self._level)

    # -- insertion ---------------------------------------------------------------

    def _insert_rec(self, node: _MutableNode, lo: np.ndarray,
                    hi: np.ndarray, row_range: tuple[int, int]
                    ) -> _MutableNode | None:
        """Insert into the subtree; returns a sibling if ``node`` split."""
        if node.is_leaf:
            node.add(lo, hi, rng=row_range)
            if node.count > self.fanout:
                return self._split(node)
            return None

        child_idx = self._choose_subtree(node, lo, hi)
        child = node.children[child_idx]
        split = self._insert_rec(child, lo, hi, row_range)
        # Tighten the child's recorded MBB.
        clo, chi = child.mbb()
        node.lo[child_idx] = clo
        node.hi[child_idx] = chi
        if split is not None:
            slo, shi = split.mbb()
            node.add(slo, shi, child=split)
            if node.count > self.fanout:
                return self._split(node)
        return None

    def _choose_subtree(self, node: _MutableNode, lo: np.ndarray,
                        hi: np.ndarray) -> int:
        """Guttman's ChooseLeaf criterion, vectorized over the children."""
        k = node.count
        clo, chi = node.lo[:k], node.hi[:k]
        area = np.prod(chi - clo, axis=1)
        new_lo = np.minimum(clo, lo)
        new_hi = np.maximum(chi, hi)
        enlarged = np.prod(new_hi - new_lo, axis=1) - area
        best = np.flatnonzero(enlarged == enlarged.min())
        if best.shape[0] > 1:
            return int(best[np.argmin(area[best])])
        return int(best[0])

    # -- quadratic split -----------------------------------------------------------

    def _split(self, node: _MutableNode) -> _MutableNode:
        """Quadratic split of an overflowing node (count == fanout + 1).

        Mutates ``node`` into group 1 and returns group 2.
        """
        k = node.count
        lo, hi = node.lo[:k].copy(), node.hi[:k].copy()
        children = list(node.children)
        ranges = list(node.ranges)

        # PickSeeds: the pair wasting the most area.
        pair_lo = np.minimum(lo[:, None, :], lo[None, :, :])
        pair_hi = np.maximum(hi[:, None, :], hi[None, :, :])
        waste = (np.prod(pair_hi - pair_lo, axis=2)
                 - np.prod(hi - lo, axis=1)[:, None]
                 - np.prod(hi - lo, axis=1)[None, :])
        np.fill_diagonal(waste, -np.inf)
        s1, s2 = np.unravel_index(np.argmax(waste), waste.shape)

        group = np.full(k, -1, dtype=np.int64)
        group[s1], group[s2] = 0, 1
        g_lo = [lo[s1].copy(), lo[s2].copy()]
        g_hi = [hi[s1].copy(), hi[s2].copy()]
        g_count = [1, 1]
        remaining = [i for i in range(k) if i not in (s1, s2)]

        while remaining:
            # Minimum-fill guarantee: if one group must absorb the rest.
            need = self.min_fill
            for g in (0, 1):
                if g_count[g] + len(remaining) == need:
                    for i in remaining:
                        group[i] = g
                        g_lo[g] = np.minimum(g_lo[g], lo[i])
                        g_hi[g] = np.maximum(g_hi[g], hi[i])
                        g_count[g] += 1
                    remaining = []
                    break
            if not remaining:
                break
            # PickNext: entry with the strongest group preference.
            idx = np.array(remaining)
            d_g = []
            for g in (0, 1):
                nlo = np.minimum(g_lo[g], lo[idx])
                nhi = np.maximum(g_hi[g], hi[idx])
                d_g.append(np.prod(nhi - nlo, axis=1)
                           - np.prod(g_hi[g] - g_lo[g]))
            pref = np.abs(d_g[0] - d_g[1])
            pick_pos = int(np.argmax(pref))
            i = remaining.pop(pick_pos)
            g = 0 if d_g[0][pick_pos] < d_g[1][pick_pos] else \
                1 if d_g[1][pick_pos] < d_g[0][pick_pos] else \
                (0 if g_count[0] <= g_count[1] else 1)
            group[i] = g
            g_lo[g] = np.minimum(g_lo[g], lo[i])
            g_hi[g] = np.maximum(g_hi[g], hi[i])
            g_count[g] += 1

        # Rebuild node (group 0) and the new sibling (group 1).
        sibling = _MutableNode(self.fanout, is_leaf=node.is_leaf,
                               ndim=self.ndim)
        node.count = 0
        node.children = []
        node.ranges = []
        for i in range(k):
            target = node if group[i] == 0 else sibling
            target.add(lo[i], hi[i],
                       child=children[i] if children else None,
                       rng=ranges[i] if ranges else None)
        self.num_nodes += 1
        return sibling

    # -- freezing ------------------------------------------------------------------

    @staticmethod
    def _level(nodes: list[_MutableNode], leaf: bool):
        lo = np.concatenate([node.lo[:node.count] for node in nodes]).T
        hi = np.concatenate([node.hi[:node.count] for node in nodes]).T
        sizes = [node.count for node in nodes]
        if leaf:
            return sizes, lo, hi, None, np.concatenate([
                np.asarray(node.ranges, dtype=np.int64).reshape(-1, 2)
                for node in nodes])
        return (sizes, lo, hi, [c for node in nodes for c in node.children],
                None)
