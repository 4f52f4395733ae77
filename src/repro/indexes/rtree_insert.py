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

The produced structure is converted to the same immutable
:class:`~repro.indexes.rtree.RTreeNode` form the batched search consumes,
so both construction methods share the query path and the node-visit
accounting.

A service rebuilds this tree at every compaction, so the builder does the
textbook algorithm with as few NumPy calls as it can — and must freeze to
the *same tree, bit for bit* as the straightforward formulation kept in
``tests/oracles/guttman_reference.py`` (node visits are what the CPU cost
model charges).  What is cached, and why each shortcut is exact:

* **Child areas** of an internal node live in ``_Node.area`` beside the
  child boxes.  ``area[i]`` is always the product of ``hi[i] - lo[i]``
  taken left to right over the axes — the order ``np.multiply.reduce``
  (all that NumPy's ``prod`` wrapper calls) uses for a row of a matrix
  and for a 1-D vector alike — so a cached value equals a recomputed one.
  Leaf entries need an area only when their node splits; it is computed
  there.
* **A parent's row is tightened incrementally.**  The row a parent keeps
  for a child is the MBB of the child's entries.  Inserting a box below
  it makes that MBB ``min(row, lo)`` / ``max(row, hi)``: ``min``/``max``
  return one of their operands, so the result does not depend on the
  order a reduction would visit the entries in.  ChooseLeaf has already
  computed exactly that enlarged row (and its area) for every child, so
  the chosen one is written back on the way down.  This stays true above
  a split that does not propagate: the two halves still cover the old
  entries plus the new box.  Only the node that split, and its new
  sibling, are re-reduced from their entries.
* **PickNext is one-sided.**  An entry's enlargement of a group changes
  only when that group grows, so each round re-evaluates the group that
  took the last entry; the group's new area is the enlarged area that
  round had computed for the entry it picked.
* The descent is a loop that records ``(node, slot)`` per level; splits
  walk that path back up.

Tie rules (ties decide the tree, and are common — several overlapping
children often need no enlargement at all):

* ChooseLeaf: least enlargement; then least (cached) area; then the
  lowest slot.
* PickSeeds: the first maximum of the pairwise waste matrix in row-major
  order, diagonal excluded (``-inf``).
* PickNext: the first unassigned entry with the largest
  ``|d0 - d1|``; it joins the group it enlarges less, on a tie the group
  with fewer entries, on a further tie group 0.
* Minimum fill: as soon as a group needs every unassigned entry to reach
  ``M // 2`` it takes them all, group 0 checked first.
* Redistribution keeps the entries of each group in their slot order.

Signed zeros are the one limit of "bit for bit": ``-0.0 == 0.0``, so
where one coordinate column holds both, which of the two a ``min``/``max``
returns depends on operand order, and a stored zero may carry the other
sign bit than the reference's — never another value, so every comparison,
every choice above and every search is the same.  Boxes are never negated
or re-derived: each stored coordinate is a copy of an input coordinate.
"""

from __future__ import annotations

import numpy as np

from .rtree import RTreeNode

__all__ = ["GuttmanBuilder"]

_product = np.multiply.reduce


class _Node:
    """Growable node used during insertion; frozen afterwards.

    ``lo``/``hi`` have one spare row so a node can overflow to
    ``fanout + 1`` entries before it is split.  ``area`` caches the
    child areas of an internal node (unused in a leaf).
    """

    __slots__ = ("lo", "hi", "area", "count", "children", "ranges")

    def __init__(self, capacity: int, ndim: int, is_leaf: bool) -> None:
        self.lo = np.empty((capacity + 1, ndim))
        self.hi = np.empty((capacity + 1, ndim))
        self.area = np.empty(capacity + 1)
        self.count = 0
        self.children: list["_Node"] | None = None if is_leaf else []
        self.ranges: list[tuple[int, int]] | None = [] if is_leaf else None

    def add_child(self, child: "_Node") -> None:
        """Append ``child`` under its MBB, reduced from its entries."""
        k = self.count
        self.children.append(child)
        self.count = k + 1
        self.refresh(k)

    def refresh(self, slot: int) -> None:
        """Re-reduce the row (and area) kept for the child in ``slot``."""
        child = self.children[slot]
        lo = self.lo[slot] = child.lo[:child.count].min(axis=0)
        hi = self.hi[slot] = child.hi[:child.count].max(axis=0)
        self.area[slot] = _product(hi - lo)


class GuttmanBuilder:
    """Builds an R-tree by repeated insertion with quadratic splits.

    ``fanout`` is Guttman's ``M`` (max entries/node); minimum fill is
    ``M // 2``.  Entries are leaf-level ``(mbb, row-range)`` pairs — the
    same per-``r``-segment chunks the STR builder uses.
    """

    def __init__(self, fanout: int = 16, ndim: int = 4) -> None:
        if fanout < 4:
            raise ValueError("fanout must be at least 4 for quadratic "
                             "split's minimum-fill invariant")
        self.fanout = fanout
        self.ndim = ndim
        self.min_fill = fanout // 2
        self.root = _Node(fanout, ndim, is_leaf=True)
        self.num_nodes = 1

    # -- public API -----------------------------------------------------------

    def insert(self, lo: np.ndarray, hi: np.ndarray,
               row_range: tuple[int, int]) -> None:
        node = self.root
        path: list[tuple[_Node, int]] = []
        while node.children is not None:
            slot = self._choose_subtree(node, lo, hi)
            path.append((node, slot))
            node = node.children[slot]
        k = node.count
        node.lo[k] = lo
        node.hi[k] = hi
        node.ranges.append(row_range)
        node.count = k + 1

        # Splits propagate up the remembered path; every row above the
        # last split was already tightened on the way down.
        while node.count > self.fanout:
            sibling = self._split(node)
            if not path:
                self.root = _Node(self.fanout, self.ndim, is_leaf=False)
                self.root.add_child(node)
                self.root.add_child(sibling)
                self.num_nodes += 1
                return
            parent, slot = path.pop()
            parent.refresh(slot)
            parent.add_child(sibling)
            node = parent

    def finalize(self) -> RTreeNode:
        """Freeze the mutable tree into the immutable search structure."""
        return self._freeze(self.root)

    # -- insertion ---------------------------------------------------------------

    def _choose_subtree(self, node: _Node, lo: np.ndarray,
                        hi: np.ndarray) -> int:
        """Guttman's ChooseLeaf criterion, vectorized over the children;
        the chosen child's row is enlarged to cover the new box."""
        k = node.count
        area = node.area[:k]
        new_lo = np.minimum(node.lo[:k], lo)
        new_hi = np.maximum(node.hi[:k], hi)
        new_area = _product(new_hi - new_lo, axis=1)
        # At most ``fanout`` values: list scans beat further array calls.
        enlarged = (new_area - area).tolist()
        least = min(enlarged)
        slot = enlarged.index(least)
        if enlarged.count(least) > 1:
            areas = area.tolist()
            slot = min((i for i in range(slot, k) if enlarged[i] == least),
                       key=areas.__getitem__)
        node.lo[slot] = new_lo[slot]
        node.hi[slot] = new_hi[slot]
        node.area[slot] = new_area[slot]
        return slot

    # -- quadratic split -----------------------------------------------------------

    def _split(self, node: _Node) -> _Node:
        """Quadratic split of an overflowing node (count == fanout + 1).

        Mutates ``node`` into group 0 and returns group 1.
        """
        k = node.count
        lo, hi = node.lo, node.hi       # full: capacity is fanout + 1
        is_leaf = node.children is None
        area = _product(hi - lo, axis=1) if is_leaf else node.area

        # PickSeeds: the pair wasting the most area.
        pair_lo = np.minimum(lo[:, None, :], lo[None, :, :])
        pair_hi = np.maximum(hi[:, None, :], hi[None, :, :])
        waste = (_product(pair_hi - pair_lo, axis=2)
                 - area[:, None] - area[None, :])
        waste.flat[::k + 1] = -np.inf
        seeds = divmod(int(waste.argmax()), k)

        taken = np.zeros(k, dtype=bool)
        in_group_1 = np.zeros(k, dtype=bool)
        taken[seeds[0]] = taken[seeds[1]] = in_group_1[seeds[1]] = True
        g_lo = [lo[seeds[0]], lo[seeds[1]]]
        g_hi = [hi[seeds[0]], hi[seeds[1]]]
        g_area = [area[seeds[0]], area[seeds[1]]]
        g_count = [1, 1]
        # Per group, over all k entries: the group's box and area were
        # entry i added, and the enlargement d that would be.
        new_lo = [None, None]
        new_hi = [None, None]
        new_area = [None, None]
        d = [None, None]
        grown = (0, 1)
        unassigned = k - 2

        while unassigned:
            # Minimum-fill guarantee: if one group must absorb the rest.
            if g_count[0] + unassigned == self.min_fill:
                break
            if g_count[1] + unassigned == self.min_fill:
                in_group_1 |= ~taken
                break
            # PickNext: entry with the strongest group preference.
            for g in grown:
                new_lo[g] = np.minimum(g_lo[g], lo)
                new_hi[g] = np.maximum(g_hi[g], hi)
                new_area[g] = _product(new_hi[g] - new_lo[g], axis=1)
                d[g] = new_area[g] - g_area[g]
            pref = np.abs(d[0] - d[1])
            pref[taken] = -1.0
            pick = int(pref.argmax())
            d0, d1 = d[0][pick], d[1][pick]
            g = 0 if d0 < d1 else 1 if d1 < d0 else \
                (0 if g_count[0] <= g_count[1] else 1)
            taken[pick] = True
            if g:
                in_group_1[pick] = True
            g_lo[g] = new_lo[g][pick]
            g_hi[g] = new_hi[g][pick]
            g_area[g] = new_area[g][pick]
            g_count[g] += 1
            grown = (g,)
            unassigned -= 1

        # Rebuild node (group 0) and the new sibling (group 1), each
        # keeping its entries in slot order.
        stay = (~in_group_1).nonzero()[0]
        move = in_group_1.nonzero()[0]
        sibling = _Node(self.fanout, self.ndim, is_leaf)
        for target, rows in ((sibling, move), (node, stay)):
            n = target.count = rows.shape[0]
            target.lo[:n] = lo[rows]
            target.hi[:n] = hi[rows]
            if not is_leaf:
                target.area[:n] = area[rows]
        if is_leaf:
            ranges = node.ranges
            node.ranges = [ranges[i] for i in stay]
            sibling.ranges = [ranges[i] for i in move]
        else:
            children = node.children
            node.children = [children[i] for i in stay]
            sibling.children = [children[i] for i in move]
        self.num_nodes += 1
        return sibling

    # -- freezing ------------------------------------------------------------------

    def _freeze(self, node: _Node) -> RTreeNode:
        k = node.count
        if node.children is None:
            return RTreeNode(
                child_lo=node.lo[:k].copy(), child_hi=node.hi[:k].copy(),
                ranges=np.array(node.ranges, dtype=np.int64).reshape(k, 2))
        return RTreeNode(
            child_lo=node.lo[:k].copy(), child_hi=node.hi[:k].copy(),
            children=[self._freeze(c) for c in node.children])
