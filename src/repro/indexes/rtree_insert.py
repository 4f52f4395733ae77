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

:meth:`GuttmanBuilder.build` inserts the chunks in the order it is given
and freezes the node graph with :func:`~repro.indexes.rtree.flatten` into
the same per-level arrays the STR build produces, so both construction
methods share the search and the node-visit accounting.

A service rebuilds this tree at every compaction, so the builder must be
fast — and must freeze to the *same tree, bit for bit* as the
straightforward NumPy formulation kept in
``tests/oracles/guttman_reference.py`` (node visits are what the CPU cost
model charges).  A node holds at most ``M + 1`` boxes, and a NumPy call
on so few rows costs more in dispatch than in arithmetic, so ChooseLeaf
and PickNext run on Python floats.  Why that is exact:

* **The same IEEE operations.**  A Python float is an IEEE double, and
  ``-``, ``*``, ``<=`` and ``abs`` on two of them round exactly as the
  float64 ufuncs do.  Every ``min`` is written ``a if a <= b else b``
  and every ``max`` ``a if a >= b else b``, with the node's (or group's)
  operand first, the operand order of the reference's
  ``np.minimum(node_box, box)``; either way the result is one of the two
  operands, so it carries no rounding.
* **The same product.**  Boxes are padded to four axes with the interval
  ``[0, 1]``, so every area is ``((w0 * w1) * w2) * w3``: the
  left-to-right order ``np.multiply.reduce`` (all that ``np.prod`` calls)
  uses on a row, and the pad's factor ``1.0`` is exact.  The area an
  internal node caches beside each child box is computed this way, so a
  cached area equals a recomputed one.
* **The same values in the nodes.**  A child's box is the min/max of its
  entries.  Inserting below it makes that ``min(box, lo)`` /
  ``max(box, hi)`` — the row ChooseLeaf already computed on the way
  down, which is written back.  A split gives each half the box its
  group accumulated in PickNext (plus the entries minimum fill hands
  it): again the min/max of the half's entries, whatever the order of
  the folds.
* **PickNext is one-sided.**  An entry's enlargement of a group changes
  only when that group grows, so each round re-evaluates the group that
  took the last entry, and finds the next pick in the same pass.

Leaves hold chunk indices into the caller's ``(chunks, ndim)`` box
arrays, not boxes (a tuple of floats per chunk raised the build's traced
peak to ~12.9x those arrays): a leaf split reads its rows with one fancy
index, PickSeeds (``(M + 1)**2`` ordered pairs) stays a NumPy expression
over them, and the freeze gathers the whole leaf level with one index
(~5.8x; copying each leaf's rows first read ~7.6x).  An internal node
keeps one 9-tuple per child: the four lows, the four highs, the cached
area.

Tie rules (ties decide the tree, and are common — several overlapping
children often need no enlargement at all):

* ChooseLeaf: least enlargement; then least (cached) area; then the
  lowest slot.
* PickSeeds: the first maximum of the waste ``(P_ij - a_i) - a_j`` in
  row-major order, diagonal excluded (``-inf``).  Floating point does not
  make that value symmetric, so both orders of every pair are kept.
* PickNext: the first unassigned entry with the largest
  ``|d0 - d1|``; it joins the group it enlarges less, on a tie the group
  with fewer entries, on a further tie group 0.
* Minimum fill: as soon as a group needs every unassigned entry to reach
  ``M // 2`` it takes them all, group 0 checked first.
* Redistribution keeps the entries of each group in their slot order.

Signed zeros are the one limit of "bit for bit": ``-0.0 == 0.0``, so
where one coordinate column holds both, which of the two a min/max
returns depends on operand order, and a stored zero may carry the other
sign bit than the reference's — never another value, so every comparison,
every choice above and every search is the same.  Boxes are never negated
or re-derived: each stored coordinate is a copy of an input coordinate.
"""

from __future__ import annotations

import numpy as np

from .rtree import RTreeLevel, flatten

__all__ = ["GuttmanBuilder"]

_product = np.multiply.reduce
#: Chunks whose boxes are converted to Python floats at a time.
_BLOCK = 1024


class _Node:
    """Growable node used during insertion; frozen afterwards.

    A leaf keeps ``rows``, the chunk indices of its entries.  An internal
    node keeps ``children`` and, per child, an entry: a 9-tuple of the
    child's box (four lows, four highs) and its cached area.
    """

    __slots__ = ("rows", "entries", "children")

    def __init__(self, rows: list[int] | None = None) -> None:
        self.rows = rows
        if rows is None:
            self.entries: list[tuple] = []
            self.children: list[_Node] = []


def _pick_seeds(lo: np.ndarray, hi: np.ndarray, area: np.ndarray
                ) -> tuple[int, int]:
    """PickSeeds: the ordered pair whose joint box wastes the most area."""
    k = lo.shape[0]
    pair_lo = np.minimum(lo[:, None, :], lo[None, :, :])
    pair_hi = np.maximum(hi[:, None, :], hi[None, :, :])
    waste = (_product(pair_hi - pair_lo, axis=2)
             - area[:, None] - area[None, :])
    waste.flat[::k + 1] = -np.inf
    return divmod(int(waste.argmax()), k)


def _cover(entry, entries: list, slots) -> tuple:
    """``entry`` grown over ``entries[i]`` for ``i`` in ``slots``, its
    own operand first, with the grown box's area."""
    a0, a1, a2, a3, b0, b1, b2, b3, _ = entry
    for i in slots:
        x0, x1, x2, x3, y0, y1, y2, y3, _ = entries[i]
        a0 = a0 if a0 <= x0 else x0
        a1 = a1 if a1 <= x1 else x1
        a2 = a2 if a2 <= x2 else x2
        a3 = a3 if a3 <= x3 else x3
        b0 = b0 if b0 >= y0 else y0
        b1 = b1 if b1 >= y1 else y1
        b2 = b2 if b2 >= y2 else y2
        b3 = b3 if b3 >= y3 else y3
    return (a0, a1, a2, a3, b0, b1, b2, b3,
            (((b0 - a0) * (b1 - a1)) * (b2 - a2)) * (b3 - a3))


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

    def build(self, lo: np.ndarray, hi: np.ndarray, ranges: np.ndarray,
              order: np.ndarray) -> tuple[RTreeLevel, ...]:
        """Insert chunk ``order[0]``, then ``order[1]``, ...; freeze.

        ``lo``/``hi`` are the ``(chunks, ndim)`` chunk boxes (``ndim`` at
        most 4), ``ranges`` the ``(chunks, 2)`` inclusive row ranges the
        leaf level carries.  Returns the per-level arrays of the search.
        """
        ndim = lo.shape[1]
        if not 1 <= ndim <= 4:
            raise ValueError("the builder indexes 1 to 4 axes")
        self._lo, self._hi, self._ranges = lo, hi, ranges
        self._pad = (np.zeros((self.fanout + 1, 4 - ndim)),
                     np.ones((self.fanout + 1, 4 - ndim)))
        self.root = _Node(rows=[])
        for first in range(0, order.shape[0], _BLOCK):
            block = order[first:first + _BLOCK]
            boxes = np.concatenate(
                (lo[block], np.zeros((block.shape[0], 4 - ndim)),
                 hi[block], np.ones((block.shape[0], 4 - ndim))), axis=1)
            for chunk, box in zip(block.tolist(), boxes.tolist()):
                self._insert(chunk, box)
        return flatten(self.root, lambda node: node.rows is not None,
                       self._level)

    # -- insertion ---------------------------------------------------------------

    def _insert(self, chunk: int, box: list[float]) -> None:
        x0, x1, x2, x3, y0, y1, y2, y3 = box
        node = self.root
        path: list[tuple[_Node, int]] = []
        while node.rows is None:
            # ChooseLeaf, over at most ``fanout`` children.
            least = least_area = grown = np.inf
            slot = i = 0
            for a0, a1, a2, a3, b0, b1, b2, b3, area in node.entries:
                new_area = (((
                    ((b0 if b0 >= y0 else y0) - (a0 if a0 <= x0 else x0))
                    * ((b1 if b1 >= y1 else y1) - (a1 if a1 <= x1 else x1)))
                    * ((b2 if b2 >= y2 else y2) - (a2 if a2 <= x2 else x2)))
                    * ((b3 if b3 >= y3 else y3) - (a3 if a3 <= x3 else x3)))
                enlarged = new_area - area
                if enlarged < least or (enlarged == least
                                        and area < least_area):
                    least, least_area, grown, slot = (enlarged, area,
                                                      new_area, i)
                i += 1
            # The chosen child's entry now covers the new box.
            a0, a1, a2, a3, b0, b1, b2, b3, _ = node.entries[slot]
            node.entries[slot] = (
                a0 if a0 <= x0 else x0, a1 if a1 <= x1 else x1,
                a2 if a2 <= x2 else x2, a3 if a3 <= x3 else x3,
                b0 if b0 >= y0 else y0, b1 if b1 >= y1 else y1,
                b2 if b2 >= y2 else y2, b3 if b3 >= y3 else y3, grown)
            path.append((node, slot))
            node = node.children[slot]
        node.rows.append(chunk)
        if len(node.rows) <= self.fanout:
            return

        # Splits propagate up the remembered path; every entry above the
        # last split was already enlarged on the way down.
        while True:
            entry, sibling, sibling_entry = self._split(node)
            if not path:
                self.root = _Node()
                self.root.entries = [entry, sibling_entry]
                self.root.children = [node, sibling]
                return
            parent, slot = path.pop()
            parent.entries[slot] = entry
            parent.entries.append(sibling_entry)
            parent.children.append(sibling)
            if len(parent.children) <= self.fanout:
                return
            node = parent

    # -- quadratic split -----------------------------------------------------------

    def _split(self, node: _Node):
        """Quadratic split of an overflowing node (``fanout + 1`` entries).

        Mutates ``node`` into group 0 and returns ``(entry of node,
        sibling, entry of sibling)``, the sibling holding group 1.
        """
        if node.rows is not None:
            rows = node.rows
            lo, hi = self._lo[rows], self._hi[rows]
            area = _product(hi - lo, axis=1)
            seeds = _pick_seeds(lo, hi, area)
            zeros, ones = self._pad
            entries = np.concatenate((lo, zeros, hi, ones, area[:, None]),
                                     axis=1).tolist()
            stay, move, entry0, entry1 = self._distribute(entries, seeds)
            node.rows = [rows[i] for i in stay]
            sibling = _Node(rows=[rows[i] for i in move])
        else:
            entries = node.entries
            both = np.array(entries)
            seeds = _pick_seeds(both[:, :4], both[:, 4:8], both[:, 8])
            stay, move, entry0, entry1 = self._distribute(entries, seeds)
            sibling = _Node()
            children = node.children
            node.entries = [entries[i] for i in stay]
            node.children = [children[i] for i in stay]
            sibling.entries = [entries[i] for i in move]
            sibling.children = [children[i] for i in move]
        return entry0, sibling, entry1

    def _distribute(self, entries: list, seeds: tuple[int, int]):
        """PickNext from the two seeds: ``(stay, move, entry0, entry1)``,
        each group's slots in slot order and its entry."""
        k = len(entries)
        s0, s1 = seeds
        rest = [i for i in range(k) if i != s0 and i != s1]
        in_group_1 = [False] * k
        in_group_1[s1] = True
        group = [tuple(entries[s0]), tuple(entries[s1])]
        count = [1, 1]
        # Per group and entry: the enlargement were the entry added.
        enlarged = [[0.0] * k, [0.0] * k]
        min_fill = self.min_fill
        _enlargements(group[0], entries, rest, enlarged[0], enlarged[1])
        pick = _enlargements(group[1], entries, rest, enlarged[1],
                             enlarged[0])

        while rest:
            # Minimum-fill guarantee: if one group must absorb the rest.
            if count[0] + len(rest) == min_fill:
                group[0] = _cover(group[0], entries, rest)
                break
            if count[1] + len(rest) == min_fill:
                group[1] = _cover(group[1], entries, rest)
                for i in rest:
                    in_group_1[i] = True
                break
            # PickNext: ``pick`` is the entry with the strongest group
            # preference, found by the last pass.
            rest.remove(pick)
            d0, d1 = enlarged[0][pick], enlarged[1][pick]
            g = 0 if d0 < d1 else 1 if d1 < d0 else \
                (0 if count[0] <= count[1] else 1)
            if g:
                in_group_1[pick] = True
            group[g] = _cover(group[g], entries, (pick,))
            count[g] += 1
            pick = _enlargements(group[g], entries, rest, enlarged[g],
                                 enlarged[1 - g])

        stay = [i for i in range(k) if not in_group_1[i]]
        move = [i for i in range(k) if in_group_1[i]]
        return stay, move, group[0], group[1]

    # -- freezing ------------------------------------------------------------------

    def _level(self, nodes: list[_Node], leaf: bool):
        """One depth in the form :func:`flatten` freezes, in the
        caller's ``ndim``: a leaf level is one gather over its leaves'
        chunk indices, an internal level its nodes' cached entries."""
        if leaf:
            rows = np.array([r for node in nodes for r in node.rows])
            return ([len(node.rows) for node in nodes],
                    self._lo.T.take(rows, axis=1),
                    self._hi.T.take(rows, axis=1), None,
                    self._ranges[rows])
        ndim = self._lo.shape[1]
        both = np.array([e for node in nodes for e in node.entries]).T
        return ([len(node.entries) for node in nodes], both[:ndim],
                both[4:4 + ndim],
                [c for node in nodes for c in node.children], None)


def _enlargements(group, entries: list, rest, enlarged: list[float],
                  other: list[float]) -> int:
    """Fill ``enlarged[i]``, the growth of ``group``'s area were entry
    ``i`` added, for ``i`` in ``rest``; return the first of them with the
    largest ``|enlarged[i] - other[i]|`` (-1 when ``rest`` is empty)."""
    a0, a1, a2, a3, b0, b1, b2, b3, area = group
    best = -1.0
    pick = -1
    for i in rest:
        x0, x1, x2, x3, y0, y1, y2, y3, _ = entries[i]
        d = enlarged[i] = (((
            ((b0 if b0 >= y0 else y0) - (a0 if a0 <= x0 else x0))
            * ((b1 if b1 >= y1 else y1) - (a1 if a1 <= x1 else x1)))
            * ((b2 if b2 >= y2 else y2) - (a2 if a2 <= x2 else x2)))
            * ((b3 if b3 >= y3 else y3) - (a3 if a3 <= x3 else x3))) - area
        # ``o - d`` is exactly ``-(d - o)``: the magnitude ``abs`` takes.
        o = other[i]
        preference = d - o if d >= o else o - d
        if preference > best:
            best = preference
            pick = i
    return pick
