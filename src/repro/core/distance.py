"""Continuous distance-threshold refinement for moving-point segments.

This is the paper's ``compare(D[entryID], Q[queryID])`` primitive
(Algorithms 1-3, line "result <- compare(...)").  Each 4-D line segment
describes a point moving at constant velocity during its temporal extent.
For a query segment ``q`` and an entry segment ``l`` the refinement must
return the (possibly empty) time interval during which the two moving
points are within Euclidean distance ``d`` of each other.

Mathematics
-----------
Restrict to the temporal overlap ``[t0, t1]`` of the two segments (empty
overlap => no result).  Within it, both positions are affine in ``t``, so
the displacement vector is affine, ``delta(t) = u + w t``, and the squared
distance is the quadratic

    f(t) = |w|^2 t^2 + 2 (u.w) t + |u|^2.

``f(t) <= d^2`` therefore holds on at most one closed interval, obtained
from the roots of ``f(t) - d^2``.  Intersecting with ``[t0, t1]`` yields
the reported interval.  Degenerate cases:

* ``|w| = 0`` (identical velocities, incl. two stationary points): the
  distance is constant — the answer is all of ``[t0, t1]`` or nothing.
* zero temporal extent (``t_start == t_end``): the segment is a point
  event; the overlap is at most an instant and the closed-interval
  semantics still apply.

Everything is vectorized over an arbitrary batch of (query, entry) pairs;
this one function is the computational kernel that dominates response time
in every engine, exactly as segment comparison dominates in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import cell_of
from .ranges import expand_ranges, range_offsets
from .types import SegmentArray

__all__ = ["compare_pairs", "pair_coefficients", "solve_intervals",
           "magnitude", "surviving_pairs", "surviving_bin_pairs",
           "BinGrid", "PairCoefficients", "PairIntervals"]

# Relative tolerance used when deciding whether the quadratic coefficient
# is numerically zero (parallel motion).  Scaled by the magnitude of the
# velocities involved so the test is unit-free.
_EPS = 1e-30

#: ``tau / S`` of :func:`surviving_pairs`: how far past ``d`` two
#: bounding boxes must be apart, relative to the data's magnitude,
#: before the pair is dropped unsolved.
_REJECT_MARGIN = 1e-6

#: Pairs tested per block of the reject: its few temporaries are 256 KiB
#: each and stay cache-resident whatever the batch size.
_REJECT_BLOCK = 1 << 15

#: Pairs of a batch sampled to put the most selective test first.
_REJECT_SAMPLE = 1 << 10

#: Scheduled pairs per ``searchsorted`` needle above which
#: :meth:`BinGrid.pays`: a needle costs about what reading 2.5 rows
#: costs, and a window's rows are read too.
_GRID_PAIRS_PER_NEEDLE = 16

#: :class:`BinGrid` x and y cell width over the largest segment extent.
_GRID_CELLS_PER_EXTENT = 2.0

#: :class:`BinGrid` cells at most on x and y, and on z: a key stays
#: below ``ranks * 2**32``, ``ranks`` (non-empty bins) under the int32
#: row count.
_GRID_COARSE_CELLS = 1 << 10
_GRID_FINE_CELLS = 1 << 12

@dataclass(frozen=True)
class PairIntervals:
    """Result of refining a batch of (query, entry) candidate pairs.

    ``mask`` flags the pairs whose moving points come within ``d`` during
    their temporal overlap; ``t_lo``/``t_hi`` give the closed interval for
    those pairs (undefined where ``mask`` is False).
    """

    mask: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray

    def __len__(self) -> int:
        return int(self.mask.shape[0])

    @property
    def num_hits(self) -> int:
        return int(np.count_nonzero(self.mask))


def _interp_endpoints(seg: SegmentArray, idx: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Return (p0, v, ts, te) for segments ``idx``: p(t) = p0 + v*(t-ts)."""
    p0 = np.stack([seg.xs[idx], seg.ys[idx], seg.zs[idx]], axis=1)
    p1 = np.stack([seg.xe[idx], seg.ye[idx], seg.ze[idx]], axis=1)
    ts = seg.ts[idx]
    te = seg.te[idx]
    dt = te - ts
    # Zero-extent segments are stationary points: velocity 0.
    v = np.divide(p1 - p0, dt[:, None],
                  out=np.zeros_like(p0), where=dt[:, None] > 0)
    return p0, v, ts, te


@dataclass(frozen=True)
class PairCoefficients:
    """The ``d``-invariant part of refining a batch of candidate pairs.

    For each *alive* pair (non-empty temporal overlap, not excluded) the
    squared distance on the overlap ``[t0, t1]`` is the quadratic
    ``f(t) = a t^2 + b t + c0``; a threshold query only shifts the
    constant term (``f(t) <= d^2  <=>  a t^2 + b t + (c0 - d^2) <= 0``).

    ``alive_idx`` maps the compacted coefficient rows back to positions
    in the original pair batch; every other array is compacted (one slot
    per alive pair).
    """

    num_pairs: int
    alive_idx: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray


def pair_coefficients(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
    *,
    exclude_same_trajectory: bool = False,
) -> PairCoefficients:
    """Compute the ``d``-invariant quadratic coefficients of a pair batch.

    The whole batch is processed in a handful of 1-D vectorized passes
    over the structure-of-arrays segment store: temporal-overlap
    clipping, compaction to the alive pairs, then the component-wise
    quadratic coefficients.  No ``(n, 3)`` temporaries are built.
    """
    q_idx = np.asarray(q_idx, dtype=np.int64)
    e_idx = np.asarray(e_idx, dtype=np.int64)
    if q_idx.shape != e_idx.shape or q_idx.ndim != 1:
        raise ValueError("q_idx and e_idx must be equal-length 1-D arrays")
    n = q_idx.shape[0]

    # Temporal overlap [t0, t1]; closed-interval semantics (touching
    # counts).  Computed full-width: it is what decides aliveness.
    qts = queries.ts[q_idx]
    ets = entries.ts[e_idx]
    t0 = np.maximum(qts, ets)
    t1 = np.minimum(queries.te[q_idx], entries.te[e_idx])
    alive = t0 <= t1
    if exclude_same_trajectory:
        alive &= queries.traj_ids[q_idx] != entries.traj_ids[e_idx]

    # Everything below runs compacted: dead pairs (the overwhelming
    # majority for spatially selective indexes) never touch the FPU.
    live = np.flatnonzero(alive)
    qi = q_idx[live]
    ei = e_idx[live]
    qts = qts[live]
    ets = ets[live]

    qvx, qvy, qvz = queries.velocities()
    evx, evy, evz = entries.velocities()

    # delta(t) = u + w t  with positions expressed as p0 + v*(t - ts).
    # Component-wise, accumulated in (x + z) + y order — the exact
    # floating-point association the previous einsum("ij,ij->i") kernel
    # produced, so results are bit-identical to the historical path.
    qvx = qvx[qi]; qvy = qvy[qi]; qvz = qvz[qi]  # noqa: E702
    evx = evx[ei]; evy = evy[ei]; evz = evz[ei]  # noqa: E702
    wx = evx - qvx
    wy = evy - qvy
    wz = evz - qvz
    ux = (entries.xs[ei] - queries.xs[qi]) - evx * ets + qvx * qts
    uy = (entries.ys[ei] - queries.ys[qi]) - evy * ets + qvy * qts
    uz = (entries.zs[ei] - queries.zs[qi]) - evz * ets + qvz * qts

    a = (wx * wx + wz * wz) + wy * wy
    b = 2.0 * ((ux * wx + uz * wz) + uy * wy)
    c0 = (ux * ux + uz * uz) + uy * uy

    return PairCoefficients(num_pairs=n, alive_idx=live,
                            t0=t0[live], t1=t1[live], a=a, b=b, c0=c0)


def solve_intervals(coef: PairCoefficients, d: float) -> PairIntervals:
    """Solve a coefficient batch at threshold ``d``.

    The ``d``-dependent half of :func:`compare_pairs`: roots of
    ``a t^2 + b t + (c0 - d^2)``, intersected with the temporal overlap.
    """
    if not d >= 0:     # refuses NaN as well as negatives
        raise ValueError("query distance d must be non-negative")
    n = coef.num_pairs
    t_lo = np.empty(n)
    t_hi = np.empty(n)
    mask = np.zeros(n, dtype=bool)
    d2 = d * d

    # Case 1: constant relative distance (a == 0 numerically).
    const = coef.a <= _EPS
    hit = const & (coef.c0 - d2 <= 0.0)
    idx = coef.alive_idx[hit]
    t_lo[idx] = coef.t0[hit]
    t_hi[idx] = coef.t1[hit]
    mask[idx] = True

    # Case 2: genuine quadratic.  f <= 0 between the roots.
    quad = ~const
    if quad.any():
        a = coef.a[quad]
        b = coef.b[quad]
        disc = b * b - 4.0 * a * (coef.c0[quad] - d2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        lo = np.maximum((-b - sq) / (2.0 * a), coef.t0[quad])
        hi = np.minimum((-b + sq) / (2.0 * a), coef.t1[quad])
        hit = (disc >= 0.0) & (lo <= hi)
        idx = coef.alive_idx[quad][hit]
        t_lo[idx] = lo[hit]
        t_hi[idx] = hi[hit]
        mask[idx] = True

    return PairIntervals(mask, t_lo, t_hi)


def compare_pairs(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
    d: float,
    *,
    exclude_same_trajectory: bool = False,
) -> PairIntervals:
    """Refine candidate pairs ``(q_idx[i], e_idx[i])`` at threshold ``d``.

    Parameters
    ----------
    queries, entries:
        The query set ``Q`` and database ``D``.
    q_idx, e_idx:
        Equal-length integer arrays of row indices into ``queries`` and
        ``entries`` — the candidate pairs produced by an index.
    d:
        The query distance threshold (``d >= 0``).
    exclude_same_trajectory:
        When the query set is drawn from the database itself (the paper's
        astrophysics scenario ii), comparisons of a trajectory against its
        own segments are meaningless; this drops pairs whose trajectory ids
        match.

    Returns
    -------
    PairIntervals with one slot per input pair.
    """
    if not d >= 0:     # refuses NaN as well as negatives
        raise ValueError("query distance d must be non-negative")
    coef = pair_coefficients(
        queries, entries, q_idx, e_idx,
        exclude_same_trajectory=exclude_same_trajectory)
    return solve_intervals(coef, d)


def _abs_max(*columns: np.ndarray) -> float:
    """``np.abs(np.stack(columns)).max()`` one column at a time: the max
    of the columns' maxima is the same float, NaN included, and a
    database never has its columns stacked."""
    return float(np.max([np.abs(c).max() for c in columns]))


def magnitude(seg: SegmentArray) -> float:
    """``S`` of :func:`surviving_pairs`, one segment set's share: a bound
    on every term :func:`pair_coefficients` sums for it — coordinates
    *and* ``|v| |t|`` (with timestamps near 1e6 the second dwarfs the
    first) — plus the drift the constant-distance branch ignores."""
    if len(seg) == 0:
        return 0.0
    coord = _abs_max(seg.xs, seg.ys, seg.zs, seg.xe, seg.ye, seg.ze)
    speed = _abs_max(*seg.velocities())
    t = _abs_max(seg.ts, seg.te)
    # a <= _EPS means |w| <= 1e-15 per axis; the branch then treats a
    # distance that drifts by up to |w| |t| as constant.
    return coord + speed * t + 2.0 * _EPS ** 0.5 / _REJECT_MARGIN * t


def surviving_pairs(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
    d: float,
    scale: float,
) -> np.ndarray:
    """Positions (ascending) of the candidate pairs that can hit at all.

    A conservative reject in front of :func:`compare_pairs`: a pair is
    dropped when the segments' closed time intervals are disjoint
    (``ets <= qte and qts <= ete`` fails — exactly the ``t0 <= t1``
    aliveness test, margin 0: time is the fourth axis, with no reach)
    or when, on one spatial axis alone, the entry's extent
    ``[min(s, e), max(s, e)]`` stays further than ``d + tau`` from the
    query's.  Everything else is returned for the exact solve.

    Why no dropped pair can be a hit of the exact *floating-point* path.
    Let ``S = scale = magnitude(queries) + magnitude(entries)``; it
    bounds ``|u|`` and ``|w t|`` per axis for every ``t`` in a pair's
    overlap.  Rounding in ``u`` and ``w`` (velocities included) moves the
    displacement the float path works with by at most ``~25 eps S`` per
    axis, so on the separated axis it still exceeds
    ``d + tau - 25 eps S`` throughout ``[t0, t1]`` and the squared
    distance exceeds ``d^2`` by ``tau^2 = 1e-12 S^2`` (more when
    ``d > 0``).  Against that: the sums forming ``a``, ``b``, ``c0``
    err by ``<= 7 eps (a t^2 + c0) <= 42 eps S^2`` at any such ``t``;
    and a computed root ``r`` satisfies ``|f(r) - d^2| <=
    eps (20 c0 + 12 |c0 - d^2|) <= 96 eps S^2`` wherever it lies
    (``d < S`` whenever a pair can be dropped at all), because the root-position error maps back through ``b^2 <= 4 a c0``
    (Cauchy-Schwarz) — so by convexity the computed ``[r_lo, r_hi]``
    cannot reach into ``[t0, t1]``.  Together ``~140 eps S^2 = 3e-14
    S^2``, a thirtieth of the margin on worst-case constants (typical
    error is a few ``eps S^2``, four orders below).  The
    constant-distance branch (``a <= _EPS``) is covered by the drift
    term of :func:`magnitude`.  ``d = inf`` widens every extent to the
    whole line and only the temporal test remains.

    Pairs are tested in blocks of ``_REJECT_BLOCK``, one axis at a time,
    each test reading only the survivors of the one before.  Which test
    is selective depends on what the index already selected on — grid
    candidates are spatially close but mostly not contemporaneous,
    temporal-bin candidates the reverse — so the tests are ordered by
    how much of a strided sample of the batch each one keeps.  The
    surviving set is the same in any order.
    """
    bounds = _bounds(queries, entries, d, scale)
    n = q_idx.shape[0]
    if n > _REJECT_SAMPLE:
        sample = slice(None, None, n // _REJECT_SAMPLE)
        _order(bounds, q_idx[sample], e_idx[sample])
    return _blocked(bounds, q_idx, e_idx)


def _bounds(queries: SegmentArray, entries: SegmentArray, d: float,
            scale: float) -> list:
    """The reject's four axis tests, time first: per axis the queries'
    extents widened by the reach and the entries' two columns."""
    if not d >= 0:     # a NaN reach would silently drop every pair
        raise ValueError("query distance d must be non-negative")
    reach = d + _REJECT_MARGIN * scale
    return [(np.minimum(qs, qe) - r, np.maximum(qs, qe) + r, es, ee)
            for qs, qe, es, ee, r in (
                (queries.ts, queries.te, entries.ts, entries.te, 0.0),
                (queries.xs, queries.xe, entries.xs, entries.xe, reach),
                (queries.ys, queries.ye, entries.ys, entries.ye, reach),
                (queries.zs, queries.ze, entries.zs, entries.ze, reach))]


@dataclass(frozen=True)
class BinGrid:
    """The reject's sweep structure over one time-sorted, binned base.

    Every row of ``entries``, sorted stably by ``keys``: the rank of its
    temporal bin among the non-empty ones, then the cells of its box's
    low corner ``min(s, e)`` on x, y and z, on a regular grid of
    ``cells`` per axis from ``origin``.  A thread whose candidates are
    the rows of a bin span then finds every row whose box can meet its
    query's widened box in a few ``searchsorted`` windows — one per
    (rank, x cell, y cell), z cells a range — instead of reading the
    whole span: paper §IV-C subdivides bins in space for the same
    reason.  Host only: the device is charged for the schedule, never
    for this.

    A row sits in the cell of its low corner, so a query's window
    reaches ``extent`` (the largest segment extent on that axis) below
    its own low edge, and ``slack`` (``2**-40`` of the coordinates'
    magnitude) further for rounding.  x and y cells are
    ``_GRID_CELLS_PER_EXTENT`` largest extents wide, z cells as fine
    as ``_GRID_FINE_CELLS`` allows: windows cost a probe each, rows
    read inside them a gather and a test each, and on S3-random-dense
    this split reads the fewest of both (measured against 2-D grids
    and other widths).
    """

    entries: SegmentArray
    #: non-empty bins before bin ``j``, ``j = 0 .. num_bins``.
    rank_before: np.ndarray
    origin: np.ndarray
    width: np.ndarray
    extent: np.ndarray
    slack: np.ndarray
    cells: tuple[int, int, int]
    keys: np.ndarray
    #: row of each sorted key (int32).
    order: np.ndarray

    @classmethod
    def build(cls, entries: SegmentArray, row_bins: np.ndarray,
              num_bins: int) -> "BinGrid":
        """The grid over ``entries`` whose row ``i`` lies in temporal
        bin ``row_bins[i]`` (non-decreasing, ``< num_bins``)."""
        rank_before = range_offsets(
            np.bincount(row_bins, minlength=num_bins) > 0)
        origin, maxs = entries.spatial_bounds()
        extent = entries.max_spatial_extent()
        span = maxs - origin
        coarse = np.array([_GRID_COARSE_CELLS, _GRID_COARSE_CELLS,
                           _GRID_FINE_CELLS])
        width = np.maximum(span / coarse, [
            _GRID_CELLS_PER_EXTENT * extent[0],
            _GRID_CELLS_PER_EXTENT * extent[1], 0.0])
        width[width == 0] = 1.0       # one coordinate on the axis
        cells = tuple(int(c) for c in np.minimum(
            np.floor(span / width) + 1, coarse))
        key = rank_before[row_bins]
        for axis, (s, e) in enumerate(_axes(entries)):
            key *= cells[axis]
            key += cell_of(np.minimum(s, e), origin[axis], width[axis],
                           cells[axis])
        order = np.argsort(key, kind="stable")
        key = key[order]
        slack = np.maximum(np.abs(origin), np.abs(maxs)) * 2.0 ** -40
        return cls(entries, rank_before, origin, width, extent, slack,
                   cells, key, order.astype(np.int32))

    def pays(self, queries: SegmentArray, q_rows: np.ndarray,
             bin_lo: np.ndarray, bin_hi: np.ndarray, d: float,
             scale: float, pairs: int) -> bool:
        """Whether these threads' ``pairs`` scheduled pairs exceed
        ``_GRID_PAIRS_PER_NEEDLE`` times the ``searchsorted`` needles
        :func:`surviving_bin_pairs` would make for them, two per window.
        A thread takes a window per rank at least, so short spans are
        told apart by their ranks alone."""
        ranks = self.rank_before[bin_hi + 1] - self.rank_before[bin_lo]
        per_window = 2 * _GRID_PAIRS_PER_NEEDLE
        if per_window * int(np.maximum(ranks, 0).sum()) >= pairs:
            return False
        return per_window * int(self._windows(
            queries, q_rows, bin_lo, bin_hi, d, scale)[0].sum()) < pairs

    def _windows(self, queries, q_rows, bin_lo, bin_hi, d, scale):
        """Per thread: its window count, first rank, windows per rank
        along x and y, and its cell spans.

        Why no row a test would keep falls outside.  The high edge is
        the test's own ``max(s, e) + reach``, and a row it keeps has
        ``min(s, e)`` at most that.  A row it keeps has ``max(s, e) >=
        min(qs, qe) - reach``, so its low corner lies at least the exact
        ``|s - e| <= extent (1 + 2**-53)`` lower, which the rounded
        ``... - extent - slack`` undershoots whenever the query's edge
        is within 4x the coordinates' magnitude (beyond it no row is
        kept on the high side, or every cell is in on the low side).
        ``cell_of`` is non-decreasing, so the rows' cells lie in the
        span.  A span over every z cell (y and z cells) merges a rank's
        windows along y (along x and y).
        """
        reach = d + _REJECT_MARGIN * scale
        rank_lo = self.rank_before[bin_lo]
        ranks = np.maximum(self.rank_before[bin_hi + 1] - rank_lo, 0)
        spans, full = [], []
        for axis, (s, e) in enumerate(_axes(queries)):
            s, e = s[q_rows], e[q_rows]
            # The reject's own bounds, elementwise: the same floats.
            lo = ((np.minimum(s, e) - reach) - self.extent[axis]) \
                - self.slack[axis]
            hi = np.maximum(s, e) + reach
            args = self.origin[axis], self.width[axis], self.cells[axis]
            spans.append((cell_of(lo, *args), cell_of(hi, *args)))
            full.append((spans[-1][0] == 0)
                        & (spans[-1][1] == self.cells[axis] - 1))
        full_z = full[2]
        full_yz = full[1] & full_z
        along_x = np.where(full_yz, 1, spans[0][1] - spans[0][0] + 1)
        along_y = np.where(full_z, 1, spans[1][1] - spans[1][0] + 1)
        return (ranks * along_x * along_y, rank_lo, along_x, along_y,
                full_yz, full_z, spans)


def _axes(seg: SegmentArray):
    """The spatial columns, axis by axis: ``(start, end)``."""
    return ((seg.xs, seg.xe), (seg.ys, seg.ye), (seg.zs, seg.ze))


def surviving_bin_pairs(
    queries: SegmentArray,
    grid: BinGrid,
    q_rows: np.ndarray,
    bin_lo: np.ndarray,
    bin_hi: np.ndarray,
    d: float,
    scale: float,
    *,
    array_sel: np.ndarray | None = None,
    subbin: np.ndarray | None = None,
    subbins: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The survivors of :func:`surviving_pairs` among binned threads,
    found through ``grid`` without reading every scheduled pair.

    Thread ``i`` pairs query row ``q_rows[i]`` with every row of
    ``grid.entries`` in temporal bins ``bin_lo[i] .. bin_hi[i]``
    (empty when ``bin_lo > bin_hi``) — a temporal thread of a
    :class:`~repro.indexes.Schedule`.  Given the index's ``subbins =
    (space_min, subbin_width, num_subbins)``, a thread with
    ``array_sel[i] >= 0`` (a GPUSpatioTemporal subbin thread) has only
    the rows whose extent on axis ``array_sel[i]`` covers subbin
    ``subbin[i]`` for candidates, by the arithmetic of that index's own
    layout.

    Returns ``(thread, row, examined)``: the surviving pairs sorted by
    thread, then row — exactly the pairs :func:`surviving_pairs` keeps
    of the threads' candidates laid out in that order — and how many
    rows the windows made the reject read.
    """
    bounds = _bounds(queries, grid.entries, d, scale)
    (windows, rank_lo, along_x, along_y, full_yz, full_z,
     ((x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi))) = grid._windows(
        queries, q_rows, bin_lo, bin_hi, d, scale)
    # Window w of thread t: rank rank_lo + w // (along_x * along_y),
    # x cell x_lo + (w // along_y) % along_x, y cell y_lo + w % along_y
    # — or all of x_lo .. x_hi / y_lo .. y_hi where they merge.
    t = np.repeat(np.arange(q_rows.shape[0]), windows)
    w = np.arange(t.shape[0]) - np.repeat(range_offsets(windows)[:-1],
                                          windows)
    w, y_first = np.divmod(w, along_y[t])
    w, x_first = np.divmod(w, along_x[t])
    rank = rank_lo[t] + w
    x_first += x_lo[t]
    y_first += y_lo[t]
    x_last = np.where(full_yz[t], x_hi[t], x_first)
    y_last = np.where(full_z[t], y_hi[t], y_first)
    nx, ny, nz = grid.cells
    lo = np.searchsorted(
        grid.keys, ((rank * nx + x_first) * ny + y_first) * nz + z_lo[t])
    found = np.searchsorted(
        grid.keys, ((rank * nx + x_last) * ny + y_last) * nz + z_hi[t],
        side="right") - lo
    rows = grid.order[expand_ranges(lo, found)].astype(np.int64)
    examined = rows.shape[0]
    thread = np.repeat(t, found)
    # The windows hold the threads' bins already, so time goes last; a
    # fixed x, y, z, time order beat the sampled one on dense_batch.
    kept = _blocked(bounds[1:] + bounds[:1], q_rows.take(thread), rows)
    thread, rows = thread[kept], rows[kept]
    if subbins is not None and thread.size:
        member = _subbin_members(grid.entries, rows, array_sel[thread],
                                 subbin[thread], *subbins)
        thread, rows = thread[member], rows[member]
    # (thread, row) is unique: sort it as one integer, by value.
    pair = thread * len(grid.entries) + rows
    pair.sort()
    thread, rows = np.divmod(pair, len(grid.entries))
    return thread, rows, examined


def _subbin_members(entries: SegmentArray, rows: np.ndarray,
                    sel: np.ndarray, subbin: np.ndarray,
                    space_min: np.ndarray, width: np.ndarray,
                    v: int) -> np.ndarray:
    """Which ``rows`` lie in their thread's subbin (``sel < 0``: no
    subbin, every row): the subbins the row's extent on axis ``sel``
    overlaps, by the index layout's ``cell_of`` arithmetic."""
    member = sel < 0
    for axis, (s, e) in enumerate(_axes(entries)):
        at = np.flatnonzero(sel == axis)
        r, j = rows[at], subbin[at]
        s, e = s[r], e[r]
        args = space_min[axis], width[axis], v
        member[at] = (cell_of(np.minimum(s, e), *args) <= j) \
            & (j <= cell_of(np.maximum(s, e), *args))
    return member


def _near(bound, qi: np.ndarray, ei: np.ndarray) -> np.ndarray:
    """Which pairs ``(qi, ei)`` pass one axis test of the reject."""
    q_lo, q_hi, es, ee = bound
    s, e = es.take(ei), ee.take(ei)
    return (np.minimum(s, e) <= q_hi.take(qi)) \
        & (np.maximum(s, e) >= q_lo.take(qi))


def _order(bounds: list, qi: np.ndarray, ei: np.ndarray) -> None:
    """Sort the axis tests, most selective on the sample first."""
    bounds.sort(key=lambda b: np.count_nonzero(_near(b, qi, ei)))


def _blocked(bounds: list, q_idx: np.ndarray,
             e_idx: np.ndarray) -> np.ndarray:
    """Positions (``0 .. n-1``) of the pairs passing every test in
    ``bounds``, ``_REJECT_BLOCK`` pairs at a time."""
    n = q_idx.shape[0]
    kept = [np.zeros(0, dtype=np.int64)]
    for base in range(0, n, _REJECT_BLOCK):
        qi = q_idx[base:base + _REJECT_BLOCK]
        ei = e_idx[base:base + _REJECT_BLOCK]
        pos = np.arange(base, base + ei.shape[0])
        for bound in bounds:
            keep = np.flatnonzero(_near(bound, qi, ei))
            if keep.size < pos.size:
                pos, qi, ei = pos.take(keep), qi.take(keep), ei.take(keep)
                if pos.size == 0:
                    break
        kept.append(pos)
    return np.concatenate(kept)


def distance_at(
    queries: SegmentArray,
    entries: SegmentArray,
    qi: int,
    ei: int,
    t: np.ndarray,
) -> np.ndarray:
    """Exact distance between moving points of pair ``(qi, ei)`` at times
    ``t`` — a slow, obviously-correct helper used by the test suite to
    cross-check :func:`compare_pairs` by dense sampling."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    qp0, qv, qts, _ = _interp_endpoints(queries, np.array([qi]))
    ep0, ev, ets, _ = _interp_endpoints(entries, np.array([ei]))
    for k, tk in enumerate(t):
        pq = qp0[0] + qv[0] * (tk - qts[0])
        pe = ep0[0] + ev[0] * (tk - ets[0])
        out[k] = float(np.linalg.norm(pq - pe))
    return out
