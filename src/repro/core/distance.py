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

from .ranges import expand_ranges, range_offsets
from .types import SegmentArray

__all__ = ["compare_pairs", "pair_coefficients", "solve_intervals",
           "magnitude", "surviving_pairs", "PairCoefficients",
           "PairIntervals"]

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

#: Rows from which a contiguous range takes its first test as a slice.
#: A slice costs ~7 us of calls plus ~4 ns a row, a gathered pair
#: ~11.5 ns; on GPUTemporal's S3-random-dense ranges (2-vCPU Xeon,
#: NumPy 2.4) the two meet near 900 rows, so shorter ranges are cheaper
#: expanded and gathered in blocks.
_REJECT_RANGE_MIN = 1 << 10


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
    *,
    lens: np.ndarray | None = None,
) -> np.ndarray:
    """Positions (ascending) of the candidate pairs that can hit at all.

    A conservative reject in front of :func:`compare_pairs`: a pair is
    dropped when the segments' closed time intervals are disjoint
    (``ets <= qte and qts <= ete`` fails — exactly the ``t0 <= t1``
    aliveness test, margin 0: time is the fourth axis, with no reach)
    or when, on one spatial axis alone, the entry's extent
    ``[min(s, e), max(s, e)]`` stays further than ``d + tau`` from the
    query's.  Everything else is returned for the exact solve.

    With ``lens`` the pairs come as contiguous ranges, two integers per
    thread: thread ``i`` pairs query row ``q_idx[i]`` with entry rows
    ``e_idx[i] .. e_idx[i] + lens[i] - 1`` (GPUTemporal's schedule), and
    positions index the threads' pairs laid end to end — the same
    positions as ``surviving_pairs(queries, entries, np.repeat(q_idx,
    lens), expand_ranges(e_idx, lens), d, scale)``, without building
    either pair-sized array.

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
    surviving set is the same in any order.  A range of at least
    ``_REJECT_RANGE_MIN`` rows takes the first test on its contiguous
    slice of the entry columns — no index array, no gather — and only
    that test's survivors are gathered for the other three; shorter
    ranges are expanded and take the blocked path.
    """
    if not d >= 0:     # a NaN reach would silently drop every pair
        raise ValueError("query distance d must be non-negative")
    reach = d + _REJECT_MARGIN * scale
    bounds = [(np.minimum(qs, qe) - r, np.maximum(qs, qe) + r, es, ee)
              for qs, qe, es, ee, r in (
                  (queries.ts, queries.te, entries.ts, entries.te, 0.0),
                  (queries.xs, queries.xe, entries.xs, entries.xe, reach),
                  (queries.ys, queries.ye, entries.ys, entries.ye, reach),
                  (queries.zs, queries.ze, entries.zs, entries.ze, reach))]
    if lens is not None:
        long = lens >= _REJECT_RANGE_MIN
        if not long.any():
            # Short ranges only: expanded, they are the pair form.
            q_idx = np.repeat(q_idx, lens)
            e_idx = expand_ranges(e_idx, lens)
            lens = None
    if lens is None:
        n = q_idx.shape[0]
        if n > _REJECT_SAMPLE:
            sample = slice(None, None, n // _REJECT_SAMPLE)
            _order(bounds, q_idx[sample], e_idx[sample])
        return _blocked(bounds, q_idx, e_idx)

    start = range_offsets(lens)
    n = int(start[-1])
    if n > _REJECT_SAMPLE:
        # The same strided sample of the same pairs as the flat form.
        sample = np.arange(0, n, n // _REJECT_SAMPLE)
        t = np.searchsorted(start, sample, side="right") - 1
        _order(bounds, q_idx[t], e_idx[t] + (sample - start[t]))
    # Short ranges: expanded and blocked, at their own positions.
    short = np.flatnonzero(~long)
    kept = [_blocked(bounds, np.repeat(q_idx[short], lens[short]),
                     expand_ranges(e_idx[short], lens[short]),
                     expand_ranges(start[short], lens[short]))]
    # Long ranges: the first test on each slice, then the other three
    # on its survivors, gathered about a block at a time.
    for pos in _slice_hits(bounds[0], q_idx, e_idx, start,
                           np.flatnonzero(long)):
        t = np.searchsorted(start, pos, side="right") - 1
        kept.append(_blocked(bounds[1:], q_idx[t],
                             e_idx[t] + (pos - start[t]), pos))
    return np.sort(np.concatenate(kept))


def _slice_hits(bound, q_idx: np.ndarray, e_idx: np.ndarray,
                start: np.ndarray, threads: np.ndarray):
    """Positions passing one axis test, tested on each of ``threads``'
    contiguous entry rows ``e_idx[t] ..`` as a slice; yielded in runs
    of at least ``_REJECT_BLOCK`` (the last may be short)."""
    q_lo, q_hi, es, ee = bound
    run, size = [], 0
    for t in threads:
        q, lo = q_idx[t], e_idx[t]
        hi = lo + (start[t + 1] - start[t])
        s, e = es[lo:hi], ee[lo:hi]
        hit = np.flatnonzero((np.minimum(s, e) <= q_hi[q])
                             & (np.maximum(s, e) >= q_lo[q]))
        run.append(hit + start[t])
        size += hit.shape[0]
        if size >= _REJECT_BLOCK:
            yield np.concatenate(run)
            run, size = [], 0
    if run:
        yield np.concatenate(run)


def _near(bound, qi: np.ndarray, ei: np.ndarray) -> np.ndarray:
    """Which pairs ``(qi, ei)`` pass one axis test of the reject."""
    q_lo, q_hi, es, ee = bound
    s, e = es.take(ei), ee.take(ei)
    return (np.minimum(s, e) <= q_hi.take(qi)) \
        & (np.maximum(s, e) >= q_lo.take(qi))


def _order(bounds: list, qi: np.ndarray, ei: np.ndarray) -> None:
    """Sort the axis tests, most selective on the sample first."""
    bounds.sort(key=lambda b: np.count_nonzero(_near(b, qi, ei)))


def _blocked(bounds: list, q_idx: np.ndarray, e_idx: np.ndarray,
             positions: np.ndarray | None = None) -> np.ndarray:
    """``positions`` (default ``0 .. n-1``) of the pairs passing every
    test in ``bounds``, ``_REJECT_BLOCK`` pairs at a time."""
    n = q_idx.shape[0]
    kept = [np.zeros(0, dtype=np.int64)]
    for base in range(0, n, _REJECT_BLOCK):
        qi = q_idx[base:base + _REJECT_BLOCK]
        ei = e_idx[base:base + _REJECT_BLOCK]
        pos = np.arange(base, base + ei.shape[0]) if positions is None \
            else positions[base:base + _REJECT_BLOCK]
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
