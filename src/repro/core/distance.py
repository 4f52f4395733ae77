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

from .types import SegmentArray

__all__ = ["compare_pairs", "pair_coefficients", "solve_intervals",
           "PairCoefficients", "PairIntervals"]

# Relative tolerance used when deciding whether the quadratic coefficient
# is numerically zero (parallel motion).  Scaled by the magnitude of the
# velocities involved so the test is unit-free.
_EPS = 1e-30


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
    Engines whose candidate schedule does not depend on ``d`` (the
    temporal scheme's signature property) therefore compute these
    coefficients once per query set and re-solve per threshold.

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

    def __len__(self) -> int:
        return self.num_pairs

    @property
    def num_alive(self) -> int:
        return int(self.alive_idx.shape[0])

    def nbytes(self) -> int:
        """Host memory held by the cached coefficient arrays."""
        return int(self.alive_idx.nbytes + self.t0.nbytes
                   + self.t1.nbytes + self.a.nbytes + self.b.nbytes
                   + self.c0.nbytes)

    def alive_map(self) -> np.ndarray:
        """Pair position -> row in the compacted arrays (-1 when the
        pair was culled at build time), memoized."""
        cached = getattr(self, "_alive_map", None)
        if cached is None:
            cached = np.full(self.num_pairs, -1, dtype=np.int64)
            cached[self.alive_idx] = np.arange(self.alive_idx.shape[0],
                                               dtype=np.int64)
            object.__setattr__(self, "_alive_map", cached)
        return cached

    def take(self, positions: np.ndarray) -> "PairCoefficients":
        """Coefficients of an arbitrary (possibly unsorted) selection
        of this batch's pair positions, as a standalone batch.

        A redo invocation's pairs are a subset of the first
        invocation's, so its coefficients are a gather of the cached
        ones — recomputing the quadratic from the segment store would
        produce bit-for-bit the same values, just slower.  ``positions``
        need not be sorted: the spatiotemporal scheme's per-``d`` pair
        set visits the cached superset in schedule order.
        """
        src_all = self.alive_map()[positions]
        keep = np.flatnonzero(src_all >= 0)
        src = src_all[keep]
        return PairCoefficients(
            num_pairs=int(positions.shape[0]), alive_idx=keep,
            t0=self.t0[src], t1=self.t1[src], a=self.a[src],
            b=self.b[src], c0=self.c0[src])

    def partition(self) -> "_SolvePartition":
        """The ``d``-invariant part of root solving, memoized.

        Splitting alive pairs into the constant-distance and genuine
        quadratic cases — and pre-gathering the per-case operands — does
        not depend on the threshold, so a cached coefficient set being
        re-solved across a ``d``-sweep pays for it once.  Every derived
        array holds exactly the intermediate values
        :func:`solve_intervals` historically computed, so solving from
        the partition is bit-identical.
        """
        cached = getattr(self, "_partition", None)
        if cached is None:
            const = self.a <= _EPS
            quad = ~const
            bq = self.b[quad]
            aq = self.a[quad]
            cached = _SolvePartition(
                const_alive=self.alive_idx[const],
                c0_const=self.c0[const],
                t0_const=self.t0[const],
                t1_const=self.t1[const],
                quad_alive=self.alive_idx[quad],
                bb=bq * bq,
                foura=4.0 * aq,
                negb=-bq,
                twoa=2.0 * aq,
                c0q=self.c0[quad],
                t0q=self.t0[quad],
                t1q=self.t1[quad],
            )
            object.__setattr__(self, "_partition", cached)
        return cached


@dataclass(frozen=True)
class _SolvePartition:
    """Pre-gathered operands for per-threshold root solving."""

    const_alive: np.ndarray
    c0_const: np.ndarray
    t0_const: np.ndarray
    t1_const: np.ndarray
    quad_alive: np.ndarray
    bb: np.ndarray
    foura: np.ndarray
    negb: np.ndarray
    twoa: np.ndarray
    c0q: np.ndarray
    t0q: np.ndarray
    t1q: np.ndarray


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
    if d < 0:
        raise ValueError("query distance d must be non-negative")
    n = coef.num_pairs
    t_lo = np.empty(n)
    t_hi = np.empty(n)
    mask = np.zeros(n, dtype=bool)
    d2 = d * d
    p = coef.partition()

    # Case 1: constant relative distance (a == 0 numerically).
    hit_const = p.c0_const - d2 <= 0.0
    idx = p.const_alive[hit_const]
    t_lo[idx] = p.t0_const[hit_const]
    t_hi[idx] = p.t1_const[hit_const]
    mask[idx] = True

    # Case 2: genuine quadratic.  f <= 0 between the roots.
    if p.quad_alive.size:
        cq = p.c0q - d2
        disc = p.bb - p.foura * cq
        has_roots = disc >= 0.0
        sq = np.sqrt(np.maximum(disc, 0.0))
        r_lo = (p.negb - sq) / p.twoa
        r_hi = (p.negb + sq) / p.twoa
        lo = np.maximum(r_lo, p.t0q)
        hi = np.minimum(r_hi, p.t1q)
        hit = has_roots & (lo <= hi)
        quad_idx = p.quad_alive[hit]
        t_lo[quad_idx] = lo[hit]
        t_hi[quad_idx] = hi[hit]
        mask[quad_idx] = True

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
    if d < 0:
        raise ValueError("query distance d must be non-negative")
    coef = pair_coefficients(
        queries, entries, q_idx, e_idx,
        exclude_same_trajectory=exclude_same_trajectory)
    return solve_intervals(coef, d)


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
