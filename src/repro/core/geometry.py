"""Minimum bounding boxes and related spatial predicates.

The indexing schemes of the paper all reason about segments through their
spatial Minimum Bounding Boxes (MBBs, §IV-A.1): GPUSpatial rasterizes entry
MBBs onto the flat grid, GPUSpatioTemporal assigns segments to spatial
subbins by per-dimension MBB overlap, and CPU-RTree stores ``r`` consecutive
segments per (4-D) MBB.

All routines are vectorized over ``n`` boxes at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SegmentArray

__all__ = [
    "MBB",
    "segment_mbbs",
    "expand",
    "overlaps",
    "point_segment_distance",
    "mbb_min_distance",
]


@dataclass(frozen=True)
class MBB:
    """A batch of axis-aligned boxes: ``lo``/``hi`` are ``(n, k)`` arrays.

    ``k`` is 3 for spatial boxes and 4 for spatiotemporal boxes (the R-tree
    uses 4-D MBBs with time as the fourth axis).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_2d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape:
            raise ValueError("lo/hi shape mismatch")
        if np.any(hi < lo):
            raise ValueError("MBB requires hi >= lo in every dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    @property
    def ndim(self) -> int:
        return int(self.lo.shape[1])

    def union(self) -> "MBB":
        """The single box covering the whole batch."""
        return MBB(self.lo.min(axis=0, keepdims=True),
                   self.hi.max(axis=0, keepdims=True))

    def volume(self) -> np.ndarray:
        return np.prod(self.hi - self.lo, axis=1)

    def centers(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def take(self, idx: np.ndarray) -> "MBB":
        return MBB(self.lo[idx], self.hi[idx])


def segment_mbbs(segments: SegmentArray, *, temporal: bool = False) -> MBB:
    """Per-segment MBBs: spatial (3-D) or spatiotemporal (4-D).

    A segment's spatial MBB is the box spanned by its two endpoints; a
    moving point on the segment never leaves it because motion is linear.
    """
    shape = (len(segments), 4 if temporal else 3)
    lo, hi = np.empty(shape), np.empty(shape)
    # filled column by column from the 1-D arrays: no (n, 3) stacks
    for d, (start, end) in enumerate(((segments.xs, segments.xe),
                                      (segments.ys, segments.ye),
                                      (segments.zs, segments.ze))):
        np.minimum(start, end, out=lo[:, d])
        np.maximum(start, end, out=hi[:, d])
    if temporal:
        lo[:, 3] = segments.ts
        hi[:, 3] = segments.te
    return MBB(lo, hi)


def expand(boxes: MBB, margin: float, *, spatial_only: bool = True) -> MBB:
    """Grow boxes by ``margin`` on every side.

    Distance-threshold search requires the *query* MBB to be enlarged by the
    query distance ``d`` before probing any spatial index; otherwise entries
    within distance ``d`` but outside the raw MBB would be missed.  For 4-D
    boxes, ``spatial_only=True`` leaves the temporal axis untouched (time is
    never blurred by ``d``).
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    delta = np.full(boxes.ndim, float(margin))
    if spatial_only and boxes.ndim > 3:
        delta[3:] = 0.0
    return MBB(boxes.lo - delta, boxes.hi + delta)


def overlaps(a: MBB, b: MBB) -> np.ndarray:
    """Pairwise overlap test between two equal-length batches.

    Returns a boolean array of length ``n``; boxes touching at a face count
    as overlapping (closed boxes), matching the inclusive interval
    semantics of the search.
    """
    if len(a) != len(b):
        raise ValueError("batch length mismatch")
    return np.all((a.lo <= b.hi) & (b.lo <= a.hi), axis=1)


def overlaps_one_to_many(one: MBB, many: MBB) -> np.ndarray:
    """Overlap of a single box against a batch (broadcast form)."""
    if len(one) != 1:
        raise ValueError("first argument must contain exactly one box")
    return np.all((one.lo <= many.hi) & (many.lo <= one.hi), axis=1)


def point_segment_distance(p: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> np.ndarray:
    """Euclidean distance from points ``p`` to *static* segments ``ab``.

    All arguments are ``(n, 3)``.  Used by tests as an independent check of
    purely-spatial proximity (the search itself uses the continuous
    moving-point solver in :mod:`repro.core.distance`).
    """
    ab = b - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    tpar = np.divide(np.einsum("ij,ij->i", ap, ab), denom,
                     out=np.zeros_like(denom), where=denom > 0)
    tpar = np.clip(tpar, 0.0, 1.0)
    closest = a + tpar[:, None] * ab
    return np.linalg.norm(p - closest, axis=1)


def mbb_min_distance(a: MBB, b: MBB) -> np.ndarray:
    """Pairwise minimum distance between boxes (0 when overlapping).

    Spatial dimensions only — for 4-D boxes the caller must first check
    temporal overlap separately.
    """
    if len(a) != len(b):
        raise ValueError("batch length mismatch")
    k = min(a.ndim, 3)
    gap = np.maximum.reduce([
        a.lo[:, :k] - b.hi[:, :k],
        b.lo[:, :k] - a.hi[:, :k],
        np.zeros((len(a), k)),
    ])
    return np.linalg.norm(gap, axis=1)
