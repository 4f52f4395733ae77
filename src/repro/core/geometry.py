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
    "cell_of",
    "segment_mbbs",
    "expand",
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


def cell_of(values: np.ndarray, lo_edge: float, width: float,
            cells: int) -> np.ndarray:
    """Cell of each value on the regular grid of ``cells`` cells of
    ``width`` from ``lo_edge``; values outside fall in the end cells.
    Non-decreasing in ``values``, rounding included — the property
    every caller's completeness rests on."""
    return np.clip(np.floor((values - lo_edge) / width), 0,
                   cells - 1).astype(np.int64)
