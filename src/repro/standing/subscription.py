"""Standing subscriptions: continuous distance-threshold queries.

A :class:`Subscription` is a distance-threshold search a client wants
answered *continuously*: the query segments, the threshold ``d``, an
optional temporal window, and the self-join flag — the same knobs as a
one-shot :class:`~repro.service.SearchRequest`, minus everything that
only makes sense per submission (engine choice, deadline, sharding).

The delta-aware machinery in :mod:`repro.standing.manager` decides per
append epoch which subscriptions *could* have changed.  That decision
rides on the :class:`CandidateEnvelope`: the spatial bounding box of the
query segments expanded by ``d``, intersected with the subscription's
temporal extent.  The envelope is a sound over-approximation — a
database segment whose bounding box misses the envelope cannot be
within ``d`` of any query segment at any shared instant, so an append
epoch whose delta misses every envelope provably changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import ResultSet
from ..core.types import SegmentArray

__all__ = ["CandidateEnvelope", "Subscription"]


@dataclass(frozen=True)
class CandidateEnvelope:
    """The region of (space × time) that can affect one subscription.

    ``mins``/``maxs`` bound the query segments' endpoints expanded by
    ``d`` per axis (Chebyshev box: Euclidean distance ≤ d implies
    per-axis distance ≤ d, so the box is a superset of the reachable
    region).  ``t_lo``/``t_hi`` bound the query temporal extent
    intersected with the subscription window — a result interval can
    only live where a query segment exists *and* the window admits it.
    """

    mins: tuple[float, float, float]
    maxs: tuple[float, float, float]
    t_lo: float
    t_hi: float

    @property
    def empty(self) -> bool:
        """True when the window and the query extent do not overlap —
        the subscription can never match anything."""
        return self.t_lo > self.t_hi

    def intersects(self, segments: SegmentArray) -> bool:
        """Could *any* of ``segments`` produce a result item for this
        subscription?  Vectorized box-overlap test; False is a proof
        of non-interference, True only a possibility."""
        if self.empty or len(segments) == 0:
            return False
        ok = (segments.ts <= self.t_hi) & (segments.te >= self.t_lo)
        if not ok.any():
            return False
        for lo, hi, axis_min, axis_max in (
                (segments.xs, segments.xe, self.mins[0], self.maxs[0]),
                (segments.ys, segments.ye, self.mins[1], self.maxs[1]),
                (segments.zs, segments.ze, self.mins[2], self.maxs[2])):
            ok &= (np.minimum(lo, hi) <= axis_max) \
                & (np.maximum(lo, hi) >= axis_min)
            if not ok.any():
                return False
        return True


@dataclass(frozen=True)
class Subscription:
    """One registered continuous query.

    Parameters
    ----------
    sub_id:
        Client-chosen identifier, unique per service.
    queries:
        The query segments, as in :class:`~repro.service.SearchRequest`.
    d:
        Distance threshold.
    window:
        Optional ``(t_lo, t_hi)`` temporal window: only result
        intervals intersecting it are reported, clipped to it.
    exclude_same_trajectory:
        Self-join mode, as in the one-shot API.
    """

    sub_id: str
    queries: SegmentArray
    d: float
    window: tuple[float, float] | None = None
    exclude_same_trajectory: bool = False

    def __post_init__(self) -> None:
        if not self.sub_id:
            raise ValueError("subscription needs a non-empty sub_id")
        if len(self.queries) == 0:
            raise ValueError("subscription needs a non-empty query set")
        if not (self.d >= 0.0):
            raise ValueError(f"distance threshold must be >= 0, "
                             f"got {self.d!r}")
        if self.window is not None:
            lo, hi = self.window
            if not (float(lo) <= float(hi)):
                raise ValueError(f"window must satisfy t_lo <= t_hi, "
                                 f"got {self.window!r}")
            object.__setattr__(self, "window",
                               (float(lo), float(hi)))

    def envelope(self) -> CandidateEnvelope:
        """The subscription's :class:`CandidateEnvelope` (recomputed;
        the manager caches it per registration)."""
        q = self.queries
        mins, maxs = q.spatial_bounds()
        t_lo, t_hi = q.temporal_extent
        if self.window is not None:
            t_lo = max(t_lo, self.window[0])
            t_hi = min(t_hi, self.window[1])
        return CandidateEnvelope(
            mins=tuple(float(v - self.d) for v in mins),
            maxs=tuple(float(v + self.d) for v in maxs),
            t_lo=float(t_lo), t_hi=float(t_hi))

    def apply_window(self, results: ResultSet) -> ResultSet:
        """Clip result intervals to the window; drop items whose
        interval misses it.  Identity when no window is set.

        Each item is clipped on its own, so the delta path (which
        clips only the new items) and the from-scratch referee (which
        clips the whole answer) stay byte-comparable.
        """
        if self.window is None or len(results) == 0:
            return results
        w_lo, w_hi = self.window
        t_lo = np.maximum(results.t_lo, w_lo)
        t_hi = np.minimum(results.t_hi, w_hi)
        keep = np.flatnonzero(t_lo <= t_hi)
        return ResultSet(results.q_ids[keep], results.e_ids[keep],
                         t_lo[keep], t_hi[keep])

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "sub_id": self.sub_id,
            "queries": self.queries.to_dict(),
            "d": float(self.d),
            "window": (list(self.window)
                       if self.window is not None else None),
            "exclude_same_trajectory": bool(
                self.exclude_same_trajectory),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Subscription":
        """Inverse of :meth:`to_dict`."""
        window = payload.get("window")
        return cls(
            sub_id=payload["sub_id"],
            queries=SegmentArray.from_dict(payload["queries"]),
            d=float(payload["d"]),
            window=tuple(window) if window is not None else None,
            exclude_same_trajectory=bool(
                payload.get("exclude_same_trajectory", False)),
        )

