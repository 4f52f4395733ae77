"""Core data types for spatiotemporal trajectory databases.

The paper (Section III) defines the database ``D`` as a set of *entry line
segments*: 4-dimensional (3 spatial + 1 temporal) line segments, each with
a spatiotemporal start point, end point, a segment id and a trajectory id.
A segment describes one object moving at constant velocity during its
temporal extent ``[t_start, t_end]``.

For GPU-friendliness (and NumPy-friendliness) the database is stored as a
structure-of-arrays: one contiguous ``float64`` array per coordinate.  This
mirrors the layout the paper uses in device global memory, where coalesced
access requires neighbouring threads to read neighbouring addresses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SegmentArray", "Trajectory", "concatenate"]


@dataclass(frozen=True)
class Trajectory:
    """A single trajectory: a time-ordered polyline of observed positions.

    Parameters
    ----------
    traj_id:
        Application-level identifier of the moving object.
    times:
        Strictly increasing array of ``k`` observation times.
    positions:
        ``(k, 3)`` array of positions, one row per observation.
    """

    traj_id: int
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        positions = np.asarray(self.positions, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("times must be a 1-D array")
        if positions.shape != (times.shape[0], 3):
            raise ValueError(
                f"positions must have shape ({times.shape[0]}, 3), "
                f"got {positions.shape}"
            )
        if times.shape[0] >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def num_points(self) -> int:
        return int(self.times.shape[0])

    @property
    def num_segments(self) -> int:
        return max(0, self.num_points - 1)


class SegmentArray:
    """Structure-of-arrays container for 4-D trajectory line segments.

    Every segment ``i`` is the straight-line motion from
    ``(xs[i], ys[i], zs[i])`` at time ``ts[i]`` to ``(xe[i], ye[i], ze[i])``
    at time ``te[i]``.  ``traj_ids[i]`` records which trajectory the segment
    belongs to and ``seg_ids[i]`` is a database-wide unique segment id (the
    paper's *entry id*).

    Instances are immutable by convention: all arrays are flagged
    non-writeable at construction, and reordering operations return new
    instances.
    """

    _FIELDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te")

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        zs: np.ndarray,
        ts: np.ndarray,
        xe: np.ndarray,
        ye: np.ndarray,
        ze: np.ndarray,
        te: np.ndarray,
        traj_ids: np.ndarray,
        seg_ids: np.ndarray | None = None,
    ) -> None:
        arrays = [np.ascontiguousarray(a, dtype=np.float64)
                  for a in (xs, ys, zs, ts, xe, ye, ze, te)]
        n = arrays[0].shape[0]
        for name, a in zip(self._FIELDS, arrays):
            if a.shape != (n,):
                raise ValueError(f"{name} must be 1-D of length {n}, "
                                 f"got shape {a.shape}")
        traj_ids = np.ascontiguousarray(traj_ids, dtype=np.int64)
        if traj_ids.shape != (n,):
            raise ValueError("traj_ids length mismatch")
        if seg_ids is None:
            seg_ids = np.arange(n, dtype=np.int64)
        else:
            seg_ids = np.ascontiguousarray(seg_ids, dtype=np.int64)
            if seg_ids.shape != (n,):
                raise ValueError("seg_ids length mismatch")
        if np.any(arrays[7] < arrays[3]):
            raise ValueError("segments must satisfy t_end >= t_start")

        (self.xs, self.ys, self.zs, self.ts,
         self.xe, self.ye, self.ze, self.te) = arrays
        self.traj_ids = traj_ids
        self.seg_ids = seg_ids
        for a in (*arrays, traj_ids, seg_ids):
            a.flags.writeable = False

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "SegmentArray":
        z = np.zeros(0)
        return cls(z, z, z, z, z, z, z, z, np.zeros(0, dtype=np.int64))

    @classmethod
    def from_trajectories(
        cls, trajectories: Iterable[Trajectory]
    ) -> "SegmentArray":
        """Decompose polylines into the flat entry-segment database."""
        xs, ys, zs, ts = [], [], [], []
        xe, ye, ze, te = [], [], [], []
        tids = []
        for traj in trajectories:
            p, t = traj.positions, traj.times
            if traj.num_segments == 0:
                continue
            xs.append(p[:-1, 0]); ys.append(p[:-1, 1]); zs.append(p[:-1, 2])
            xe.append(p[1:, 0]); ye.append(p[1:, 1]); ze.append(p[1:, 2])
            ts.append(t[:-1]); te.append(t[1:])
            tids.append(np.full(traj.num_segments, traj.traj_id,
                                dtype=np.int64))
        if not xs:
            return cls.empty()
        cat = np.concatenate
        return cls(cat(xs), cat(ys), cat(zs), cat(ts),
                   cat(xe), cat(ye), cat(ze), cat(te), cat(tids))

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    def __repr__(self) -> str:
        return (f"SegmentArray(n={len(self)}, "
                f"trajectories={self.num_trajectories})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentArray):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in (*self._FIELDS, "traj_ids", "seg_ids")
        )

    @property
    def num_trajectories(self) -> int:
        if len(self) == 0:
            return 0
        return int(np.unique(self.traj_ids).shape[0])

    # -- derived geometry --------------------------------------------------

    def velocities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment constant velocity ``(vx, vy, vz)``, cached.

        Zero-extent segments are stationary points (velocity 0).  Because
        instances are immutable, the arrays are computed once per
        SegmentArray and shared by every kernel invocation that refines
        against it — part of the structure-of-arrays segment store the
        whole-batch execution path reads (no per-call ``(n, 3)``
        temporaries).
        """
        cached = getattr(self, "_velocities", None)
        if cached is None:
            dt = self.te - self.ts
            moving = dt > 0
            cached = tuple(
                np.divide(e - s, dt, out=np.zeros(len(self)), where=moving)
                for s, e in ((self.xs, self.xe), (self.ys, self.ye),
                             (self.zs, self.ze)))
            for a in cached:
                a.flags.writeable = False
            self._velocities = cached
        return cached

    @property
    def starts(self) -> np.ndarray:
        """``(n, 3)`` array of spatial start points."""
        return np.stack([self.xs, self.ys, self.zs], axis=1)

    @property
    def ends(self) -> np.ndarray:
        """``(n, 3)`` array of spatial end points."""
        return np.stack([self.xe, self.ye, self.ze], axis=1)

    @property
    def temporal_extent(self) -> tuple[float, float]:
        """``(t_min, t_max)`` over the whole database (paper §IV-B)."""
        if len(self) == 0:
            raise ValueError("empty SegmentArray has no temporal extent")
        return float(self.ts.min()), float(self.te.max())

    def all_finite(self) -> bool:
        """True when no coordinate or time is NaN or infinite (a
        non-finite row can never match, so callers refuse it)."""
        return bool(np.isfinite(
            np.concatenate([getattr(self, f) for f in self._FIELDS])).all())

    def spatial_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension ``(mins, maxs)`` over all segment endpoints."""
        if len(self) == 0:
            raise ValueError("empty SegmentArray has no spatial bounds")
        mins = np.array([
            min(self.xs.min(), self.xe.min()),
            min(self.ys.min(), self.ye.min()),
            min(self.zs.min(), self.ze.min()),
        ])
        maxs = np.array([
            max(self.xs.max(), self.xe.max()),
            max(self.ys.max(), self.ye.max()),
            max(self.zs.max(), self.ze.max()),
        ])
        return mins, maxs

    def max_spatial_extent(self) -> np.ndarray:
        """Per-dimension maximum segment extent (paper §IV-C.1).

        e.g. ``max_i |x_start_i - x_end_i|`` for the x dimension.  This
        bounds the admissible spatial subbin count of GPUSpatioTemporal.
        """
        return np.array([
            np.abs(self.xs - self.xe).max(initial=0.0),
            np.abs(self.ys - self.ye).max(initial=0.0),
            np.abs(self.zs - self.ze).max(initial=0.0),
        ])

    # -- reordering / selection ---------------------------------------------

    def take(self, idx: np.ndarray) -> "SegmentArray":
        """Return a new SegmentArray with rows ``idx`` (keeps seg_ids)."""
        return SegmentArray(
            self.xs[idx], self.ys[idx], self.zs[idx], self.ts[idx],
            self.xe[idx], self.ye[idx], self.ze[idx], self.te[idx],
            self.traj_ids[idx], self.seg_ids[idx],
        )

    def sorted_by_start_time(self) -> "SegmentArray":
        """Entries sorted by ascending ``t_start`` (GPUTemporal pre-pass).

        Memoised through a weak reference: every caller holding the copy
        (the two GPU temporal engines and ``cpu_scan`` over one base)
        shares it, and it is freed with the last of them.  Safe because
        instances are immutable.
        """
        ref = getattr(self, "_by_start_time", None)
        cached = None if ref is None else ref()
        if cached is None:
            cached = self.take(np.argsort(self.ts, kind="stable"))
            self._by_start_time = weakref.ref(cached)
        return cached


    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (plain lists, one per column)."""
        payload = {f: getattr(self, f).tolist() for f in self._FIELDS}
        payload["traj_ids"] = self.traj_ids.tolist()
        payload["seg_ids"] = self.seg_ids.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SegmentArray":
        """Inverse of :meth:`to_dict`."""
        return cls(
            *(np.asarray(payload[f], dtype=np.float64)
              for f in cls._FIELDS),
            traj_ids=np.asarray(payload["traj_ids"], dtype=np.int64),
            seg_ids=np.asarray(payload["seg_ids"], dtype=np.int64),
        )

    # -- memory accounting ---------------------------------------------------

    def nbytes(self) -> int:
        """Device-memory footprint if resident on the (virtual) GPU."""
        return sum(getattr(self, f).nbytes for f in self._FIELDS) \
            + self.traj_ids.nbytes + self.seg_ids.nbytes


def concatenate(parts: Sequence[SegmentArray]) -> SegmentArray:
    """Concatenate several SegmentArrays (used by the cluster partitioner)."""
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        return SegmentArray.empty()
    cat = np.concatenate
    return SegmentArray(
        cat([p.xs for p in parts]), cat([p.ys for p in parts]),
        cat([p.zs for p in parts]), cat([p.ts for p in parts]),
        cat([p.xe for p in parts]), cat([p.ye for p in parts]),
        cat([p.ze for p in parts]), cat([p.te for p in parts]),
        cat([p.traj_ids for p in parts]), cat([p.seg_ids for p in parts]),
    )
