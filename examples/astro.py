"""The paper's motivating astrobiology application (§I), as a helper
module for ``supernova_sterilization.py`` and ``stellar_encounters.py``.

Two habitability hazard searches over stellar trajectory databases:

(i)  **Supernova sterilization** — "Find the stars that host a habitable
     planet and are within a distance d of a supernova explosion", with
     the time intervals of exposure.  A supernova is an *event*: a
     position fixed in space during a short time window, modeled as a
     zero-velocity trajectory spanning the window.
(ii) **Close stellar encounters** — "Find the stars that host a habitable
     planet and are within a distance d of any other stellar trajectory"
     (gravitational perturbation of planetary systems by flyby stars).

Both reduce to distance-threshold searches; this module wraps the engines
with the domain bookkeeping: which stars host habitable planets, per-star
exposure episodes, and cumulative time spent inside the hazard radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import (DistanceThresholdSearch, ResultSet, SegmentArray,
                        Trajectory, merge_intervals)

__all__ = ["Supernova", "HazardEpisode", "supernova_exposure",
           "close_encounters"]


@dataclass(frozen=True)
class Supernova:
    """A transient radiation event at a fixed position.

    ``duration`` is the window during which the radiation flux matters
    (prompt emission plus the ozone-depletion-relevant aftermath).
    """

    event_id: int
    position: np.ndarray
    t_start: float
    duration: float

    def as_trajectory(self) -> Trajectory:
        """The event as a zero-velocity trajectory over its window."""
        pos = np.asarray(self.position, dtype=np.float64)
        return Trajectory(
            self.event_id,
            np.array([self.t_start, self.t_start + self.duration]),
            np.stack([pos, pos]),
        )


@dataclass(frozen=True)
class HazardEpisode:
    """One star's exposure to one hazard source."""

    star_id: int
    source_id: int
    intervals: list[tuple[float, float]]

    @property
    def total_exposure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    @property
    def first_contact(self) -> float:
        return self.intervals[0][0]


def _traj_of_seg(segments: SegmentArray) -> dict[int, int]:
    return {int(s): int(t) for s, t in zip(segments.seg_ids,
                                           segments.traj_ids)}


def _episodes(results: ResultSet, q_map: dict[int, int],
              e_map: dict[int, int], *, swap: bool = False
              ) -> list[HazardEpisode]:
    by_traj = results.by_trajectory(q_map, e_map)
    episodes = []
    for (q_traj, e_traj), intervals in sorted(by_traj.items()):
        star, source = (e_traj, q_traj) if swap else (q_traj, e_traj)
        episodes.append(HazardEpisode(star_id=star, source_id=source,
                                      intervals=merge_intervals(intervals)))
    return episodes


def supernova_exposure(
    stars: SegmentArray,
    supernovae: list[Supernova],
    d: float,
    *,
    habitable_star_ids: np.ndarray | None = None,
    method: str = "gpu_spatiotemporal",
    **engine_params,
) -> list[HazardEpisode]:
    """Search (i): stars within ``d`` of any supernova, with intervals.

    The (few) supernovae become the query set and the (many) stellar
    trajectories the database — the cheap direction for an in-memory
    engine.  ``habitable_star_ids`` restricts the report to stars known
    to host habitable planets (all stars if None).
    """
    if not supernovae:
        return []
    queries = SegmentArray.from_trajectories(
        [sn.as_trajectory() for sn in supernovae])
    search = DistanceThresholdSearch(stars, method=method, **engine_params)
    outcome = search.run(queries, d)
    episodes = _episodes(outcome.results, _traj_of_seg(queries),
                         _traj_of_seg(stars), swap=True)
    if habitable_star_ids is not None:
        keep = set(int(s) for s in habitable_star_ids)
        episodes = [e for e in episodes if e.star_id in keep]
    return episodes


def close_encounters(
    stars: SegmentArray,
    d: float,
    *,
    habitable_star_ids: np.ndarray | None = None,
    method: str = "gpu_spatiotemporal",
    **engine_params,
) -> list[HazardEpisode]:
    """Search (ii): stellar flybys — every pair of distinct trajectories
    within ``d`` of each other, with the encounter intervals.

    The query set is the star set itself (or its habitable subset);
    same-trajectory pairs are excluded, matching the paper's continuous
    self-join semantics.
    """
    if habitable_star_ids is not None:
        mask = np.isin(stars.traj_ids, np.asarray(habitable_star_ids))
        queries = stars.take(np.flatnonzero(mask))
        if len(queries) == 0:
            return []
    else:
        queries = stars
    search = DistanceThresholdSearch(stars, method=method, **engine_params)
    outcome = search.run(queries, d, exclude_same_trajectory=True)
    return _episodes(outcome.results, _traj_of_seg(queries),
                     _traj_of_seg(stars))
