"""Shared fixtures: small, fast, deterministic trajectory datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory


#: ``method="auto"`` planner hints no engine would accept either.
BAD_PLANNER_HINTS = [{"num_bins": 0}, {"num_bins": "x"},
                     {"segments_per_mbb": 0}, {"num_subbins": 0},
                     {"cells_per_dim": -3}]

#: values no coordinate or time may take.
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def poisoned(segments: SegmentArray, value: float, *, column: str = "xs",
             row: int = 0) -> SegmentArray:
    """A copy of ``segments`` with one coordinate replaced by ``value``."""
    cols = {f: getattr(segments, f).copy() for f in SegmentArray._FIELDS}
    cols[column][row] = value
    return SegmentArray(**cols, traj_ids=segments.traj_ids,
                        seg_ids=segments.seg_ids)


def series_value(registry, name: str, **labels) -> float:
    """One counter or gauge series as ``registry.snapshot()`` (what
    ``repro metrics --format json`` prints) reports it; 0 when unset."""
    want = sorted([str(k), str(v)] for k, v in labels.items())
    series = registry.snapshot().get(name, {"series": []})["series"]
    return next((s["value"] for s in series if s["labels"] == want), 0.0)


def make_walk_trajectories(num_traj: int, steps: int, *,
                           box: float = 20.0, step_sigma: float = 1.0,
                           start_spread: float = 5.0, dt: float = 1.0,
                           seed: int = 0) -> list[Trajectory]:
    """Small random-walk trajectories with staggered start times."""
    rng = np.random.default_rng(seed)
    trajs = []
    for k in range(num_traj):
        start = rng.uniform(0.0, box, size=3)
        stepv = rng.normal(0.0, step_sigma, size=(steps - 1, 3))
        pos = np.vstack([start, start + np.cumsum(stepv, axis=0)])
        t0 = rng.uniform(0.0, start_spread)
        times = t0 + dt * np.arange(steps, dtype=np.float64)
        trajs.append(Trajectory(k, times, pos))
    return trajs


@pytest.fixture(scope="session")
def small_db() -> SegmentArray:
    """~570 segments in a 20-unit box: big enough to exercise indexes,
    small enough for brute force."""
    return SegmentArray.from_trajectories(
        make_walk_trajectories(30, 20, seed=42))


@pytest.fixture(scope="session")
def small_queries(small_db: SegmentArray) -> SegmentArray:
    """Fresh walks (different seed) over the same box."""
    trajs = make_walk_trajectories(5, 20, seed=99)
    # Distinct trajectory ids from the database's.
    shifted = [Trajectory(t.traj_id + 1000, t.times, t.positions)
               for t in trajs]
    return SegmentArray.from_trajectories(shifted)


@pytest.fixture(scope="session")
def db_queries_truth(small_db, small_queries):
    """(database, queries, d, canonical brute-force truth) bundle."""
    from repro.core.bruteforce import brute_force_search
    d = 2.5
    truth = brute_force_search(small_queries, small_db, d).canonical()
    return small_db, small_queries, d, truth


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1)
