"""GPS-style urban vehicle trajectories on a grid road network, as a
helper module for ``urban_convoys.py``.

The paper's introduction motivates trajectory databases with GPS and GIS
workloads alongside the astrophysics driver.  This generator produces
that flavour of data: vehicles on a Manhattan street grid, repeatedly
picking a random destination intersection and driving there along an
L-shaped (axis-aligned) route at constant speed, sampled at a fixed GPS
period.

The resulting databases stress the indexes differently from the random
walks: segments are axis-aligned (degenerate MBBs in two dimensions),
many vehicles share road geometry (heavy spatial duplication in the FSG
lookup array), and proximity events are long (vehicles following the
same street), exercising interval merging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import SegmentArray, Trajectory

__all__ = ["CityConfig", "gps_dataset"]


@dataclass(frozen=True)
class CityConfig:
    """Grid-city parameters."""

    num_vehicles: int = 200
    blocks: int = 10           # intersections per side = blocks + 1
    block_size: float = 100.0  # metres
    speed: float = 10.0        # metres / second
    duration: float = 600.0    # seconds of driving per vehicle
    sample_period: float = 5.0  # GPS fix interval, seconds
    seed: int = 11

    def __post_init__(self) -> None:
        if (self.num_vehicles < 1 or self.blocks < 1
                or self.block_size <= 0 or self.speed <= 0
                or self.duration <= self.sample_period
                or self.sample_period <= 0):
            raise ValueError("invalid city configuration")


def _drive(cfg: CityConfig, rng: np.random.Generator) -> np.ndarray:
    """One vehicle's position at every sample instant; shape (k, 3).

    The vehicle alternates x-leg-then-y-leg routes between random
    intersections; z is 0 (a flat city), making the data effectively 2-D
    — a property the paper notes real FSG work targeted.
    """
    times = np.arange(0.0, cfg.duration + 1e-9, cfg.sample_period)
    pos = np.empty((times.shape[0], 3))
    n_i = cfg.blocks + 1
    here = rng.integers(0, n_i, 2).astype(np.float64) * cfg.block_size
    target = here.copy()
    t_now = 0.0
    idx = 0
    cur = here.copy()
    for k, t in enumerate(times):
        while t_now < t:
            if np.allclose(cur, target):
                target = rng.integers(0, n_i, 2).astype(np.float64) \
                    * cfg.block_size
                continue
            # Drive the x leg first, then the y leg.
            axis = 0 if cur[0] != target[0] else 1
            leg = target[axis] - cur[axis]
            leg_time = abs(leg) / cfg.speed
            step = min(leg_time, t - t_now)
            cur[axis] += np.sign(leg) * cfg.speed * step
            t_now += step
            if step == 0.0:
                break
        pos[k, 0], pos[k, 1], pos[k, 2] = cur[0], cur[1], 0.0
        idx = k
    return pos[:idx + 1]


def gps_dataset(cfg: CityConfig = CityConfig()) -> SegmentArray:
    """The vehicle-trajectory database for the configured city."""
    rng = np.random.default_rng(cfg.seed)
    times = np.arange(0.0, cfg.duration + 1e-9, cfg.sample_period)
    trajs = []
    for vid in range(cfg.num_vehicles):
        pos = _drive(cfg, rng)
        trajs.append(Trajectory(vid, times[:pos.shape[0]], pos))
    return SegmentArray.from_trajectories(trajs)
