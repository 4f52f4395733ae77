"""Moving-objects workload: fleets of vehicles streamed epoch by epoch.

The standing-query harness needs the *streaming* shape the paper's
static datasets lack: objects that keep moving after ingestion, arrive,
and churn out.  :class:`MovingObjectsWorkload` models fleets of vehicles
in a box — fleet members share a slowly-wandering heading, so a fleet
moves as a loose convoy (spatial locality that exercises the candidate
envelopes) — and emits one :class:`EpochDelta` per call: the new
observation segments for every active vehicle, plus which trajectory
ids arrived and which departed.

Guarantees the tests pin:

* **Seed-determinism** — two workloads built with the same config and
  seed produce byte-identical epoch streams (`tests/test_moving.py`
  compares raw array bytes).  All randomness flows through one
  ``default_rng(seed)`` drawn in a fixed order (departures, arrivals,
  headings, then motion, vehicles sorted by id).
* **Continuity** — a vehicle's epoch chunk starts at its previous
  endpoint, so the concatenation of its per-epoch segments is one
  gap-free trajectory on a shared ``dt`` time grid.
* **Id hygiene** — trajectory ids are never reused, and a departed
  vehicle never emits again; a consumer can therefore
  ``delete_trajectory`` departures without ever tripping the
  tombstone-reuse rule.  Departures are suppressed while fewer than
  ``min_active`` vehicles remain, so a live database never empties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.types import SegmentArray, Trajectory

__all__ = ["EpochDelta", "FleetConfig", "MovingObjectsWorkload"]


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the streaming workload.

    ``arrival_rate`` is per fleet per epoch (expected new vehicles per
    epoch = ``num_fleets * arrival_rate``); ``departure_rate`` is per
    active vehicle per epoch.  ``epoch_steps`` observations are emitted
    per vehicle per epoch (``epoch_steps`` segments, since each chunk
    starts at the previous endpoint).
    """

    num_fleets: int = 3
    vehicles_per_fleet: int = 4
    epoch_steps: int = 4
    box_side: float = 40.0
    #: per-step displacement along the fleet heading.
    speed: float = 1.0
    #: per-step isotropic jitter around the fleet motion.
    jitter: float = 0.3
    #: how strongly a fleet keeps its heading between epochs (1 = rigid).
    heading_persistence: float = 0.85
    arrival_rate: float = 0.2
    departure_rate: float = 0.08
    dt: float = 1.0
    #: departures are suppressed below this many active vehicles.
    min_active: int = 2

    def __post_init__(self) -> None:
        if self.num_fleets < 1 or self.vehicles_per_fleet < 1:
            raise ValueError("need at least one fleet of one vehicle")
        if self.epoch_steps < 1:
            raise ValueError("epoch_steps must be >= 1")
        if not (0.0 <= self.arrival_rate <= 1.0) \
                or not (0.0 <= self.departure_rate <= 1.0):
            raise ValueError("churn rates are probabilities in [0, 1]")
        if self.min_active < 2:
            raise ValueError("min_active must be >= 2 (a live database "
                             "must keep a deletable margin)")


@dataclass(frozen=True)
class EpochDelta:
    """What one epoch of the stream contains.

    ``segments`` covers every vehicle active this epoch (arrivals
    included, departures excluded).  The consumer applies it as one
    append; ``departures`` are the trajectory ids to delete.
    """

    index: int
    arrivals: tuple[int, ...]
    departures: tuple[int, ...]
    segments: SegmentArray
    #: trajectory ids active (emitting) this epoch, sorted.
    active: tuple[int, ...]

    @property
    def t_range(self) -> tuple[float, float]:
        return (float(self.segments.ts.min()),
                float(self.segments.te.max()))


@dataclass
class _Vehicle:
    fleet: int
    pos: np.ndarray
    t: float


@dataclass
class MovingObjectsWorkload:
    """Seed-deterministic epoch stream (see module docstring).

    The initial population (``num_fleets * vehicles_per_fleet``
    vehicles) is created up front; the first :meth:`next_epoch` emits
    their first observations starting at t=0.
    """

    config: FleetConfig = field(default_factory=FleetConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        cfg = self.config
        self._rng = np.random.default_rng(self.seed)
        self._next_traj_id = 0
        self._epoch_index = 0
        self._headings = [self._unit(self._rng.normal(size=3))
                         for _ in range(cfg.num_fleets)]
        self._vehicles: dict[int, _Vehicle] = {}
        for f in range(cfg.num_fleets):
            for _ in range(cfg.vehicles_per_fleet):
                self._spawn(f)

    @staticmethod
    def _unit(v: np.ndarray) -> np.ndarray:
        n = float(np.linalg.norm(v))
        return v / n if n > 0 else np.array([1.0, 0.0, 0.0])

    def _spawn(self, fleet: int) -> int:
        tid = self._next_traj_id
        self._next_traj_id += 1
        pos = self._rng.uniform(0.0, self.config.box_side, size=3)
        self._vehicles[tid] = _Vehicle(
            fleet=fleet, pos=pos,
            t=self._epoch_index * self.config.epoch_steps
            * self.config.dt)
        return tid

    def next_epoch(self) -> EpochDelta:
        """Advance every active vehicle by one epoch of observations.

        Draw order is fixed (departures → arrivals → headings → motion,
        vehicles by ascending id) so the stream is a pure function of
        ``(config, seed)``.
        """
        cfg = self.config
        rng = self._rng
        departures: list[int] = []
        for tid in sorted(self._vehicles):
            if len(self._vehicles) - len(departures) <= cfg.min_active:
                break
            if rng.random() < cfg.departure_rate:
                departures.append(tid)
        for tid in departures:
            del self._vehicles[tid]
        arrivals: list[int] = []
        for f in range(cfg.num_fleets):
            if rng.random() < cfg.arrival_rate:
                arrivals.append(self._spawn(f))
        for f in range(cfg.num_fleets):
            drift = self._unit(rng.normal(size=3))
            self._headings[f] = self._unit(
                cfg.heading_persistence * self._headings[f]
                + (1.0 - cfg.heading_persistence) * drift)
        trajs: list[Trajectory] = []
        for tid in sorted(self._vehicles):
            v = self._vehicles[tid]
            steps = (cfg.speed * self._headings[v.fleet]
                     + rng.normal(0.0, cfg.jitter,
                                  size=(cfg.epoch_steps, 3)))
            pts = np.vstack([v.pos, v.pos + np.cumsum(steps, axis=0)])
            times = v.t + cfg.dt * np.arange(cfg.epoch_steps + 1,
                                             dtype=np.float64)
            trajs.append(Trajectory(tid, times, pts))
            v.pos = pts[-1]
            v.t = float(times[-1])
        self._epoch_index += 1
        return EpochDelta(
            index=self._epoch_index - 1,
            arrivals=tuple(arrivals),
            departures=tuple(departures),
            segments=SegmentArray.from_trajectories(trajs),
            active=tuple(sorted(self._vehicles)))

    def epochs(self, n: int) -> list[EpochDelta]:
        """The next ``n`` epochs as a list."""
        return [self.next_epoch() for _ in range(n)]
