"""What at least two campaign scenarios share — and nothing else.

A campaign is a seeded storm against some serving layer whose every
answer is checked, byte for byte, against ``cpu_scan``.  The parts more
than one scenario needs live here: the random-walk dataset, canonical
result bytes, the one ``cpu_scan`` referee, the crash → recover →
resume driver for mutation schedules (lists of
:class:`~repro.ingest.Mutation`, applied with ``service.apply``), a
durability directory, and the report base.  Schedules, injected faults
and scenario-specific checks stay in the scenario modules; this module
has no hooks for them to plug into — scenarios call it, it never calls
back.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core.result import ResultSet
from ..core.types import SegmentArray, Trajectory
from ..durability import DurabilityPolicy, KillSwitch, SimulatedCrash
from ..engines.cpu_scan import CpuScanEngine
from ..ingest import Mutation
from ..obs import Telemetry
from ..service import QueryService

__all__ = ["CrashResume", "Referee", "Report", "durability_dir",
           "result_bytes", "walk_db"]


def walk_db(num_traj: int, steps: int, *, seed: int,
            id_offset: int = 0) -> SegmentArray:
    """Small random-walk trajectories with staggered start times."""
    rng = np.random.default_rng(seed)
    trajs = []
    for k in range(num_traj):
        start = rng.uniform(0.0, 20.0, size=3)
        steps_v = rng.normal(0.0, 1.0, size=(steps - 1, 3))
        pos = np.vstack([start, start + np.cumsum(steps_v, axis=0)])
        t0 = rng.uniform(0.0, 5.0)
        times = t0 + np.arange(steps, dtype=np.float64)
        trajs.append(Trajectory(id_offset + k, times, pos))
    return SegmentArray.from_trajectories(trajs)


def result_bytes(results: ResultSet) -> tuple[bytes, ...]:
    """Canonical raw bytes of a result set — byte-level identity, not
    tolerance-based equivalence."""
    c = results.canonical()
    return (c.q_ids.tobytes(), c.e_ids.tobytes(),
            c.t_lo.tobytes(), c.t_hi.tobytes())


class Referee:
    """The exactness oracle: ``cpu_scan`` on the un-faulted path over
    the logical database of a pinned snapshot.

    Mutations move the truth and the epoch names which one, so a
    scenario :meth:`pin`\\ s the snapshot an answer was (or will be)
    served from and asks for the truth *of that epoch*.
    """

    def __init__(self) -> None:
        self._snapshots: dict[int, object] = {}
        self._engines: dict[int, CpuScanEngine] = {}
        self._truths: dict[tuple, tuple[bytes, ...]] = {}

    def pin(self, snapshot) -> int:
        """Remember ``snapshot`` under its epoch; returns the epoch."""
        self._snapshots.setdefault(snapshot.epoch, snapshot)
        return snapshot.epoch

    def results(self, epoch: int, queries: SegmentArray, d: float, *,
                only_seg_ids: np.ndarray | None = None,
                exclude_same_trajectory: bool = False) -> ResultSet:
        """From-scratch answer at ``epoch``; ``only_seg_ids`` restricts
        the database to those rows (the surviving shards of a partial
        answer)."""
        if only_seg_ids is None:
            engine = self._engines.get(epoch)
            if engine is None:
                engine = self._engines[epoch] = CpuScanEngine(
                    self._snapshots[epoch].logical())
        else:
            logical = self._snapshots[epoch].logical()
            logical = logical.take(np.flatnonzero(
                np.isin(logical.seg_ids, only_seg_ids)))
            if len(logical) == 0:
                return ResultSet()
            engine = CpuScanEngine(logical)
        return engine.search(
            queries, d,
            exclude_same_trajectory=exclude_same_trajectory)[0]

    def truth(self, epoch: int, key, queries: SegmentArray, d: float,
              *, only_seg_ids: np.ndarray | None = None
              ) -> tuple[bytes, ...]:
        """:func:`result_bytes` of :meth:`results`, cached on
        ``(epoch, key)`` — ``key`` names the query set (and the
        restriction, when there is one)."""
        if (epoch, key) not in self._truths:
            self._truths[epoch, key] = result_bytes(self.results(
                epoch, queries, d, only_seg_ids=only_seg_ids))
        return self._truths[epoch, key]


class CrashResume:
    """A durable service driven through a mutation schedule, killed
    once by a :class:`~repro.durability.KillSwitch`, recovered from its
    directory, and resumed.

    Every mutation bumps the epoch by exactly one, so the recovered
    epoch *is* the count of operations that landed and the schedule
    resumes right after them.  The crashed service is abandoned exactly
    as a dead process leaves it: WAL handle unreleased, tmp debris on
    disk.  ``service_kwargs`` go to the constructor; :meth:`recover`
    takes its own (a scenario that injects device faults hands the
    recovered process a fresh injector).
    """

    def __init__(self, base: SegmentArray, schedule: list[Mutation],
                 directory: Path, *, policy: DurabilityPolicy,
                 kill: KillSwitch, **service_kwargs) -> None:
        self.schedule = schedule
        self.directory = directory
        self.policy = policy
        self.service = QueryService(
            base, durability_dir=directory, durability=policy,
            durability_kill=kill, auto_compact=False,
            telemetry=Telemetry(enabled=False), **service_kwargs)
        self.crashed = False
        self.resumed_ops = 0

    def until_crash(self):
        """Apply the schedule, yielding each op's 1-based position once
        it has landed; ends quietly (``crashed`` set) when the kill
        switch fires."""
        try:
            for i, op in enumerate(self.schedule, start=1):
                self.service.apply(op)
                yield i
        except SimulatedCrash:
            self.crashed = True

    def recover(self, **service_kwargs):
        """Replace the dead service by one recovered from disk; returns
        its :class:`~repro.durability.RecoveryResult`."""
        self.service = QueryService.recover(
            self.directory, policy=self.policy, auto_compact=False,
            telemetry=Telemetry(enabled=False), **service_kwargs)
        return self.service.last_recovery

    def resume(self):
        """Finish the schedule on the recovered service, yielding
        positions as :meth:`until_crash` does."""
        landed = self.service.last_recovery.epoch
        for i, op in enumerate(self.schedule[landed:], start=landed + 1):
            self.service.apply(op)
            self.resumed_ops += 1
            yield i


@contextmanager
def durability_dir(directory: str | Path | None = None):
    """Where a campaign's WALs and checkpoints live: ``directory`` when
    the caller names one (left in place), else a private temp dir
    removed on exit."""
    if directory is not None:
        yield Path(directory)
    else:
        # A crashed service's files are abandoned, not closed: cleanup
        # must not trip over them.
        with tempfile.TemporaryDirectory(
                prefix="repro-campaign-",
                ignore_cleanup_errors=True) as tmp:
            yield Path(tmp)


def _rows(key, value, indent: int):
    """Label/value lines for one entry: dicts nest (two levels, then
    summarised), a list of dicts is one ``k=v`` row per item."""
    label = f"{' ' * indent}{key}"
    if isinstance(value, dict) and value and indent <= 4:
        yield label
        for k, v in value.items():
            yield from _rows(k, v, indent + 2)
    elif isinstance(value, list) and value \
            and all(isinstance(v, dict) for v in value):
        yield label
        for item in value:
            yield f"{' ' * indent}  " + " ".join(
                f"{k}={v}" for k, v in item.items())
    elif isinstance(value, dict) and value:
        yield f"{label:<23} ({len(value)} entries)"
    else:
        yield f"{label:<23} {value}"


@dataclass
class Report:
    """What one campaign measured.  Scenarios add their counters as
    fields and define ``ok`` (every answer exact, nothing lost) and
    ``regimes_missing`` (the regimes the storm was built to provoke
    that never occurred; empty = all fired)."""

    config: object

    def to_dict(self) -> dict:
        """JSON-friendly representation: the fields, plus what the
        scenario derives from them (its properties, the two verdicts
        among them)."""
        out = asdict(self)
        for name, attr in vars(type(self)).items():
            if isinstance(attr, property):
                out[name] = getattr(self, name)
        return out

    def render(self) -> str:
        """Human-readable label/value table of :meth:`to_dict`."""
        name = type(self).__module__.rpartition(".")[2]
        lines = [f"{name} campaign report"]
        for key, value in self.to_dict().items():
            lines.extend(_rows(key, value, 2))
        return "\n".join(lines)
