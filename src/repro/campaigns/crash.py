"""Process death at every durable-write kill point, then recovery.

Where :mod:`~repro.campaigns.chaos` injects *device* faults, this
scenario injects *process death*: a seeded
:class:`~repro.durability.KillSwitch` raises
:class:`~repro.durability.SimulatedCrash` (a ``BaseException``, so no
resilience ladder can absorb it) at an exact point of the durable write
path, the half-written bytes are left on disk exactly as a real crash
would leave them, and :meth:`~repro.service.QueryService.recover`
rebuilds a fresh service from the directory.

One crash run per kill-point class:

* ``wal_mid_append`` — dies with half a WAL line on disk; recovery
  must detect the torn record via CRC and drop it, losing exactly the
  in-flight mutation and nothing else;
* ``wal_post_append`` — the record is durable, the in-memory apply
  never ran; recovery must replay it (the mutation *happened*);
* ``checkpoint_mid`` — dies after a periodic checkpoint's files are
  written but before the atomic rename; recovery must ignore the tmp
  debris and use the previous checkpoint + WAL;
* ``compact_mid`` — dies inside the post-compaction checkpoint; the
  compact WAL record is durable, so recovery replays the
  (deterministic) fold and lands on the identical new base.

After each recovery the remaining schedule is resumed and every engine
of the recovered service must answer **byte-identically** to the
referee over the final database of an uninterrupted run.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.types import SegmentArray
from ..durability import DurabilityPolicy, KILL_POINTS, KillSwitch
from ..ingest import Mutation, VersionedDatabase
from ..obs import Telemetry
from ..service import QueryService, SearchRequest
from .harness import (CrashResume, Referee, Report, durability_dir,
                      result_bytes, walk_db)

__all__ = ["CrashConfig", "CrashReport", "CrashRun", "run"]

D = 2.5


@dataclass(frozen=True)
class CrashConfig:
    """Knobs of one crash campaign; everything derives from ``seed``.

    ``num_ops`` mutations (appends/deletes/compacts) over a random-walk
    database of ``num_trajectories`` x ``steps``; one crash run per
    entry of ``kill_points``; ``methods`` are the engines swept after
    each recovery; ``crash_on_op`` crashes on exactly that mutation at
    the WAL kill points (None = a mid-schedule default)."""

    seed: int = 0
    num_ops: int = 12
    kill_points: tuple[str, ...] = KILL_POINTS
    num_trajectories: int = 14
    steps: int = 10
    queries: int = 3
    #: periodic checkpoint cadence (mutations between checkpoints).
    checkpoint_every: int = 3
    sync: str = "fsync"
    methods: tuple[str, ...] = ("gpu_temporal", "gpu_spatiotemporal",
                                "gpu_spatial", "cpu_rtree", "cpu_scan")
    crash_on_op: int | None = None

    def __post_init__(self) -> None:
        if self.num_ops < 4:
            raise ValueError("num_ops must be >= 4 (the schedule "
                             "needs room for every kill point)")
        unknown = set(self.kill_points) - set(KILL_POINTS)
        if unknown:
            raise ValueError(f"unknown kill points {sorted(unknown)}; "
                             f"expected a subset of {KILL_POINTS}")
        if self.crash_on_op is not None and not (
                1 <= self.crash_on_op <= self.num_ops):
            raise ValueError("crash_on_op must be within the "
                             "operation schedule (1..num_ops)")


@dataclass
class CrashRun:
    """One kill-point's crash, recovery, and verification."""

    point: str
    occurrence: int
    #: the simulated crash actually fired (a run whose kill point was
    #: never reached proves nothing).
    fired: bool = False
    #: operations applied before the crash (== recovered epoch).
    recovered_epoch: int = -1
    #: WAL records replayed on top of the checkpoint.
    replayed: int = 0
    #: CRC-torn final records dropped during recovery.
    torn_dropped: int = 0
    #: operations re-driven after recovery to finish the schedule.
    resumed_ops: int = 0
    #: engines prewarmed from the recovered checkpoint.
    prewarmed: int = 0
    #: the first post-recovery request on the prewarmed engine was a
    #: cache hit (None when the crash predates the first checkpoint
    #: that persisted an engine; False when the resumed schedule
    #: compacts twice before that request — a compaction re-warms
    #: only engines served since the one before).
    prewarm_hit: bool | None = None
    #: per-engine byte-identity vs the uninterrupted reference.
    identical: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.fired
                and all(self.identical.values()))


@dataclass
class CrashReport(Report):
    """Everything one crash campaign measured."""

    runs: list[CrashRun] = field(default_factory=list)
    #: final epoch of the uninterrupted reference run.
    reference_epoch: int = 0

    @property
    def regimes_missing(self) -> list[str]:
        """Kill-point classes that never fired, plus ``torn_record``
        when the mid-append crash left no torn WAL tail to drop."""
        fired = {run.point: run for run in self.runs if run.fired}
        missing = [p for p in KILL_POINTS if p not in fired]
        mid = fired.get("wal_mid_append")
        if mid is not None and mid.torn_dropped != 1:
            missing.append("torn_record")
        return missing

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(run.ok for run in self.runs)

    def to_dict(self) -> dict:
        out = super().to_dict()
        for run, row in zip(self.runs, out["runs"]):
            row["ok"] = run.ok
        return out


def _build_schedule(cfg: CrashConfig,
                    base: SegmentArray) -> list[Mutation]:
    """A deterministic, always-valid mutation schedule.

    Validity (no deleting a tombstoned or unknown id, never emptying
    the database) is guaranteed by dry-running the schedule against a
    scratch database while generating it.
    """
    rng = np.random.default_rng(cfg.seed + 0xC4A54)
    scratch = VersionedDatabase(base)
    schedule: list[Mutation] = []
    next_offset = 1000
    for i in range(cfg.num_ops):
        mutation = None
        # Guarantee compactions mid-stream so compact_mid and the
        # replay-a-compaction path are always exercised.
        if i in (cfg.num_ops // 3, 2 * cfg.num_ops // 3):
            mutation = Mutation("compact")
        elif rng.choice(["append", "append", "append",
                         "delete"]) == "delete":
            snap = scratch.snapshot()
            live = sorted(set(np.unique(snap.base.traj_ids).tolist())
                          | set(np.unique(snap.delta.traj_ids).tolist()))
            live = [t for t in live if t not in snap.tombstones]
            if len(live) >= 2:  # else append: never empty the database
                mutation = Mutation("delete", traj_id=live[
                    int(rng.integers(len(live)))])
        if mutation is None:
            mutation = Mutation("append", segments=walk_db(
                int(rng.integers(1, 3)), cfg.steps,
                seed=cfg.seed + 31 * i, id_offset=next_offset))
            next_offset += 100
        scratch.apply(mutation)
        schedule.append(mutation)
    return schedule


def _occurrences(cfg: CrashConfig) -> dict[str, int]:
    """Which visit of each kill point the campaign crashes on.

    WAL points are visited once per mutation, so mid-schedule
    occurrences exercise a non-trivial prefix.  ``checkpoint_mid`` is
    visited once by the bootstrap checkpoint (attach) before any
    periodic one — crashing *there* would leave nothing to recover
    from (correct, but vacuous), so occurrence 2 targets the first
    periodic checkpoint.  ``compact_mid`` is only visited by
    post-compaction checkpoints.
    """
    return {
        "wal_mid_append": cfg.crash_on_op or max(2, cfg.num_ops // 2),
        "wal_post_append": cfg.crash_on_op or max(2, cfg.num_ops // 3),
        "checkpoint_mid": 2,
        "compact_mid": 1,
    }


def _crash_run(cfg: CrashConfig, base: SegmentArray,
               schedule: list[Mutation], queries: SegmentArray,
               point: str, occurrence: int,
               truth: tuple[bytes, ...], directory: Path) -> CrashRun:
    run = CrashRun(point=point, occurrence=occurrence)
    driver = CrashResume(
        base, schedule, directory,
        policy=DurabilityPolicy(sync=cfg.sync,
                                checkpoint_every=cfg.checkpoint_every),
        kill=KillSwitch(point, occurrence=occurrence))
    # Warm one engine up front so later checkpoints list its recipe —
    # that is what post-recovery prewarm rebuilds.
    driver.service.submit(SearchRequest(
        queries=queries, d=D, method=cfg.methods[0],
        request_id="warmup"))
    for _ in driver.until_crash():
        pass
    run.fired = driver.crashed
    if not run.fired:
        run.error = (f"kill point {point} (occurrence {occurrence}) "
                     f"was never reached by the schedule")
        return run
    try:
        rec = driver.recover()
        run.recovered_epoch = rec.epoch
        run.replayed = rec.replayed
        run.torn_dropped = rec.torn_dropped
        run.prewarmed = len(rec.engines)
        for _ in driver.resume():
            pass
        run.resumed_ops = driver.resumed_ops
        for method in cfg.methods:
            response = driver.service.submit(SearchRequest(
                queries=queries, d=D, method=method,
                request_id=f"verify-{method}"))
            if not response.ok:
                raise RuntimeError(f"{method}: verification request "
                                   f"rejected: {response.reason}")
            if response.metrics.degraded:
                raise RuntimeError(f"{method}: verification request "
                                   f"was degraded to another engine")
            run.identical[method] = (
                result_bytes(response.outcome.results) == truth)
            if method == cfg.methods[0] and run.prewarmed:
                run.prewarm_hit = response.metrics.cache_hit
        driver.service.shutdown()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def run(config: CrashConfig | None = None, *,
        directory: str | Path | None = None) -> CrashReport:
    """Run one crash campaign; returns the report.

    ``directory`` hosts the per-run durability directories (a temp dir
    that is cleaned up when None).
    """
    cfg = config or CrashConfig()
    base = walk_db(cfg.num_trajectories, cfg.steps, seed=cfg.seed)
    queries = walk_db(cfg.queries, cfg.steps, seed=cfg.seed + 9999,
                      id_offset=90_000)
    schedule = _build_schedule(cfg, base)
    report = CrashReport(config=cfg)

    # Uninterrupted reference: same schedule, no durability, no kill.
    reference = QueryService(base, auto_compact=False,
                             telemetry=Telemetry(enabled=False))
    for mutation in schedule:
        reference.apply(mutation)
    report.reference_epoch = reference.versioned.epoch
    referee = Referee()
    truth = referee.truth(referee.pin(reference.current_snapshot()),
                          "final", queries, D)

    occurrences = _occurrences(cfg)
    with durability_dir(directory) as root:
        for point in cfg.kill_points:
            run_dir = root / f"run-{point}"
            if run_dir.exists():
                shutil.rmtree(run_dir)
            report.runs.append(_crash_run(
                cfg, base, schedule, queries, point,
                occurrences[point], truth, run_dir))
    return report
