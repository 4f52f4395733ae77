"""Replica kills and whole-shard blackouts under a request storm.

A :class:`~repro.sharding.ShardedService` (N shards, a replica pair per
shard, per-replica WAL + checkpoints) is driven through a deterministic
request storm while a seeded fault plan kills replicas and blacks out
whole shards mid-storm, and a recovery schedule crash-recovers them a
few requests later via ``QueryService.recover()`` + op-log catch-up.

Two shard fault kinds (:data:`SHARD_FAULT_KINDS`):

* ``shard_kill`` — one replica of a seeded-random shard dies (process
  death: the service object is abandoned, its WAL left as a crash
  would leave it).  The shard keeps answering through the surviving
  replica; answers must stay *byte-identical* to the whole-database
  referee.
* ``shard_blackout`` — every replica of a shard dies.  Requests must
  answer ``status="partial"`` (never silently shrink an "ok" answer),
  and the partial outcome must be byte-identical to the referee
  *restricted to the surviving shards' rows*.

Every mutation the router applies (ingest / delete, with router-stamped
global seg_ids) is mirrored into a plain whole-database
:class:`~repro.ingest.VersionedDatabase`, which the referee reads.
Because the router stamps ids exactly the way the mirror's own append
would, the two id spaces agree and answers compare at the byte level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..ingest import CompactionPolicy, VersionedDatabase
from ..service import SearchRequest
from ..sharding import PARTITION_STRATEGIES, ShardedService
from .harness import Referee, Report, durability_dir, result_bytes, \
    walk_db

__all__ = ["SHARD_FAULT_KINDS", "ShardsConfig", "ShardsReport", "run"]

#: shard-level fault kinds the plan cycles through.
SHARD_FAULT_KINDS = ("shard_kill", "shard_blackout")

REPLICAS_PER_SHARD = 2
#: database size: trajectories x timesteps of random walk.
NUM_TRAJECTORIES = 18
STEPS = 10
NUM_QUERY_SETS = 6
QUERIES_PER_SET = 3
D = 2.5
#: every Nth fault is a whole-shard blackout instead of a single
#: replica kill.
BLACKOUT_EVERY = 3
#: every Nth request ingests one fresh trajectory.
INGEST_EVERY = 9
INGEST_STEPS = 6
#: every Nth request deletes one (eligible) trajectory.
DELETE_EVERY = 31
#: per-shard compaction trigger, small so shards compact mid-storm.
COMPACTION_MAX_DELTA = 48


@dataclass(frozen=True)
class ShardsConfig:
    """Knobs of one shard-chaos campaign; all derive from ``seed``.

    Every ``kill_every``-th request fires one shard fault (0 = storm
    without faults; which shard dies is seeded-random) and the victim
    is crash-recovered ``recover_after`` requests later.  ``durable``
    runs replicas with WAL + checkpoints so recovery goes through
    ``QueryService.recover()``; False exercises the pristine-base +
    full-op-log rejoin path instead."""

    seed: int = 0
    num_requests: int = 120
    num_shards: int = 3
    strategy: str = "round_robin"
    methods: tuple[str, ...] = ("gpu_temporal", "cpu_rtree", "auto",
                                "cpu_scan", "gpu_spatial")
    kill_every: int = 11
    recover_after: int = 7
    durable: bool = True

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of "
                             f"{sorted(PARTITION_STRATEGIES)}")
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")


@dataclass
class ShardsReport(Report):
    """Survival report of one shard-chaos campaign."""

    #: responses by status (ok / partial / overloaded / ...).
    outcomes: dict = field(default_factory=dict)
    #: full (ok) answers byte-identical to the whole-database referee.
    verified: int = 0
    #: partial answers byte-identical to the surviving-shard referee.
    partial_verified: int = 0
    #: request ids whose answer disagreed with the referee.
    mismatches: list = field(default_factory=list)
    #: partial answers issued while every missing shard still had a
    #: live replica (must stay empty: partial strictly means *down*).
    illegitimate_partials: list = field(default_factory=list)
    #: shard faults fired, by kind.
    fired_by_kind: dict = field(default_factory=dict)
    #: replicas crash-recovered and rejoined.
    recoveries: int = 0
    #: True when the post-storm full-coverage request (every replica
    #: recovered) was byte-identical to the referee.
    final_exact: bool = False
    router: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def regimes_missing(self) -> list[str]:
        """Shard fault kinds that never fired, plus ``recovery`` when
        no killed replica rejoined."""
        missing = [k for k in SHARD_FAULT_KINDS
                   if not self.fired_by_kind.get(k)]
        if self.recoveries < 1:
            missing.append("recovery")
        return missing

    @property
    def ok(self) -> bool:
        """Did the sharded service survive: every request accounted,
        zero inexact answers (full or partial), both shard fault kinds
        fired, at least one recovery, every partial legitimate, and
        the post-storm rejoined service exact."""
        return (not self.mismatches
                and not self.illegitimate_partials
                and self.verified == self.outcomes.get("ok", 0)
                and self.partial_verified
                == self.outcomes.get("partial", 0)
                and self.total == self.config.num_requests
                and not self.regimes_missing
                and self.final_exact)


def run(config: ShardsConfig | None = None, *,
        directory=None) -> ShardsReport:
    """Run one seeded shard-chaos campaign; returns its report.

    ``directory`` overrides where the per-replica durable state lives
    (default: a temporary directory; unused when not ``durable``).
    """
    cfg = config or ShardsConfig()
    with durability_dir(directory) as root:
        return _run(cfg, root if cfg.durable else None)


def _run(cfg: ShardsConfig, durability_root) -> ShardsReport:
    database = walk_db(NUM_TRAJECTORIES, STEPS, seed=cfg.seed)
    query_sets = [
        walk_db(QUERIES_PER_SET, STEPS, seed=cfg.seed + 1000 + i,
                id_offset=10_000 + 100 * i)
        for i in range(NUM_QUERY_SETS)
    ]
    compaction = CompactionPolicy(
        max_delta_segments=COMPACTION_MAX_DELTA)
    svc = ShardedService(
        database, num_shards=cfg.num_shards,
        replicas_per_shard=REPLICAS_PER_SHARD,
        strategy=cfg.strategy, durability_root=durability_root,
        service_kwargs={"compaction": compaction})
    #: the whole-database mirror, mutated in lockstep with the router
    #: (its own seg_id counter assigns exactly the ids the router
    #: stamps, so comparisons are byte-exact).
    mirror = VersionedDatabase(database, policy=compaction)
    referee = Referee()

    def truth(qi: int, missing: tuple[int, ...] = ()) -> tuple:
        """Referee bytes for one query set, optionally restricted to
        the shards *not* in ``missing``."""
        only = None
        if missing:
            surviving = [svc.plan.seg_ids_of(s.index)
                         for s in svc.shards
                         if s.replicas and s.index not in missing]
            only = (np.concatenate(surviving) if surviving
                    else np.zeros(0, dtype=np.int64))
        return referee.truth(referee.pin(mirror.snapshot()),
                             (qi, missing), query_sets[qi], D,
                             only_seg_ids=only)

    report = ShardsReport(config=cfg)
    rng = random.Random(f"{cfg.seed}:shard-faults")
    #: (due_request, shard, replica) recovery schedule.
    pending_recoveries: list[tuple[int, int, int]] = []
    faults_fired = 0

    def fire_fault(i: int) -> None:
        nonlocal faults_fired
        candidates = [s.index for s in svc.shards if s.replicas]
        shard = rng.choice(candidates)
        blackout = faults_fired % BLACKOUT_EVERY == BLACKOUT_EVERY - 1
        faults_fired += 1
        if blackout:
            victims = [r.index for r in
                       svc.shards[shard].live_replicas()]
            if svc.blackout_shard(shard):
                report.fired_by_kind["shard_blackout"] = \
                    report.fired_by_kind.get("shard_blackout", 0) + 1
                for k, r in enumerate(victims):
                    pending_recoveries.append(
                        (i + cfg.recover_after + k, shard, r))
        else:
            victim = svc.kill_replica(shard)
            if victim is not None:
                report.fired_by_kind["shard_kill"] = \
                    report.fired_by_kind.get("shard_kill", 0) + 1
                pending_recoveries.append(
                    (i + cfg.recover_after, shard, victim.index))

    def run_recoveries(i: int) -> None:
        due = [p for p in pending_recoveries if p[0] <= i]
        for item in due:
            pending_recoveries.remove(item)
            _, shard, rep = item
            if svc.shards[shard].replicas[rep].live:
                continue  # re-killed and re-scheduled; later entry wins
            svc.recover_replica(shard, rep)
            report.recoveries += 1

    def eligible_delete() -> int | None:
        """A live trajectory whose delete empties no shard."""
        live = sorted(tid for tid in svc.plan._traj_shards
                      if tid not in svc._tombstones
                      and tid < 10_000  # never delete query ids
                      and not svc.plan.would_empty(tid))
        return rng.choice(live) if live else None

    def verify(i: int, resp) -> None:
        rid = f"q{i:04d}"
        qi = i % len(query_sets)
        report.outcomes[resp.status] = \
            report.outcomes.get(resp.status, 0) + 1
        if resp.status == "ok":
            if result_bytes(resp.outcome.results) == truth(qi):
                report.verified += 1
            else:
                report.mismatches.append(rid)
        elif resp.status == "partial":
            live = svc.live_map()
            if any(live.get(s) for s in resp.missing_shards):
                report.illegitimate_partials.append(rid)
            if result_bytes(resp.outcome.results) == truth(
                    qi, resp.missing_shards):
                report.partial_verified += 1
            else:
                report.mismatches.append(rid)

    for i in range(cfg.num_requests):
        run_recoveries(i)
        if cfg.kill_every and i and i % cfg.kill_every == 0:
            fire_fault(i)
        if i and i % INGEST_EVERY == 0:
            fresh = walk_db(1, INGEST_STEPS, seed=cfg.seed + 5000 + i,
                            id_offset=50_000 + i)
            svc.ingest(fresh)
            mirror.append(fresh)
        if i and i % DELETE_EVERY == 0:
            tid = eligible_delete()
            if tid is not None:
                svc.delete_trajectory(tid)
                mirror.delete_trajectory(tid)
        resp = svc.submit(SearchRequest(
            queries=query_sets[i % len(query_sets)], d=D,
            method=cfg.methods[i % len(cfg.methods)],
            request_id=f"q{i:04d}"))
        verify(i, resp)

    # Post-storm: every dead replica rejoins (the "killed shard
    # rejoins via recover() within the same campaign" gate), then one
    # full-coverage request must be exact again.
    for shard in svc.shards:
        for replica in shard.replicas:
            if not replica.live:
                svc.recover_replica(shard.index, replica.index)
                report.recoveries += 1
    final = svc.submit(SearchRequest(
        queries=query_sets[0], d=D, method="cpu_scan",
        request_id="final"))
    report.final_exact = (final.ok and result_bytes(
        final.outcome.results) == truth(0))
    report.router = svc.stats()
    svc.shutdown()
    return report
