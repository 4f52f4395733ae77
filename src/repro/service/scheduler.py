"""The batched query service: device pool, engine cache, adaptive
selection, resilient serving.

:class:`QueryService` is the serving-layer composition of everything the
repository already knows how to do:

* **Index caching** — engines are built once per (database, method,
  parameters) and reused across batches (:mod:`repro.service.cache`);
  the index build is the paper's offline phase and is excluded from
  modeled response time, but its wall cost is reported per request.
* **Adaptive engine selection** — ``method="auto"`` asks the cost-based
  planner (:func:`repro.core.planner.plan_search`) to rank engines for
  the batch's workload and uses the winner.
* **Device pool** — a :class:`DevicePool` of virtual GPUs with modeled
  per-lane clocks: concurrent batches queue on the lane their engine is
  homed on, and a request's ``queue_wait_s`` is the modeled time it
  spent waiting for its device.  (Partitioning the database is a
  deployment decision, not a per-request one: see
  :class:`repro.sharding.ShardedService`.)

And the failure-handling layer (see ``docs/ARCHITECTURE.md``,
*Failure model & resilience*):

* **Failover ladder** — when the requested/planned engine fails (index
  build or search, including faults injected by
  :mod:`repro.faults`), the request is re-planned down a deterministic
  ladder: the other GPU engines, then ``cpu_rtree``, then the
  index-free ``cpu_scan``.  The response reports ``degraded=True``,
  the failing rung, and the hop count.
* **Circuit breakers** — consecutive failures of one engine open a
  per-engine :class:`~repro.service.resilience.CircuitBreaker`;
  while open, requests skip that rung instead of paying the failure
  again, and a half-open probe re-admits the engine once it recovers.
* **Lane health** — consecutive failures on one device lane quarantine
  it: its cached engines are invalidated (indexes on a dead card are
  gone), new builds avoid it, and after the quarantine window it is
  probationally re-admitted.
* **Deadlines** — ``request.deadline_s`` opens a
  :func:`~repro.engines.base.deadline_scope` so one wall-clock budget
  bounds the engine retry loop *and* the failover ladder; an exhausted
  budget yields a typed ``deadline_exceeded`` rejection.
* **Verified failover** — a deterministic sample of failover responses
  is cross-checked against a fresh ``cpu_scan`` over the full database;
  mismatches are counted and logged (none are expected: degraded must
  mean *slower*, never *wrong*).

Refusing work under overload is not this layer's job: the gateway's
bounded admission queues and brownout ladder
(:mod:`repro.gateway`) are the one overload control.

Scheduling uses the *modeled* clock, consistent with the rest of the
repository: wall time measures the simulator, modeled time measures the
machine the paper ran on.  Retry backoff and recovery windows live on
the same modeled clock — chaos tests run at full wall speed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.planner import DatabaseProfile, plan_search
from ..core.search import SearchOutcome
from ..core.types import SegmentArray
from ..durability import DurabilityManager, DurabilityPolicy
from ..engines.base import (Deadline, DeadlineExceededError, GpuEngineBase,
                            RetryPolicy, deadline_scope)
from ..engines.config import ConfigError, _require_positive_int
from ..engines.registry import available, get_engine
from ..engines.cpu_scan import CpuScanEngine
from ..gpu.costmodel import price
from ..gpu.device import TESLA_C2075, VirtualGPU
from ..gpu.profiler import CpuSearchProfile, RequestMetrics
from ..ingest import (CompactionPolicy, CompactionResult,
                      IngestReceipt, Mutation, Snapshot,
                      VersionedDatabase, overlay_search)
from ..obs import Telemetry
from ..standing import StandingQueryManager, StandingStore, Subscription
from .cache import (CacheEntry, EngineCache, canonical_params,
                    database_fingerprint)
from .requests import SearchRequest, SearchResponse
from .resilience import CircuitBreaker, LaneHealth, NoUsableLaneError

__all__ = ["DeviceLane", "DevicePool", "QueryService"]

#: planner knobs a request may override through ``params`` hints.
_PLANNER_HINTS = ("num_bins", "num_subbins", "cells_per_dim",
                  "segments_per_mbb")


def _cache_key(db_key, method: str, params: dict):
    """``(cache key, validated config)`` of engine ``method`` built
    with ``params`` over the base ``db_key`` names.  The key holds the
    canonical *validated* parameters, so spellings of one configuration
    share an entry; a config-less engine keys on ``params`` as given
    (its config is None)."""
    cfg_type = get_engine(method).config_type
    if cfg_type is None:
        return (db_key, method, canonical_params(params)), None
    cfg = cfg_type.from_params(**params)
    return (db_key, method, canonical_params(cfg.to_dict())), cfg


@dataclass
class DeviceLane:
    """One device's modeled timeline and health (its residency is the
    engine cache's :meth:`~repro.service.cache.EngineCache.lane_bytes`)."""

    index: int
    #: modeled time at which the lane next becomes free.
    busy_until: float = 0.0
    #: quarantine/probation state machine (modeled clock).
    health: LaneHealth = field(default_factory=LaneHealth)


class DevicePool:
    """A pool of identical virtual GPUs (the paper's C2075) plus one
    host lane.

    Engines are *homed* on the least-loaded usable lane when built and
    stay there (indexes are device-resident; migrating one would be a
    rebuild).  Each engine still owns a private :class:`VirtualGPU` —
    real devices isolate contexts, and sharing one memory manager would
    collide allocation names — so a lane models the *timeline and
    capacity* of a card, not a shared address space.

    Each lane also carries a
    :class:`~repro.service.resilience.LaneHealth`:
    ``LANE_FAILURE_THRESHOLD`` consecutive failures quarantine the lane
    for ``quarantine_s`` modeled seconds (doubling on repeat offenses),
    after which it is probationally re-admitted.
    The host lane is never quarantined — CPU engines are the fallback
    of last resort and must stay reachable.
    """

    #: lane index used for CPU engines (host execution).
    HOST_LANE = -1

    def __init__(self, num_devices: int = 1, *,
                 quarantine_s: float = 60.0) -> None:
        if num_devices < 1:
            raise ValueError("pool needs at least one device")
        if quarantine_s <= 0:
            raise ValueError("quarantine_s must be positive")
        self.quarantine_s = quarantine_s
        self.lanes = [DeviceLane(i) for i in range(num_devices)]
        self.host = DeviceLane(self.HOST_LANE)

    @property
    def num_devices(self) -> int:
        return len(self.lanes)

    @property
    def total_mem_bytes(self) -> int:
        return self.num_devices * TESLA_C2075.global_mem_bytes

    def lane(self, index: int) -> DeviceLane:
        return self.host if index == self.HOST_LANE else self.lanes[index]

    def usable_lanes(self) -> list[DeviceLane]:
        """GPU lanes currently accepting work (healthy or probation)."""
        return [lane for lane in self.lanes if lane.health.usable]

    def home_for(self, lane_bytes: Callable[[int], int]) -> DeviceLane:
        """Pick the usable lane with the most free memory for a new
        engine, ``lane_bytes(index)`` being the device bytes already
        homed there; raises :class:`NoUsableLaneError` when every GPU
        lane is quarantined (the failover ladder then moves on to
        CPU)."""
        usable = self.usable_lanes()
        if not usable:
            raise NoUsableLaneError(
                f"all {self.num_devices} GPU lanes are quarantined")
        return min(usable, key=lambda lane: lane_bytes(lane.index))

    def busiest_until(self) -> float:
        """Latest modeled busy_until across all lanes (incl. host)."""
        return max(self.host.busy_until,
                   *(lane.busy_until for lane in self.lanes))

    # -- health ------------------------------------------------------------------

    def refresh_health(self, now: float) -> list[int]:
        """Expire quarantine windows; returns lanes that just entered
        probation."""
        return [lane.index for lane in self.lanes
                if lane.health.refresh(now)]

    def record_lane_failure(self, index: int, now: float) -> bool:
        """Charge one failure to a lane; True when it was quarantined.
        The host lane absorbs failures without ever quarantining."""
        if index == self.HOST_LANE:
            return False
        return self.lanes[index].health.record_failure(
            now, quarantine_s=self.quarantine_s)

    def record_lane_success(self, index: int) -> bool:
        """Credit one served request to a lane; True when this
        re-admitted a probational lane."""
        if index == self.HOST_LANE:
            return False
        return self.lanes[index].health.record_success()


class QueryService:
    """Batched distance-threshold query service over one database.

    Parameters
    ----------
    database:
        The entry-segment database all requests search against.
    num_devices:
        Size of the simulated GPU pool; every device is the paper's
        Tesla C2075, and every profile is priced on the paper's machine
        (:func:`repro.gpu.costmodel.price`).
    retry:
        Overflow retry policy installed into every GPU engine the
        service builds (None = the engines' default policy).
    telemetry:
        The :class:`~repro.obs.Telemetry` hub the service records
        into (None = a fresh enabled hub).  Pass
        ``Telemetry(enabled=False)`` to switch instrumentation off.
    faults:
        A :class:`~repro.faults.FaultInjector` wired into every
        :class:`VirtualGPU` the service builds (None = no injection).
        Chaos tests use this; production-shaped runs leave it unset.
    breaker_reset_s:
        Modeled seconds an open per-engine circuit breaker waits
        before a half-open probe (it opens after
        ``resilience.BREAKER_FAILURE_THRESHOLD`` consecutive failures).
    lane_quarantine_s:
        Base modeled quarantine window of a device lane, doubling per
        repeat offense (a lane is quarantined after
        ``resilience.LANE_FAILURE_THRESHOLD`` consecutive failures).
    crosscheck_every:
        Cross-check every Nth failover response against ``cpu_scan``
        ground truth (0 disables the sampling).

    The engine cache's byte budget is the pool's aggregate device
    memory (``num_devices`` × the C2075's 6 GiB).
    """

    FALLBACK_METHOD = "cpu_scan"
    #: GPU rungs of the failover ladder, in preference order.
    GPU_LADDER = ("gpu_temporal", "gpu_spatiotemporal", "gpu_spatial")
    #: CPU rungs: the indexed host engine, then the index-free scan.
    CPU_LADDER = ("cpu_rtree", "cpu_scan")
    #: query-sample size the planner ranks engines with, for
    #: ``method="auto"`` and ``repro plan`` alike.
    PLANNER_SAMPLE = 32

    def __init__(self, database: SegmentArray | VersionedDatabase, *,
                 num_devices: int = 1,
                 retry: RetryPolicy | None = None,
                 telemetry: Telemetry | None = None,
                 faults=None,
                 breaker_reset_s: float = 30.0,
                 lane_quarantine_s: float = 60.0,
                 crosscheck_every: int = 8,
                 compaction: CompactionPolicy | None = None,
                 auto_compact: bool = True,
                 durability_dir=None,
                 durability: DurabilityPolicy | None = None,
                 durability_kill=None) -> None:
        if crosscheck_every < 0:
            raise ValueError("crosscheck_every must be >= 0")
        if durability is not None and durability_dir is None:
            raise ValueError("a DurabilityPolicy needs a "
                             "durability_dir to apply to")
        #: the live, versioned database: appends/tombstones land in its
        #: delta; the engines index its (stable) base.
        if isinstance(database, VersionedDatabase):
            # Pre-built (typically by QueryService.recover); adopted
            # as-is so the recovered epoch/counters survive.
            self.versioned = database
            if compaction is not None:
                self.versioned.policy = compaction
        else:
            if len(database) == 0:
                raise ValueError("service needs a non-empty database")
            self.versioned = VersionedDatabase(database,
                                               policy=compaction)
        self.auto_compact = auto_compact
        self.pool = DevicePool(num_devices, quarantine_s=lane_quarantine_s)
        self.cache = EngineCache(self.pool.total_mem_bytes,
                                 on_evict=self._on_evict)
        self.retry = retry
        self.faults = faults
        self.breaker_reset_s = breaker_reset_s
        self.crosscheck_every = crosscheck_every
        #: the unified telemetry hub: metrics registry, tracer,
        #: structured event log, slow-query log.
        self.telemetry = telemetry or Telemetry()
        self._clock = 0.0
        self._num_requests = 0
        self._degradations = 0
        self._failover_serves = 0
        self._crosschecks = 0
        #: request ids whose failover response disagreed with cpu_scan
        #: ground truth (expected to stay empty).
        self.crosscheck_mismatches: list[str] = []
        self._breakers: dict[str, CircuitBreaker] = {}
        #: last gauged breaker/lane states, for transition counters.
        self._breaker_states: dict[str, str] = {}
        self._lane_states: dict[int, str] = {}
        self._truth_cache: tuple[int, CpuScanEngine] | None = None
        self._fp_version = -1
        self._fp = ""
        #: the planner's (base_version, profile) of the current base.
        self._plan_profile: tuple[int, DatabaseProfile] | None = None
        self._prewarm_failures = 0
        #: write-ahead logging + checkpoints (None = memory-only).
        self.durability: DurabilityManager | None = None
        #: the last RecoveryResult (set by :meth:`recover`).
        self.last_recovery = None
        self._shut_down = False
        if durability_dir is not None:
            manager = DurabilityManager(durability_dir,
                                        policy=durability,
                                        kill=durability_kill)
            with self.telemetry.activate():
                # A recovered database re-attaches to its own
                # directory: the state on disk *is* this database, so
                # no bootstrap checkpoint is needed.
                if not (isinstance(database, VersionedDatabase)
                        and manager.has_state):
                    manager.attach(self.versioned)
            self.durability = manager
        #: continuous subscriptions maintained delta-aware per epoch
        #: (durable alongside the WAL when the service is durable).
        self.standing = StandingQueryManager(
            store=(StandingStore(self.durability.directory)
                   if self.durability is not None else None),
            telemetry=self.telemetry)

    @property
    def database(self) -> SegmentArray:
        """The current *base* — what the cached indexes are built over.

        Appends live in the delta until compaction folds them in; use
        ``current_snapshot().logical()`` for the full logical database.
        """
        return self.versioned.base

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the current base (cache-key root).

        Stable across appends and deletes — only a compaction, which
        physically rewrites the base, changes it.  That stability is
        what lets a warm base engine survive ingestion.
        """
        if self._fp_version != self.versioned.base_version:
            self._fp = database_fingerprint(self.versioned.base)
            self._fp_version = self.versioned.base_version
        return self._fp

    # -- public API ---------------------------------------------------------------

    def submit(self, request: SearchRequest, *,
               snapshot: Snapshot | None = None) -> SearchResponse:
        """Serve one request (a batch of one)."""
        return self.submit_batch([request], snapshot=snapshot)[0]

    def submit_batch(self, requests: list[SearchRequest], *,
                     snapshot: Snapshot | None = None
                     ) -> list[SearchResponse]:
        """Serve a batch of requests arriving together.

        All requests share one modeled arrival instant (the current
        service clock); each queues on the lane of the engine serving
        it, so requests on different devices overlap while requests
        contending for one index serialize — that contention is exactly
        what ``queue_wait_s`` reports.

        The whole batch is served against one *pinned*
        :class:`~repro.ingest.Snapshot` — by default the database state
        at arrival, MVCC-style; a client that captured an earlier
        ``current_snapshot()`` may pass it to read that version even
        after later ingests or compactions.
        """
        arrival = self._clock
        snapshot = snapshot or self.versioned.snapshot()
        with self.telemetry.activate(), \
                self.telemetry.span("service.batch",
                                    batch_size=len(requests),
                                    epoch=snapshot.epoch) as span:
            responses = [self._serve(r, arrival, snapshot)
                         for r in requests]
            span.set_modeled(arrival,
                             self.pool.busiest_until() - arrival)
        self._clock = max(self._clock, self.pool.busiest_until())
        return responses

    def current_snapshot(self) -> Snapshot:
        """Pin the current database version (see
        :meth:`submit_batch`)."""
        return self.versioned.snapshot()

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, segments, *,
               keep_seg_ids: bool = False,
               idempotency_key: str | None = None) -> IngestReceipt:
        """Append trajectory segments without rebuilding the base index.

        Accepts whatever :meth:`~repro.ingest.VersionedDatabase.append`
        accepts (a :class:`~repro.core.types.Trajectory`, a list of
        them, or a raw :class:`~repro.core.types.SegmentArray`).  The
        rows land in the delta; queries see them immediately through
        the delta-overlay scan while every warm base engine stays
        cached.  ``keep_seg_ids=True`` preserves caller-stamped segment
        ids (the sharded router's global stamping — see
        :meth:`~repro.ingest.VersionedDatabase.append`).  When the
        append pushes the delta over the compaction policy and
        ``auto_compact`` is on, compaction runs before returning (off
        the query hot path — no request is in flight between batches).

        ``idempotency_key`` makes the append exactly-once under client
        retries: a key already in the dedup table short-circuits —
        nothing is WAL-logged or applied, and the original receipt is
        returned with ``deduplicated=True``.  The table is carried in
        WAL records and checkpoints, so dedup survives a crash/recover.
        """
        return self.apply(Mutation(
            "append", segments=segments, keep_seg_ids=keep_seg_ids,
            idempotency_key=idempotency_key))

    def delete_trajectory(self, traj_id: int, *,
                          idempotency_key: str | None = None) -> int:
        """Tombstone one trajectory; its segments disappear from query
        results at refinement time.  The base index is untouched — the
        rows are physically dropped at the next compaction.  Returns
        the number of segments hidden.  ``idempotency_key`` deduplicates
        client retries exactly like :meth:`ingest`."""
        return self.apply(Mutation("delete", traj_id=traj_id,
                                   idempotency_key=idempotency_key))

    def compact(self) -> CompactionResult:
        """Force a compaction now (policy thresholds ignored)."""
        return self.apply(Mutation("compact"))

    def apply(self, mutation: Mutation):
        """The write pipeline, of which :meth:`ingest` /
        :meth:`delete_trajectory` / :meth:`compact` are the public
        spellings: keyed dedup, :meth:`_commit` (validate, WAL,
        apply), the op's telemetry, the standing pass for the new
        epoch, a policy compaction and a periodic checkpoint when due.
        A compact is :meth:`_compact` whole, as a policy compaction is.
        """
        with self.telemetry.activate():
            if mutation.op == "compact":
                return self._compact(trigger="manual")
            scope = (self.telemetry.span("service.ingest")
                     if mutation.op == "append" else
                     self.telemetry.span("service.delete",
                                         traj_id=mutation.traj_id))
            with scope as span:
                result = self.versioned.replayed(mutation)
                if result is not None:
                    return result
                result = self._commit(mutation)
                self._gauge_ingest()
                reg = self.telemetry.metrics
                if mutation.op == "append":
                    span.set_attributes(epoch=result.epoch,
                                        segments=result.num_segments)
                    reg.counter("repro_ingest_total",
                                "ingest (append) operations").inc()
                    reg.counter("repro_ingest_segments_total",
                                "segments appended to the delta").inc(
                        result.num_segments)
                    self.telemetry.events.emit(
                        "ingest", epoch=result.epoch,
                        delta_epoch=result.delta_epoch,
                        segments=result.num_segments,
                        trajectories=list(result.trajectory_ids),
                        compaction_due=result.compaction_due)
                else:
                    reg.counter("repro_tombstones_total",
                                "trajectories tombstoned").inc()
                    self.telemetry.events.emit(
                        "delete", traj_id=mutation.traj_id,
                        epoch=self.versioned.epoch,
                        hidden_segments=result)
                if mutation.op == "append" or result:
                    # A delete that hid nothing made no epoch (and
                    # logged none): there is no epoch to settle.
                    self.standing.process_mutation(self.versioned,
                                                   mutation)
                if self.auto_compact and self.versioned.should_compact():
                    self._compact(trigger="policy")
                if self.durability is not None \
                        and self.durability.checkpoint_due():
                    self._checkpoint()
        return result

    def _commit(self, mutation: Mutation):
        """The write-ahead order every mutation takes: validate, log +
        sync (durable services), apply in memory.  A no-op (deleting
        an already-tombstoned id) is not logged: it must not consume
        an epoch in the WAL."""
        if self.durability is not None \
                and self.versioned.check(mutation):
            self.durability.log(self.versioned, mutation)
        return self.versioned.apply(mutation)

    def _compact(self, *, trigger: str) -> CompactionResult:
        """Fold the delta into a fresh base and re-warm the cache.

        Engines cached for the outgoing base that served a request
        since they were built are remembered, the stale entries
        invalidated, and the same (method, params) engines are
        rebuilt over the new base *inside this call* — off the query
        hot path, but on the virtual GPU like any other build, so
        injected faults (chaos) can and do fire mid-compaction.  A
        failed prewarm build is logged and skipped: the next request
        simply pays a cache miss (or walks the failover ladder).
        """
        mutation = Mutation("compact")
        old_fp = self.fingerprint
        cached = [e for e in self.cache.entries() if e.key[0] == old_fp]
        warm = [(e.key[1], e.key[2]) for e in cached if e.served]
        with self.telemetry.span("service.compaction",
                                 trigger=trigger) as span:
            result = self._commit(mutation)
            span.set_attributes(merged=result.merged_segments,
                                dropped=result.dropped_segments,
                                base_rows=result.new_base_rows)
            reg = self.telemetry.metrics
            reg.counter("repro_compactions_total",
                        "delta-into-base compactions").inc(
                trigger=trigger)
            reg.histogram("repro_compaction_seconds",
                          "compaction wall seconds").observe(
                result.wall_seconds)
            stale = self._invalidate_stale_bases()
            self._gauge_ingest()
            # Compaction cannot change any answer (it preserves
            # logical()), but the pass still stamps the epoch.
            self.standing.process_mutation(self.versioned, mutation)
            self.telemetry.events.emit(
                "compaction", trigger=trigger, epoch=result.epoch,
                base_version=result.base_version,
                merged_segments=result.merged_segments,
                dropped_segments=result.dropped_segments,
                new_base_rows=result.new_base_rows,
                stale_entries=stale, prewarm=len(warm),
                prewarm_skipped=len(cached) - len(warm))
            for method, canon in warm:
                self._prewarm(method, dict(canon),
                              "compaction_prewarm_failed")
            if self.durability is not None:
                # Replaying a compaction is the most expensive replay
                # step, so every one is folded into a checkpoint —
                # after the prewarm, so the rebuilt engines' recipes
                # land in it.  The crash campaign kills here:
                # the compact WAL record is durable, the checkpoint
                # rename has not happened.
                self._checkpoint(kill_point="compact_mid")
        return result

    def _prewarm(self, method: str, params: dict, event: str) -> bool:
        """Build one previously-warm engine over the current base, after
        a compaction or during recovery; a failure is counted and
        logged as ``event`` and returns False (prewarm is best-effort:
        the next request simply pays a cache miss)."""
        try:
            self._engine_entry(self.database, method, params,
                               self.fingerprint, RequestMetrics())
        except Exception as exc:  # noqa: BLE001 - prewarm is best-effort
            self._prewarm_failures += 1
            self.telemetry.metrics.counter(
                "repro_prewarm_failures_total",
                "engine prewarms (after a compaction or during recovery) "
                "that failed").inc(engine=method)
            self.telemetry.events.emit(
                event, engine=method,
                error=f"{type(exc).__name__}: {exc}")
            return False
        return True

    def _invalidate_stale_bases(self) -> int:
        """Drop cached engines whose base was compacted away."""
        current = self.fingerprint
        return self.cache.invalidate_where(
            lambda e: e.key[0] != current)

    def _gauge_ingest(self) -> None:
        reg = self.telemetry.metrics
        v = self.versioned
        reg.gauge("repro_snapshot_epoch",
                  "current database epoch").set(v.epoch)
        reg.gauge("repro_delta_segments",
                  "segments pending in the delta").set(v.delta_rows)
        reg.gauge("repro_delta_ratio",
                  "delta rows over base rows").set(
            v.delta_rows / len(v.base) if len(v.base) else 0.0)
        reg.gauge("repro_tombstoned_trajectories",
                  "live tombstones").set(v.num_tombstones)

    # -- standing queries --------------------------------------------------------

    def register_subscription(self, sub: Subscription) -> dict:
        """Register a continuous query; its initial answer settles
        against the current snapshot and subsequent epochs stream
        ``match_added``/``match_removed`` delta events.  Durable
        services persist the subscription (it survives
        :meth:`recover`)."""
        with self.telemetry.activate():
            return self.standing.register(sub, self.current_snapshot())

    def unregister_subscription(self, sub_id: str) -> dict:
        """Drop a subscription and its maintained match set."""
        with self.telemetry.activate():
            return self.standing.unregister(
                sub_id, epoch=self.versioned.epoch)

    def poll_subscription(self, sub_id: str, *,
                          since_seq: int = -1) -> dict:
        """One subscription's current matches + delta events after
        ``since_seq`` (the client-facing incremental read); raises
        :class:`~repro.standing.EventsExpiredError` when some of those
        events are no longer buffered, and the client resyncs from
        ``matches``."""
        return self.standing.poll(sub_id, since_seq=since_seq)

    # -- durability --------------------------------------------------------------

    def checkpoint(self):
        """Write a durable checkpoint now; returns its path.  The WAL
        is truncated through the oldest checkpoint kept and the warm
        engines' recipes are persisted for the restart prewarm."""
        if self.durability is None:
            raise ValueError("service has no durability_dir; there is "
                             "nothing to checkpoint to")
        with self.telemetry.activate():
            return self._checkpoint()

    def _checkpoint(self, *, kill_point: str = "checkpoint_mid"):
        path = self.durability.checkpoint(
            self.versioned, warm_engines=self._warm_engines(),
            kill_point=kill_point)
        # The standing state follows its checkpoint: a kill inside the
        # checkpoint leaves the older state, so recovery re-derives the
        # events of this epoch that no client has drained yet.  The
        # checkpoint truncated the WAL only through the one before it,
        # and no saved state is older than that.
        self.standing.save_state(self.versioned.epoch)
        return path

    def _warm_engines(self) -> list[tuple[str, dict]]:
        """``(method, params)`` recipes worth persisting in a
        checkpoint: the engines over the current base."""
        current = self.fingerprint
        return [(entry.key[1], dict(entry.key[2]))
                for entry in self.cache.entries()
                if entry.key[0] == current]

    @classmethod
    def recover(cls, durability_dir, *,
                policy: DurabilityPolicy | None = None,
                kill=None, telemetry: Telemetry | None = None,
                **kwargs) -> "QueryService":
        """Rebuild a service from its durability directory.

        Loads the newest valid checkpoint, replays the WAL tail
        (dropping a CRC-torn final record), and returns a service at
        the exact pre-crash logical epoch.  Standing subscriptions come
        back from their saved state, moved forward by the same replay
        (:meth:`~repro.standing.StandingQueryManager.recover`).
        Every warm-engine recipe the checkpoint lists is rebuilt into
        the cache, so the first post-restart request is a cache hit.
        Extra keyword arguments are forwarded to the constructor.
        """
        telemetry = telemetry or Telemetry()
        manager = DurabilityManager(durability_dir, policy=policy,
                                    kill=kill)
        standing = StandingQueryManager(
            store=StandingStore(manager.directory), telemetry=telemetry)
        with telemetry.activate(), \
                telemetry.span("service.recovery",
                               directory=str(manager.directory)) as sp:
            result = standing.recover(manager)
            service = cls(result.database, telemetry=telemetry,
                          **kwargs)
            service.durability = manager
            service.standing = standing
            service.last_recovery = result
            prewarmed = service._prewarm_recovered(result)
            sp.set_attributes(
                checkpoint_epoch=result.checkpoint_epoch,
                epoch=result.epoch, replayed=result.replayed,
                torn_dropped=result.torn_dropped,
                prewarmed=prewarmed,
                standing_subscriptions=len(standing.subscriptions),
                standing_replayed=standing.totals["replayed_events"])
        return service

    def _prewarm_recovered(self, result) -> int:
        """Rebuild every recipe a recovery returned; returns the number
        of engines built."""
        prewarmed = 0
        for recipe in result.engines:
            if recipe.method in available() and self._prewarm(
                    recipe.method, dict(recipe.params),
                    "recovery_prewarm_failed"):
                prewarmed += 1
                self.telemetry.metrics.counter(
                    "repro_recovery_prewarmed_total",
                    "engines prewarmed during recovery").inc(
                    engine=recipe.method)
        # The checkpoint listed these engines because they were being
        # served; a restart must not make the next compaction forget it.
        for entry in self.cache.entries():
            entry.served += 1
        return prewarmed

    def shutdown(self) -> None:
        """Flush the observability logs next to the durable state and
        close the WAL.  Idempotent; non-durable services no-op."""
        if self._shut_down:
            return
        self._shut_down = True
        if self.durability is None:
            return
        self.standing.save_state(self.versioned.epoch)
        directory = self.durability.directory
        try:
            self.telemetry.events.write_jsonl(
                directory / "events.jsonl")
            self.telemetry.slow_log.write_jsonl(
                directory / "slow_queries.jsonl")
        finally:
            self.durability.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def stats(self) -> dict:
        """Service-level counters for dashboards and tests.

        ``num_requests`` counts every request the service took in,
        including one refused by a raised error; the numbers do not
        depend on whether telemetry is enabled.
        """
        return {
            "num_requests": self._num_requests,
            "cache": self.cache.stats.to_dict(),
            "cached_engines": len(self.cache),
            "cache_resident_bytes": self.cache.resident_bytes,
            "num_devices": self.pool.num_devices,
            "clock_s": self._clock,
            "lane_busy_until_s": [lane.busy_until
                                  for lane in self.pool.lanes],
            "degradations": self._degradations,
            "slow_queries": len(self.telemetry.slow_log),
            "failover_serves": self._failover_serves,
            "crosschecks": self._crosschecks,
            "crosscheck_mismatches": list(self.crosscheck_mismatches),
            "lane_health": {str(lane.index): lane.health.to_dict()
                            for lane in self.pool.lanes},
            "breakers": {m_: b.to_dict()
                         for m_, b in sorted(self._breakers.items())},
            "ingest": {**self.versioned.stats(),
                       "prewarm_failures": self._prewarm_failures},
            "standing": self.standing.stats(),
            "durability": (self.durability.stats()
                           if self.durability is not None else None),
        }

    # -- request execution ----------------------------------------------------------

    def _serve(self, request: SearchRequest, arrival: float,
               snapshot: Snapshot) -> SearchResponse:
        self._num_requests += 1
        metrics = RequestMetrics()
        metrics.arrival_s = arrival
        metrics.snapshot_epoch = snapshot.epoch
        metrics.delta_segments = len(snapshot.live_delta())
        deadline = (Deadline.after(request.deadline_s)
                    if request.deadline_s is not None else None)
        with self.telemetry.span(
                "service.request", request_id=request.request_id,
                method=request.method, epoch=snapshot.epoch) as span:
            for lane_idx in self.pool.refresh_health(arrival):
                self._note_lane_probation(lane_idx)
            with deadline_scope(deadline):
                response = self._serve_ladder(request, arrival, metrics,
                                              deadline, snapshot)
            span.set_attributes(engine=metrics.engine,
                                cache_hit=metrics.cache_hit,
                                degraded=metrics.degraded,
                                status=response.status)
            span.set_modeled(arrival, metrics.queue_wait_s
                             + metrics.modeled_seconds)
        self._finish_request(request, response)
        return response

    def _serve_ladder(self, request: SearchRequest, arrival: float,
                      metrics: RequestMetrics,
                      deadline: Deadline | None,
                      snapshot: Snapshot) -> SearchResponse:
        """Walk the failover ladder until a rung serves the request."""
        method, params = self._resolve_method(request, metrics,
                                              snapshot)
        ladder = self._failover_ladder(method)
        first_failure: str | None = None
        last_exc: Exception | None = None
        for hop, rung in enumerate(ladder):
            if deadline is not None and deadline.expired:
                return self._reject(
                    request, metrics, "deadline_exceeded",
                    f"budget of {request.deadline_s}s exhausted after "
                    f"{hop} ladder rungs"
                    + (f"; first failure: {first_failure}"
                       if first_failure else ""))
            breaker = self._breaker(rung)
            if not breaker.allow(arrival):
                self._note_breaker_skip(request, rung)
                if first_failure is None:
                    first_failure = f"{rung}: circuit breaker open"
                continue
            try:
                response = self._attempt(request, rung,
                                         params if hop == 0 else {},
                                         hop, arrival, metrics,
                                         snapshot)
            except ConfigError:
                raise  # caller error: bad parameters, not degradation
            except DeadlineExceededError as exc:
                return self._reject(request, metrics,
                                    "deadline_exceeded", str(exc))
            except NoUsableLaneError as exc:
                # Not the engine's fault — no breaker penalty; move to
                # a rung that does not need a GPU lane.
                first_failure = first_failure or \
                    f"{rung}: {type(exc).__name__}: {exc}"
                self._note_engine_failure(request, rung, hop, exc)
                continue
            except Exception as exc:  # noqa: BLE001 - any rung failure fails over
                if breaker.record_failure(arrival):
                    self.telemetry.events.emit(
                        "breaker_open", engine=rung,
                        trips=breaker.trips)
                self._gauge_breaker(rung, breaker)
                first_failure = first_failure or \
                    f"{rung}: {type(exc).__name__}: {exc}"
                last_exc = exc
                self._note_engine_failure(request, rung, hop, exc)
                continue
            if breaker.record_success():
                self.telemetry.events.emit("breaker_closed",
                                           engine=rung)
            self._gauge_breaker(rung, breaker)
            if hop > 0:
                metrics.failovers = hop
                self._failover_serves += 1
                self._record_degradation(request, method,
                                         first_failure, metrics,
                                         fallback=rung)
                self._maybe_crosscheck(request, response, snapshot)
            return response
        if last_exc is not None:
            raise last_exc  # every rung failed; surface the last error
        # Nothing even ran: every rung's breaker is open.
        return self._reject(request, metrics, "overloaded",
                            "circuit breakers open for every engine "
                            f"in the ladder {ladder}")

    def _attempt(self, request: SearchRequest, method: str,
                 params: dict, hop: int, arrival: float,
                 metrics: RequestMetrics,
                 snapshot: Snapshot) -> SearchResponse:
        """Build (or fetch) the engine for one rung and execute.

        The cache key is rooted at the snapshot's *base* fingerprint,
        which ingestion does not change: a warm engine keeps hitting
        across appends/deletes, and only a compaction (new base) misses.
        """
        span = (self.telemetry.span("service.failover",
                                    request_id=request.request_id,
                                    engine=method, hop=hop)
                if hop else nullcontext())
        with span:
            entry, metrics.cache_hit = self._engine_entry(
                snapshot.base, method, params,
                self._base_fingerprint(snapshot), metrics)
            entry.served += 1
            return self._execute(request, method, entry, arrival,
                                 metrics, snapshot)

    def _failover_ladder(self, method: str) -> list[str]:
        """The rung sequence for a request that asked for ``method``.

        GPU methods fail over to the other GPU schemes first (a fault
        may be engine- or index-specific), then to the CPU rungs.  CPU
        methods never fail *up* to a GPU: ``cpu_rtree`` falls back to
        ``cpu_scan``; ``cpu_scan`` has no rung below it.
        """
        ladder = [method]
        cls = (get_engine(method)
               if method in available() else None)
        if cls is not None and issubclass(cls, GpuEngineBase):
            ladder += [m for m in self.GPU_LADDER
                       if m != method and m in available()]
        ladder += [m for m in self.CPU_LADDER
                   if m not in ladder and m in available()]
        return ladder

    def _reject(self, request: SearchRequest, metrics: RequestMetrics,
                status: str, reason: str) -> SearchResponse:
        return SearchResponse(request_id=request.request_id,
                              outcome=None, metrics=metrics,
                              status=status, reason=reason)

    def _finish_request(self, request: SearchRequest,
                        response: SearchResponse) -> None:
        """Record the per-request metrics, event, and slow-query entry."""
        m = response.metrics
        reg = self.telemetry.metrics
        if not response.ok:
            reg.counter("repro_requests_total",
                        "requests served").inc(
                engine=m.engine or "none", status=response.status)
            reg.counter("repro_rejections_total",
                        "typed request rejections").inc(
                status=response.status)
            self.telemetry.events.emit(
                "rejected", request_id=request.request_id,
                status=response.status, reason=response.reason)
            return
        reg.counter("repro_requests_total",
                    "requests served").inc(
            engine=m.engine,
            status="degraded" if m.degraded else "ok")
        reg.histogram("repro_request_latency_seconds",
                      "modeled response time per request").observe(
            m.modeled_seconds, engine=m.engine)
        reg.histogram("repro_request_wall_seconds",
                      "simulator wall time per request").observe(
            m.wall_seconds, engine=m.engine)
        reg.histogram("repro_queue_wait_seconds",
                      "modeled wait for a free device lane").observe(
            m.queue_wait_s, engine=m.engine)
        self.telemetry.events.emit(
            "request", request_id=request.request_id,
            engine=m.engine, modeled_seconds=m.modeled_seconds,
            wall_seconds=m.wall_seconds, queue_wait_s=m.queue_wait_s,
            cache_hit=m.cache_hit, degraded=m.degraded,
            results=len(response.outcome.results))
        slow = self.telemetry.slow_log.observe(
            request_id=request.request_id, engine=m.engine,
            modeled_seconds=m.modeled_seconds,
            queue_wait_s=m.queue_wait_s, cache_hit=m.cache_hit,
            degraded=m.degraded)
        if slow is not None:
            self.telemetry.events.emit("slow_query", **slow.to_dict())

    def _resolve_method(self, request: SearchRequest,
                        metrics: RequestMetrics,
                        snapshot: Snapshot) -> tuple[str, dict]:
        """Turn ``request.method`` into a concrete engine + parameters."""
        if request.method != "auto":
            if request.method not in available():
                raise ValueError(
                    f"unknown method {request.method!r}; available: "
                    f"{sorted(available())} or 'auto'")
            return request.method, dict(request.params)
        # Hints are caller input like any engine parameter: a bad one
        # is refused, not planned around (NumPy scalars collapse to
        # builtins first, as ``EngineConfig.from_params`` does).
        hints = {k: (v.item() if isinstance(v, np.generic) else v)
                 for k, v in request.params.items()
                 if k in _PLANNER_HINTS}
        for name, value in hints.items():
            _require_positive_int("auto", name, value)
        try:
            with self.telemetry.span("service.plan",
                                     sample=self.PLANNER_SAMPLE) as sp:
                # Plan over the snapshot's base: that is what the index
                # serves; the delta overlay costs the same regardless
                # of which engine wins.
                profile, cached = self._planner_profile(snapshot)
                plans = plan_search(profile, request.queries,
                                    request.d,
                                    sample=self.PLANNER_SAMPLE,
                                    **hints)
                sp.set_attributes(
                    winner=plans[0].engine,
                    profile="hit" if cached else "built",
                    rows_scanned=sum(p.rows_scanned for p in plans))
        except Exception as exc:  # noqa: BLE001 - degrade, don't fail
            self._record_degradation(request, "auto", exc, metrics,
                                     fallback=self.FALLBACK_METHOD)
            return self.FALLBACK_METHOD, {}
        best = plans[0]
        params = dict(best.params)
        # Overlay the caller's hints the chosen engine understands
        # (e.g. a result_buffer_items override).
        cfg_type = get_engine(best.engine).config_type
        if cfg_type is not None:
            valid = cfg_type.valid_keys()
            params.update({k: v for k, v in request.params.items()
                           if k in valid})
        return best.engine, params

    def _planner_profile(self, snapshot: Snapshot
                         ) -> tuple[DatabaseProfile, bool]:
        """The planner's profile of a snapshot's base, and whether it
        was already there.

        Kept like :attr:`fingerprint`: one for the current base, valid
        until a compaction installs the next (appends and deletes never
        touch the base).  A snapshot pinned to an older base gets a
        profile of *its* base, which is not kept.  The pair is published
        in one assignment, after the build, so a concurrent reader sees
        a whole profile or none.
        """
        kept = self._plan_profile
        if kept is not None and kept[0] == snapshot.base_version:
            return kept[1], True
        profile = DatabaseProfile.build(snapshot.base)
        self.telemetry.metrics.counter(
            "repro_planner_profile_builds_total",
            "planner database profiles built").inc()
        if snapshot.base_version == self.versioned.base_version:
            self._plan_profile = (snapshot.base_version, profile)
        return profile, False

    def _base_fingerprint(self, snapshot: Snapshot) -> str:
        """Fingerprint of a snapshot's base (fast path: the current
        one is cached on the service)."""
        if snapshot.base_version == self.versioned.base_version:
            return self.fingerprint
        return database_fingerprint(snapshot.base)

    def _engine_entry(self, database: SegmentArray, method: str,
                      params: dict, db_key, metrics: RequestMetrics
                      ) -> tuple[CacheEntry, bool]:
        key, cfg = _cache_key(db_key, method, params)
        reg = self.telemetry.metrics
        entry = self.cache.get(key)
        if entry is not None:
            reg.counter("repro_cache_hits_total",
                        "engine-cache hits").inc(engine=method)
            return entry, True
        reg.counter("repro_cache_misses_total",
                    "engine-cache misses").inc(engine=method)

        cls = get_engine(method)
        is_gpu = issubclass(cls, GpuEngineBase)
        # Pick the home lane *before* building so a build failure (real
        # or injected) is attributable to the card it happened on.
        lane = (self.pool.home_for(self.cache.lane_bytes).index
                if is_gpu else DevicePool.HOST_LANE)
        build0 = time.perf_counter()
        with self.telemetry.span("engine.build", engine=method,
                                 lane=lane) as sp:
            gpu = (VirtualGPU(faults=self.faults, lane=lane)
                   if is_gpu else None)
            try:
                if cfg is not None:
                    engine = cls.from_config(database, cfg, gpu=gpu)
                else:
                    engine = cls.from_config(database, gpu=gpu,
                                             **params)
            except Exception as exc:
                self.cache.record_failed_build()
                self._note_lane_failure(lane, exc)
                raise
            if is_gpu and self.retry is not None:
                engine.retry = self.retry
            nbytes = (gpu.memory.allocated_bytes if gpu is not None
                      else 0)
            sp.set_attribute("nbytes", nbytes)
        build_s = time.perf_counter() - build0

        entry = CacheEntry(key=key, engine=engine, gpu=gpu, lane=lane,
                           build_wall_s=build_s)
        self.cache.put(entry)
        metrics.engine_build_s += build_s
        reg.histogram("repro_engine_build_seconds",
                      "engine+index build wall seconds").observe(
            build_s, engine=method)
        self.telemetry.events.emit(
            "engine_build", engine=method, lane=lane, nbytes=nbytes,
            build_wall_s=build_s)
        return entry, False

    def _execute(self, request: SearchRequest, method: str,
                 entry: CacheEntry, arrival: float,
                 metrics: RequestMetrics,
                 snapshot: Snapshot) -> SearchResponse:
        with self.telemetry.span("service.execute") as exec_span:
            try:
                results, profile = entry.engine.search(
                    request.queries, request.d,
                    exclude_same_trajectory=request
                    .exclude_same_trajectory)
            except DeadlineExceededError:
                raise  # budget ran out: not the lane's fault
            except Exception as exc:
                self._note_lane_failure(entry.lane, exc)
                raise
            self._note_lane_success(entry.lane)
            # Retry backoff is in the price (host-side modeled
            # waiting), so lane occupancy reflects it.
            modeled = price(profile)

        # Lane occupancy: the search queues on its engine's home lane.
        lane = self.pool.lane(entry.lane)
        start = max(arrival, lane.busy_until)
        lane.busy_until = start + modeled.total
        metrics.queue_wait_s = start - arrival
        metrics.lane_spans.append({
            "lane": entry.lane, "start_s": start,
            "dur_s": modeled.total, "shard": 0,
        })
        # The search produced one engine.search child span; now that
        # the lane schedule priced it, pin it to the modeled timeline.
        if exec_span.children:
            exec_span.children[0].set_modeled(start, modeled.total)

        outcome = SearchOutcome(results=results, profile=profile,
                                modeled=modeled)
        if not snapshot.clean:
            # Delta overlay: filter tombstones out of the base results
            # and union in a brute-force scan of the live delta.  The
            # scan is host work — it queues on the host lane and its
            # modeled cost lands in the response (that's the latency
            # gap compaction exists to bound).
            with self.telemetry.span(
                    "service.delta_scan",
                    delta_rows=len(snapshot.live_delta()),
                    tombstones=len(snapshot.tombstones)) as dsp:
                outcome, delta_profile = overlay_search(
                    outcome, snapshot, request.queries, request.d,
                    exclude_same_trajectory=request
                    .exclude_same_trajectory)
                if delta_profile is not None:
                    delta_cost = price(delta_profile)
                    host = self.pool.host
                    start = max(arrival, host.busy_until)
                    host.busy_until = start + delta_cost.total
                    metrics.delta_scan_s = delta_cost.total
                    metrics.lane_spans.append({
                        "lane": DevicePool.HOST_LANE,
                        "start_s": start,
                        "dur_s": delta_cost.total, "shard": "delta",
                    })
                    dsp.set_modeled(start, delta_cost.total)
        metrics.engine = method
        metrics.modeled_seconds = outcome.modeled_seconds
        metrics.wall_seconds = profile.wall_seconds
        if not isinstance(profile, CpuSearchProfile):
            metrics.invocations = len(profile.kernel_stats)
            metrics.attempts = profile.attempts
            metrics.backoff_s = profile.backoff_s
        return SearchResponse(request_id=request.request_id,
                              outcome=outcome, metrics=metrics)

    # -- resilience bookkeeping ---------------------------------------------------

    def _breaker(self, method: str) -> CircuitBreaker:
        breaker = self._breakers.get(method)
        if breaker is None:
            breaker = CircuitBreaker(reset_after_s=self.breaker_reset_s)
            self._breakers[method] = breaker
        return breaker

    def _gauge_breaker(self, method: str,
                       breaker: CircuitBreaker) -> None:
        self.telemetry.metrics.gauge(
            "repro_breaker_state",
            "per-engine breaker: 0 closed / 1 half-open / 2 open").set(
            breaker.state_code, engine=method)
        prev = self._breaker_states.get(method, "closed")
        if breaker.state != prev:
            self._breaker_states[method] = breaker.state
            self.telemetry.metrics.counter(
                "repro_breaker_transitions_total",
                "breaker state transitions (labeled from/to)").inc(
                engine=method, from_state=prev,
                to_state=breaker.state)
            self.telemetry.events.emit(
                "breaker_transition", engine=method,
                from_state=prev, to_state=breaker.state)

    def _note_breaker_skip(self, request: SearchRequest,
                           method: str) -> None:
        self.telemetry.metrics.counter(
            "repro_breaker_skips_total",
            "ladder rungs skipped on an open breaker").inc(
            engine=method)
        self.telemetry.events.emit(
            "breaker_skip", request_id=request.request_id,
            engine=method)

    def _note_engine_failure(self, request: SearchRequest, method: str,
                             hop: int, exc: Exception) -> None:
        self.telemetry.metrics.counter(
            "repro_engine_failures_total",
            "engine failures observed by the service").inc(
            engine=method, error=type(exc).__name__)
        self.telemetry.events.emit(
            "failover", request_id=request.request_id,
            from_method=method, hop=hop,
            error=f"{type(exc).__name__}: {exc}")

    def _gauge_lane(self, lane_idx: int) -> None:
        health = self.pool.lanes[lane_idx].health
        self.telemetry.metrics.gauge(
            "repro_lane_state",
            "lane health: 0 healthy / 1 probation / 2 quarantined").set(
            health.state_code, lane=str(lane_idx))
        prev = self._lane_states.get(lane_idx, "healthy")
        if health.state != prev:
            self._lane_states[lane_idx] = health.state
            self.telemetry.metrics.counter(
                "repro_lane_transitions_total",
                "lane health transitions (labeled from/to)").inc(
                lane=str(lane_idx), from_state=prev,
                to_state=health.state)
            self.telemetry.events.emit(
                "lane_transition", lane=lane_idx,
                from_state=prev, to_state=health.state)

    def _note_lane_failure(self, lane_idx: int, exc: Exception) -> None:
        if lane_idx == DevicePool.HOST_LANE:
            return
        quarantined = self.pool.record_lane_failure(lane_idx,
                                                    self._clock)
        self._gauge_lane(lane_idx)
        if not quarantined:
            return
        # The lane's device-resident indexes are unreachable now;
        # invalidate them so later requests rebuild on healthy lanes.
        dropped = self.cache.invalidate_lane(lane_idx)
        health = self.pool.lanes[lane_idx].health
        self.telemetry.metrics.counter(
            "repro_lane_quarantines_total",
            "lane quarantine transitions").inc(lane=str(lane_idx))
        self.telemetry.events.emit(
            "lane_quarantined", lane=lane_idx,
            dropped_entries=dropped,
            until_s=health.quarantined_until,
            error=f"{type(exc).__name__}: {exc}")

    def _note_lane_success(self, lane_idx: int) -> None:
        if lane_idx == DevicePool.HOST_LANE:
            return
        if self.pool.record_lane_success(lane_idx):
            self.telemetry.events.emit("lane_readmitted",
                                       lane=lane_idx)
        self._gauge_lane(lane_idx)

    def _note_lane_probation(self, lane_idx: int) -> None:
        self._gauge_lane(lane_idx)
        self.telemetry.events.emit("lane_probation", lane=lane_idx)

    def _maybe_crosscheck(self, request: SearchRequest,
                          response: SearchResponse,
                          snapshot: Snapshot) -> None:
        """Deterministically sampled verification of failover results
        against ``cpu_scan`` ground truth over the pinned snapshot's
        *logical* database (base minus tombstones plus delta).  The
        check runs off the serving clock (verification overhead is not
        charged to lanes); a degraded answer must be slower, never
        wrong."""
        if self.crosscheck_every <= 0:
            return
        if (self._failover_serves - 1) % self.crosscheck_every:
            return
        if response.metrics.engine == self.FALLBACK_METHOD:
            return  # served by the truth engine itself
        with self.telemetry.span(
                "service.crosscheck", request_id=request.request_id,
                engine=response.metrics.engine):
            truth, _ = self._truth(snapshot).search(
                request.queries, request.d,
                exclude_same_trajectory=request.exclude_same_trajectory)
            match = response.outcome.results.equivalent_to(truth)
        self._crosschecks += 1
        self.telemetry.metrics.counter(
            "repro_crosschecks_total",
            "failover responses verified against cpu_scan").inc(
            result="match" if match else "mismatch")
        self.telemetry.events.emit(
            "crosscheck", request_id=request.request_id,
            engine=response.metrics.engine, match=match)
        if not match:
            self.crosscheck_mismatches.append(request.request_id)

    def _truth(self, snapshot: Snapshot) -> CpuScanEngine:
        """Ground-truth scan engine over the snapshot's logical view,
        cached per epoch (every mutation bumps the epoch)."""
        cached = self._truth_cache
        if cached is not None and cached[0] == snapshot.epoch:
            return cached[1]
        engine = CpuScanEngine(snapshot.logical())
        self._truth_cache = (snapshot.epoch, engine)
        return engine

    # -- bookkeeping -------------------------------------------------------------

    def _record_degradation(self, request: SearchRequest, method: str,
                            reason: Exception | str | None,
                            metrics: RequestMetrics, *,
                            fallback: str) -> None:
        if isinstance(reason, BaseException):
            reason = f"{method}: {type(reason).__name__}: {reason}"
        reason = reason or f"{method}: failed"
        metrics.degraded = True
        metrics.degradation_reason = reason
        self._degradations += 1
        self.telemetry.metrics.counter(
            "repro_degradations_total",
            "requests degraded to a fallback engine").inc(
            from_method=method)
        self.telemetry.events.emit(
            "degradation",
            request_id=request.request_id,
            method=method,
            fallback=fallback,
            reason=reason,
        )

    def _on_evict(self, entry: CacheEntry) -> None:
        self.telemetry.metrics.counter(
            "repro_cache_evictions_total",
            "engine-cache evictions").inc(engine=entry.key[1])
        self.telemetry.events.emit(
            "eviction",
            method=entry.key[1],
            nbytes=entry.nbytes,
            lane=entry.lane,
        )
