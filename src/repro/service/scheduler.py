"""The batched query service: device pool, engine cache, adaptive
selection, resilient serving.

:class:`QueryService` is the serving-layer composition of everything the
repository already knows how to do:

* **Index caching** — engines are built once per (method, parameters)
  over the current base and reused across batches
  (:mod:`repro.service.cache`);
  the index build is the paper's offline phase and is excluded from
  modeled response time, but its wall cost is reported per request.
* **Adaptive engine selection** — ``method="auto"`` asks the cost-based
  planner (:func:`repro.core.planner.plan_search`) to rank engines for
  the batch's workload and uses the winner.
* **Device pool** — a :class:`~repro.service.pool.DevicePool` of
  virtual GPUs with modeled per-lane clocks: concurrent batches queue
  on the lane their engine is homed on, and a request's
  ``queue_wait_s`` is the modeled time it spent waiting for its
  device.  (Partitioning the database is a
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
* **Circuit breakers** — consecutive failures of one engine open its
  breaker in the :class:`~repro.service.resilience.Failover` table;
  while open, requests skip that rung instead of paying the failure
  again, and a half-open probe re-admits the engine once it recovers.
* **Lane health** — kept by the pool: consecutive failures on one
  device lane quarantine it, its cached engines are invalidated
  (indexes on a dead card are gone), new builds avoid it, and after
  the quarantine window it is probationally re-admitted.
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

import numpy as np

from ..core.planner import DatabaseProfile, plan_search
from ..core.search import SearchOutcome
from ..core.types import SegmentArray
from ..durability import DurabilityManager, DurabilityPolicy
from ..engines.base import (Deadline, DeadlineExceededError, GpuEngineBase,
                            RetryPolicy, deadline_scope)
from ..engines.config import (ConfigError, EngineConfig,
                              _require_positive_int)
from ..engines.registry import available, get_engine
from ..gpu.costmodel import price
from ..gpu.device import VirtualGPU
from ..gpu.profiler import CpuSearchProfile, RequestMetrics
from ..ingest import (CompactionPolicy, CompactionResult,
                      IngestReceipt, Mutation, Snapshot,
                      VersionedDatabase, overlay_search)
from ..obs import Telemetry
from ..standing import StandingQueryManager, StandingStore, Subscription
from .cache import CacheEntry, EngineCache, _cache_key
from .pool import DevicePool
from .requests import SearchRequest, SearchResponse
from .resilience import Failover, NoUsableLaneError

__all__ = ["QueryService"]

#: planner knobs a request may override through ``params`` hints.
_PLANNER_HINTS = ("num_bins", "num_subbins", "cells_per_dim",
                  "segments_per_mbb")


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
        #: the unified telemetry hub: metrics registry, tracer,
        #: structured event log, slow-query log.
        self.telemetry = telemetry or Telemetry()
        self.pool = DevicePool(
            num_devices, quarantine_s=lane_quarantine_s,
            telemetry=self.telemetry,
            drop_lane=lambda lane: self.cache.invalidate_where(
                lambda entry: entry.lane == lane))
        self.cache = EngineCache(self.pool.total_mem_bytes,
                                 on_evict=self._on_evict)
        self.retry = retry
        self.faults = faults
        self.failover = Failover(self.telemetry,
                                 breaker_reset_s=breaker_reset_s,
                                 crosscheck_every=crosscheck_every)
        self._clock = 0.0
        self._num_requests = 0
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

    # -- public API ---------------------------------------------------------------

    def submit(self, request: SearchRequest) -> SearchResponse:
        """Serve one request (a batch of one)."""
        return self.submit_batch([request])[0]

    def submit_batch(self, requests: list[SearchRequest]
                     ) -> list[SearchResponse]:
        """Serve a batch of requests arriving together.

        All requests share one modeled arrival instant (the current
        service clock); each queues on the lane of the engine serving
        it, so requests on different devices overlap while requests
        contending for one index serialize — that contention is exactly
        what ``queue_wait_s`` reports.

        The whole batch is served against one
        :class:`~repro.ingest.Snapshot`, the database state at arrival.
        """
        arrival = self._clock
        snapshot = self.versioned.snapshot()
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
        """The current database version (what :meth:`submit_batch`
        serves a batch against)."""
        return self.versioned.snapshot()

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, segments, *,
               idempotency_key: str | None = None) -> IngestReceipt:
        """Append trajectory segments without rebuilding the base index.

        Accepts whatever :meth:`~repro.ingest.VersionedDatabase.append`
        accepts (a :class:`~repro.core.types.Trajectory`, a list of
        them, or a raw :class:`~repro.core.types.SegmentArray`).  The
        rows land in the delta; queries see them immediately through
        the delta-overlay scan while every warm base engine stays
        cached.  (A caller that stamps its own segment ids, as the
        sharded router does, applies ``Mutation("append", ...,
        keep_seg_ids=True)`` through :meth:`apply`.)  When the
        append pushes the delta over the compaction policy and
        ``auto_compact`` is on, compaction runs before returning (off
        the query hot path — no request is in flight between batches).

        ``idempotency_key`` makes the append exactly-once under client
        retries: a key already in the dedup table short-circuits —
        nothing is WAL-logged or applied, and the original receipt is
        returned with ``deduplicated=True``.  The table is carried in
        WAL records and checkpoints, so dedup survives a crash/recover.
        """
        return self.apply(Mutation("append", segments=segments,
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
                elif result:
                    # A delete that hid nothing tombstoned nothing.
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

        Every cached engine is over the outgoing base.  The (method,
        params) recipes of those that served a request since they were
        built are remembered; unless the new base equals the old one
        (a clean database folds into itself), the cache is emptied and
        the same engines are rebuilt over the new base *inside this
        call* — off the query hot path, but on the virtual GPU like any
        other build, so injected faults (chaos) can and do fire
        mid-compaction.  Only recipes are kept, never the entries, so
        the invalidation frees the outgoing engines before the first
        rebuild: a compaction holds one generation of engines plus
        the rebuild's working set.  A failed prewarm build is logged
        and skipped: the next request simply pays a cache miss (or
        walks the failover ladder).
        """
        mutation = Mutation("compact")
        old_base = self.database
        recipes = [(*e.key, e.served) for e in self.cache.entries()]
        warm = [(method, canon) for method, canon, served in recipes
                if served]
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
            stale = (0 if self.database == old_base else
                     self.cache.invalidate_where(lambda e: True))
            del old_base  # it goes with its engines, before the rebuild
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
                prewarm_skipped=len(recipes) - len(warm))
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
        a compaction or during recovery, unless the cache holds it (a
        prewarm is no lookup: hit/miss counts and LRU order stay).  A
        failure is counted and logged as ``event`` and returns False
        (best-effort: the next request simply pays a cache miss)."""
        try:
            key, cfg = _cache_key(method, params)
            if key not in self.cache:
                self._build_entry(self.database, key, cfg)
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
        checkpoint: every cached engine (all are over the current
        base)."""
        return [(entry.key[0], dict(entry.key[1]))
                for entry in self.cache.entries()]

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

    def pressure(self) -> float:
        """Resilience pressure in [0, 1] for the gateway's brownout
        ladder: the larger of the share of tried engines whose breaker
        is open and the share of GPU lanes quarantined."""
        breakers = self.failover.breakers.values()
        lanes = self.pool.lanes
        return max(sum(b.state == "open" for b in breakers)
                   / max(1, len(breakers)),
                   sum(not lane.health.usable for lane in lanes)
                   / len(lanes))

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
            "degradations": self.failover.degradations,
            "slow_queries": len(self.telemetry.slow_log),
            "failover_serves": self.failover.failover_serves,
            "crosschecks": self.failover.crosschecks,
            "crosscheck_mismatches": list(
                self.failover.crosscheck_mismatches),
            "lane_health": {str(lane.index): lane.health.to_dict()
                            for lane in self.pool.lanes},
            "breakers": {m_: b.to_dict() for m_, b
                         in sorted(self.failover.breakers.items())},
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
            self.pool.refresh(arrival)
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
            if not self.failover.allow(rung, arrival, request):
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
            except Exception as exc:  # noqa: BLE001 - any rung failure fails over
                self.failover.record_failure(request, rung, hop, exc,
                                             arrival)
                first_failure = first_failure or \
                    f"{rung}: {type(exc).__name__}: {exc}"
                if not isinstance(exc, NoUsableLaneError):
                    last_exc = exc
                continue
            self.failover.record_success(rung)
            if hop > 0:
                self.failover.failed_over(request, response, snapshot,
                                          method, first_failure, hop)
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

        The engine indexes the snapshot's base, which ingestion does
        not change: a warm engine keeps hitting across appends/deletes,
        and only a compaction (new base) empties the cache.
        """
        span = (self.telemetry.span("service.failover",
                                    request_id=request.request_id,
                                    engine=method, hop=hop)
                if hop else nullcontext())
        with span:
            entry, metrics.cache_hit = self._engine_entry(
                snapshot.base, method, params, metrics)
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
        ladder = [method]  # a registered engine: resolved already
        if issubclass(get_engine(method), GpuEngineBase):
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
            self.failover.degrade(request, "auto", exc, metrics,
                                  fallback=self.FALLBACK_METHOD)
            return self.FALLBACK_METHOD, {}
        best = plans[0]
        params = dict(best.params)
        # Overlay the caller's hints the chosen engine understands
        # (e.g. a result_buffer_items override).
        valid = get_engine(best.engine).config_type.valid_keys()
        params.update({k: v for k, v in request.params.items()
                       if k in valid})
        return best.engine, params

    def _planner_profile(self, snapshot: Snapshot
                         ) -> tuple[DatabaseProfile, bool]:
        """The planner's profile of a snapshot's base, and whether it
        was already there.

        One is kept, for the current base, valid until a compaction
        installs the next (appends and deletes never touch the base).
        The pair is published in one assignment, after the build, so a
        concurrent reader sees a whole profile or none.
        """
        kept = self._plan_profile
        if kept is not None and kept[0] == snapshot.base_version:
            return kept[1], True
        profile = DatabaseProfile.build(snapshot.base)
        self.telemetry.metrics.counter(
            "repro_planner_profile_builds_total",
            "planner database profiles built").inc()
        self._plan_profile = (snapshot.base_version, profile)
        return profile, False

    def _engine_entry(self, database: SegmentArray, method: str,
                      params: dict, metrics: RequestMetrics
                      ) -> tuple[CacheEntry, bool]:
        """A request's engine and whether the cache held it; a miss
        builds it now."""
        key, cfg = _cache_key(method, params)
        reg = self.telemetry.metrics
        entry = self.cache.get(key)
        if entry is not None:
            reg.counter("repro_cache_hits_total",
                        "engine-cache hits").inc(engine=method)
            return entry, True
        reg.counter("repro_cache_misses_total",
                    "engine-cache misses").inc(engine=method)
        entry = self._build_entry(database, key, cfg)
        metrics.engine_build_s += entry.build_wall_s
        return entry, False

    def _build_entry(self, database: SegmentArray, key: tuple,
                     cfg: EngineConfig) -> CacheEntry:
        """Build the engine of cache key ``key`` over ``database``,
        home it on a lane and cache it."""
        method = key[0]
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
                engine = cls.from_config(database, cfg, gpu=gpu)
            except Exception as exc:
                self.cache.stats.failed_builds += 1
                self.pool.record_failure(lane, self._clock, exc)
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
        self.telemetry.metrics.histogram(
            "repro_engine_build_seconds",
            "engine+index build wall seconds").observe(
            build_s, engine=method)
        self.telemetry.events.emit(
            "engine_build", engine=method, lane=lane, nbytes=nbytes,
            build_wall_s=build_s)
        return entry

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
                self.pool.record_failure(entry.lane, self._clock, exc)
                raise
            self.pool.record_success(entry.lane)
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

    def _on_evict(self, entry: CacheEntry) -> None:
        self.telemetry.metrics.counter(
            "repro_cache_evictions_total",
            "engine-cache evictions").inc(engine=entry.key[0])
        self.telemetry.events.emit("eviction", method=entry.key[0],
                                   nbytes=entry.nbytes, lane=entry.lane)
