"""The sharded service: scatter-gather over per-shard ``QueryService``\\ s.

:class:`ShardedService` is the process-shaped version of the paper's
§III cluster deployment: the database is partitioned across ``N``
shards (:class:`~repro.sharding.plan.ShardMap`), each shard runs
``replicas_per_shard`` independent :class:`~repro.service.QueryService`
instances — each with its own engine cache, WAL, and checkpoint
directory under ``<durability_root>/shard-<i>/replica-<r>`` — and a
router scatter-gathers every :class:`~repro.service.SearchRequest` and
merges the per-shard :class:`~repro.service.SearchResponse`\\ s exactly.

The merge is *checked*, not assumed: shards are disjoint and covering
by construction, so the union of per-shard result sets must contain
exactly ``sum(len(part))`` items after cross-shard deduplication — one
duplicated or lost row raises :class:`MergeInvariantError` rather than
returning a silently wrong answer.

Robustness ladder, per shard leg (see ``docs/ARCHITECTURE.md``):

1. replicas are tried in rotation; a dead replica (killed process) is
   skipped, a live one is guarded by a per-replica
   :class:`~repro.service.resilience.CircuitBreaker`;
2. a replica serving from a *stale epoch* (its ``snapshot_epoch``
   disagrees with the router's per-shard mutation count) is treated as
   divergent: the answer is discarded, counted, and re-fetched from the
   next replica — divergence is never silently merged;
3. a typed rejection (``deadline_exceeded`` when the leg exhausts the
   request's remaining budget, or ``overloaded``) triggers a *hedged
   retry* on the next replica;
4. when no live replica survives the ladder, the shard is reported
   missing: the request is answered ``status="partial"`` with
   ``missing_shards`` naming the holes — exact over the survivors,
   honest about the rest.  (If some replica answered with a typed
   rejection instead, the whole request is rejected with that status:
   "partial" strictly means *replicas down*, never *replicas busy*.)

Mutations (``ingest`` / ``delete_trajectory`` / ``compact``) route to
the owning shard(s) and are applied synchronously to every live
replica; each shard keeps an op log so a killed replica can rejoin via
``QueryService.recover()`` (its own WAL + checkpoints) and then replay
exactly the operations it missed while dead, by epoch.  Appends are
stamped with *globally* unique seg_ids by the router before routing
(``keep_seg_ids=True`` on the shard append), so every shard-local id
agrees with the whole-database referee and merged answers stay
byte-identical to a single-node search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.merge import MergeInvariantError, merge_outcomes
from ..core.result import ResultSet
from ..core.search import SearchOutcome
from ..core.types import SegmentArray
from ..engines.base import Deadline
from ..gpu.costmodel import CostBreakdown
from ..gpu.profiler import CpuSearchProfile, RequestMetrics
from ..ingest import AppliedKeys, IngestError, Mutation
from ..obs import Telemetry
from ..service import (QueryService, SearchRequest, SearchResponse)
from ..service.resilience import CircuitBreaker
from .plan import ShardMap

__all__ = ["MergeInvariantError", "Replica", "Shard", "ShardedService"]


@dataclass
class Replica:
    """One shard replica: a ``QueryService`` (or a corpse) plus its
    router-side health state."""

    shard_index: int
    index: int
    service: QueryService | None
    durability_dir: Path | None
    breaker: CircuitBreaker
    kills: int = 0
    recoveries: int = 0

    @property
    def live(self) -> bool:
        return self.service is not None

    @property
    def name(self) -> str:
        return f"shard-{self.shard_index}/replica-{self.index}"

    def to_dict(self) -> dict:
        """JSON-friendly health snapshot."""
        return {"shard": self.shard_index, "replica": self.index,
                "live": self.live, "kills": self.kills,
                "recoveries": self.recoveries,
                "epoch": (self.service.versioned.epoch
                          if self.live else None),
                "breaker": self.breaker.to_dict()}


class Shard:
    """One shard: its pristine base, its replicas, and the op log the
    router replays to catch a recovered replica up."""

    def __init__(self, index: int, base: SegmentArray,
                 replicas: list[Replica]) -> None:
        self.index = index
        self.base = base
        self.replicas = replicas
        #: router-side expected epoch: mutations applied to this shard.
        self.epoch = 0
        #: ``(epoch_after, mutation)`` per mutation, replayed (from
        #: ``epoch_after > recovered_epoch``) when a replica rejoins.
        self.oplog: list[tuple[int, Mutation]] = []
        #: rotation pointer for replica selection.
        self.rr = 0

    def live_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.live]


class ShardedService:
    """Scatter-gather router over per-shard replicated services.

    Parameters
    ----------
    database:
        The initial (non-empty) segment database; partitioned across
        ``num_shards`` by ``strategy``.
    num_shards, replicas_per_shard, strategy:
        Shard layout.  Structurally empty shards (``num_shards`` larger
        than the database) run no services and serve no traffic.
    durability_root:
        Directory root for per-replica WAL + checkpoints
        (``shard-<i>/replica-<r>``); None = memory-only replicas
        (a killed replica then rejoins from the pristine base plus a
        full op-log replay instead of ``QueryService.recover``).
    telemetry:
        The router's hub (spans ``router.*``, per-shard labeled
        metrics).  Each replica service gets its own private hub;
        :meth:`merged_metrics` folds them into one labeled registry.
    service_kwargs:
        Extra keyword arguments forwarded to every per-shard
        :class:`~repro.service.QueryService` (device counts, fault
        injectors, compaction policy...).  ``auto_compact`` is forced
        off — compaction is a routed, op-logged mutation so replicas
        never diverge on it.
    """

    def __init__(self, database: SegmentArray, *,
                 num_shards: int = 3,
                 replicas_per_shard: int = 2,
                 strategy: str = "round_robin",
                 durability_root=None,
                 telemetry: Telemetry | None = None,
                 service_kwargs: dict | None = None) -> None:
        if replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        self.telemetry = telemetry or Telemetry()
        self.plan = ShardMap(database, num_shards, strategy)
        self.replicas_per_shard = int(replicas_per_shard)
        self.durability_root = (Path(durability_root)
                                if durability_root is not None else None)
        self.service_kwargs = dict(service_kwargs or {})
        self.service_kwargs["auto_compact"] = False
        self._next_seg_id = int(database.seg_ids.max()) + 1
        self._tombstones: set[int] = set()
        #: router-level idempotency dedup table (key -> receipt); the
        #: router is the single writer stamping global seg_ids, so a
        #: retried keyed mutation must dedup *before* re-stamping.
        self._applied_keys = AppliedKeys()
        self._requests = 0
        self._partial_answers = 0
        self._kill_rotation = 0
        self.shards: list[Shard] = []
        for i, base in enumerate(self.plan.shard_bases):
            replicas: list[Replica] = []
            if len(base) > 0:
                for r in range(self.replicas_per_shard):
                    replicas.append(self._build_replica(i, r, base))
            self.shards.append(Shard(i, base, replicas))
        with self.telemetry.activate():
            self.telemetry.events.emit(
                "router_start", **self.plan.describe(),
                replicas_per_shard=self.replicas_per_shard,
                durable=self.durability_root is not None)

    # -- replica construction ----------------------------------------------------

    def _replica_dir(self, shard: int, replica: int) -> Path | None:
        if self.durability_root is None:
            return None
        return self.durability_root / f"shard-{shard}" \
            / f"replica-{replica}"

    def _build_replica(self, shard: int, index: int,
                       base: SegmentArray) -> Replica:
        directory = self._replica_dir(shard, index)
        service = QueryService(
            base, telemetry=Telemetry(enabled=self.telemetry.enabled),
            durability_dir=directory, **self.service_kwargs)
        return Replica(shard_index=shard, index=index, service=service,
                       durability_dir=directory,
                       breaker=CircuitBreaker())

    # -- clocks & helpers --------------------------------------------------------

    def _now(self) -> float:
        """Router modeled clock: the furthest-along live replica."""
        clocks = [r.service._clock for s in self.shards
                  for r in s.replicas if r.live]
        return max(clocks) if clocks else 0.0

    def _counter(self, name: str, help_text: str):
        return self.telemetry.metrics.counter(name, help_text)

    def _mark_dead(self, replica: Replica, reason: str) -> None:
        """A replica that failed a *mutation* is divergent: kill it so
        it can rejoin through the op-log path instead of serving stale
        answers."""
        replica.service = None
        replica.kills += 1
        self._counter("repro_router_replica_deaths_total",
                      "replicas marked dead by the router").inc(
            shard=str(replica.shard_index), reason=reason)
        self.telemetry.events.emit(
            "replica_dead", shard=replica.shard_index,
            replica=replica.index, reason=reason)

    # -- queries -----------------------------------------------------------------

    def submit(self, request: SearchRequest) -> SearchResponse:
        """Serve one request across all shards (see module docstring
        for the per-shard failover ladder)."""
        with self.telemetry.activate(), \
                self.telemetry.span("router.request",
                                    request_id=request.request_id,
                                    queries=len(request.queries)):
            self._requests += 1
            parts: list[tuple[Shard, SearchResponse]] = []
            missing: list[int] = []
            rejection: SearchResponse | None = None
            # One wall-clock budget for the whole scatter: each shard
            # leg gets the *remaining* budget, never a fresh one, and
            # an exhausted budget is a typed rejection — never
            # "partial", never a dispatch with a non-positive budget.
            deadline = (Deadline.after(request.deadline_s)
                        if request.deadline_s is not None else None)
            for shard in self.shards:
                if not shard.replicas:
                    continue  # structurally empty shard: owns no rows
                if deadline is not None \
                        and deadline.remaining_s() <= 0.0:
                    rejection = rejection or self._deadline_reject(
                        request, where="pre-scatter")
                    break
                kind, resp = self._serve_shard(shard, request, deadline)
                if kind == "ok":
                    parts.append((shard, resp))
                elif kind == "reject":
                    rejection = rejection or resp
                else:
                    missing.append(shard.index)
            response = self._gather(request, parts, missing, rejection)
            self._counter("repro_router_requests_total",
                          "requests routed").inc(status=response.status)
            if response.partial:
                self._partial_answers += 1
            return response

    def submit_batch(self, requests: list[SearchRequest]
                     ) -> list[SearchResponse]:
        """Serve a batch (scatter each request; shard legs of one
        request run concurrently in the modeled-time sense)."""
        return [self.submit(r) for r in requests]

    def _leg_request(self, request: SearchRequest, shard: Shard,
                     budget_s: float | None) -> SearchRequest:
        """One shard sub-request.  Its deadline is the *remaining*
        request budget ``budget_s`` (None when the request has none) —
        a replica never receives a budget larger than what is actually
        left, and the caller guarantees ``budget_s`` is positive before
        building the leg."""
        return SearchRequest(
            queries=request.queries, d=request.d,
            method=request.method, params=dict(request.params),
            exclude_same_trajectory=request.exclude_same_trajectory,
            deadline_s=budget_s,
            request_id=f"{request.request_id}#s{shard.index}")

    def _deadline_reject(self, request: SearchRequest,
                         where: str) -> SearchResponse:
        """Typed rejection for a budget exhausted at the router —
        before a replica ever sees the request."""
        self._counter(
            "repro_router_deadline_rejects_total",
            "requests rejected at the router on an exhausted "
            "deadline").inc()
        self.telemetry.events.emit(
            "router_deadline_exhausted",
            request_id=request.request_id, where=where)
        return SearchResponse(
            request_id=request.request_id, outcome=None,
            metrics=RequestMetrics(engine="router"),
            status="deadline_exceeded",
            reason=f"request budget exhausted at the router "
                   f"({where}); no replica was dispatched")

    def _serve_shard(self, shard: Shard, request: SearchRequest,
                     deadline: Deadline | None = None
                     ) -> tuple[str, SearchResponse | None]:
        """Walk one shard's replica ladder; returns ``("ok", resp)``,
        ``("reject", resp)`` (typed rejection from a live replica), or
        ``("down", None)`` when no live replica could answer."""
        order = [shard.replicas[(shard.rr + k) % len(shard.replicas)]
                 for k in range(len(shard.replicas))]
        shard.rr = (shard.rr + 1) % len(shard.replicas)
        rejection: SearchResponse | None = None
        attempts = 0
        with self.telemetry.span("router.shard",
                                 shard=shard.index) as span:
            for replica in order:
                if not replica.live:
                    continue
                remaining = None
                if deadline is not None:
                    remaining = deadline.remaining_s()
                    if remaining <= 0.0:
                        # Budget gone mid-ladder: stop hedging; a
                        # replica must never see a non-positive budget.
                        rejection = rejection or self._deadline_reject(
                            request, where=f"shard {shard.index} "
                                           f"ladder")
                        break
                now = self._now()
                if not replica.breaker.allow(now):
                    self._counter(
                        "repro_router_breaker_skips_total",
                        "requests skipping an open replica breaker"
                    ).inc(shard=str(shard.index),
                          replica=str(replica.index))
                    continue
                if attempts > 0:
                    # Second and later replicas are hedged retries.
                    self._counter("repro_router_hedges_total",
                                  "hedged retries to another replica"
                                  ).inc(shard=str(shard.index))
                attempts += 1
                leg = self._leg_request(request, shard, remaining)
                try:
                    resp = replica.service.submit(leg)
                except Exception as exc:  # noqa: BLE001 - failover boundary
                    replica.breaker.record_failure(now)
                    self.telemetry.events.emit(
                        "router_leg_error", shard=shard.index,
                        replica=replica.index,
                        error=f"{type(exc).__name__}: {exc}")
                    continue
                if resp.ok:
                    if resp.metrics.snapshot_epoch != shard.epoch:
                        # Divergent replica: stale epoch.  Never merge;
                        # re-fetch from the next replica.
                        replica.breaker.record_failure(now)
                        self._counter(
                            "repro_router_epoch_mismatch_total",
                            "stale-epoch replica answers discarded"
                        ).inc(shard=str(shard.index),
                              replica=str(replica.index))
                        self.telemetry.events.emit(
                            "epoch_mismatch", shard=shard.index,
                            replica=replica.index,
                            expected=shard.epoch,
                            got=resp.metrics.snapshot_epoch)
                        continue
                    replica.breaker.record_success()
                    self._counter("repro_router_shard_serves_total",
                                  "shard legs served").inc(
                        shard=str(shard.index),
                        replica=str(replica.index))
                    span.set_attributes(replica=replica.index,
                                        epoch=shard.epoch)
                    return "ok", resp
                # Typed rejection (deadline_exceeded / overloaded):
                # hedge on the next replica.
                replica.breaker.record_failure(now)
                rejection = rejection or resp
            span.set_attributes(outcome="reject" if rejection
                                else "down")
        if rejection is not None:
            return "reject", rejection
        self._counter("repro_router_shard_down_total",
                      "shard legs with no live replica").inc(
            shard=str(shard.index))
        return "down", None

    # -- merge -------------------------------------------------------------------

    def _gather(self, request: SearchRequest,
                parts: list[tuple[Shard, SearchResponse]],
                missing: list[int],
                rejection: SearchResponse | None) -> SearchResponse:
        if rejection is not None:
            # A live replica answered with a typed rejection: the whole
            # request is rejected (never downgraded to "partial" — a
            # busy shard is not a dead shard).  A router-originated
            # rejection (deadline exhausted pre-dispatch) passes
            # through verbatim.
            if rejection.metrics.engine == "router":
                return rejection
            return SearchResponse(
                request_id=request.request_id, outcome=None,
                metrics=RequestMetrics(engine="router"),
                status=rejection.status,
                reason=f"shard leg rejected: {rejection.reason}")
        with self.telemetry.span("router.merge",
                                 parts=len(parts),
                                 missing=len(missing)):
            outcome = self._merge_outcomes(request, parts)
            metrics = self._merge_metrics(parts)
            if missing:
                return SearchResponse(
                    request_id=request.request_id, outcome=outcome,
                    metrics=metrics, status="partial",
                    reason=(f"no live replica for shard(s) "
                            f"{sorted(missing)}"),
                    missing_shards=tuple(sorted(missing)))
            return SearchResponse(request_id=request.request_id,
                                  outcome=outcome, metrics=metrics)

    def _merge_outcomes(self, request: SearchRequest,
                        parts: list[tuple[Shard, SearchResponse]]
                        ) -> SearchOutcome:
        outcomes = [resp.outcome for _, resp in parts]
        if not outcomes:
            # Every shard dark: an exact answer over zero shards.
            return SearchOutcome(
                results=ResultSet(),
                profile=CpuSearchProfile(
                    engine="router",
                    num_queries=len(request.queries)),
                modeled=CostBreakdown())
        try:
            return merge_outcomes(outcomes)
        except MergeInvariantError:
            self._counter("repro_router_merge_violations_total",
                          "merges that lost or duplicated items").inc()
            raise

    @staticmethod
    def _merge_metrics(parts: list[tuple[Shard, SearchResponse]]
                       ) -> RequestMetrics:
        if not parts:
            return RequestMetrics(engine="router")
        ms = [resp.metrics for _, resp in parts]
        engines = {m.engine for m in ms}
        spans = []
        for shard, resp in parts:
            for span in resp.metrics.lane_spans:
                spans.append({**span, "shard": shard.index})
        return RequestMetrics(
            engine=engines.pop() if len(engines) == 1 else "mixed",
            queue_wait_s=max(m.queue_wait_s for m in ms),
            cache_hit=all(m.cache_hit for m in ms),
            engine_build_s=sum(m.engine_build_s for m in ms),
            invocations=sum(m.invocations for m in ms),
            modeled_seconds=max(m.modeled_seconds for m in ms),
            wall_seconds=sum(m.wall_seconds for m in ms),
            degraded=any(m.degraded for m in ms),
            degradation_reason="; ".join(
                sorted({m.degradation_reason for m in ms
                        if m.degradation_reason})),
            attempts=max(m.attempts for m in ms),
            backoff_s=sum(m.backoff_s for m in ms),
            failovers=sum(m.failovers for m in ms),
            arrival_s=max(m.arrival_s for m in ms),
            lane_spans=spans,
            snapshot_epoch=max(m.snapshot_epoch for m in ms),
            delta_segments=sum(m.delta_segments for m in ms),
            delta_scan_s=max(m.delta_scan_s for m in ms),
        )

    # -- mutations ---------------------------------------------------------------

    def ingest(self, segments, *,
               idempotency_key: str | None = None) -> dict:
        """Stamp, route, and replicate one append; returns a receipt
        with the per-shard routing and epochs.  ``idempotency_key``
        deduplicates client retries: a known key returns the original
        receipt (``deduplicated: True``) without re-stamping or
        re-routing anything."""
        whole = Mutation("append", segments=segments,
                         idempotency_key=idempotency_key)
        with self.telemetry.activate(), \
                self.telemetry.span("router.ingest") as span:
            prior = self._applied_keys.lookup(whole)
            if prior is not None:
                return {**prior, "deduplicated": True}
            segments = whole.segments
            if len(segments) == 0:
                raise IngestError("nothing to append: the segment set "
                                  "is empty")
            dead = self._tombstones.intersection(
                np.unique(segments.traj_ids).tolist())
            if dead:
                raise IngestError(
                    f"trajectory ids {sorted(dead)} are tombstoned; "
                    f"the router does not re-use deleted ids")
            n = len(segments)
            seg_ids = np.arange(self._next_seg_id,
                                self._next_seg_id + n, dtype=np.int64)
            self._next_seg_id += n
            stamped = SegmentArray(
                segments.xs, segments.ys, segments.zs, segments.ts,
                segments.xe, segments.ye, segments.ze, segments.te,
                segments.traj_ids, seg_ids)
            routed = self.plan.assign_append(stamped)
            receipt = {"segments": n, "routed": {}, "epochs": {}}
            for shard_index, rows in routed:
                shard = self.shards[shard_index]
                self._apply_to_shard(shard, Mutation(
                    "append", segments=rows, keep_seg_ids=True))
                receipt["routed"][shard_index] = len(rows)
                receipt["epochs"][shard_index] = shard.epoch
                self._maybe_compact(shard)
            span.set_attributes(segments=n,
                                shards=len(receipt["routed"]))
            self._counter("repro_router_ingest_total",
                          "router appends").inc()
            self._applied_keys.record(idempotency_key, "append", receipt)
            return receipt

    def delete_trajectory(self, traj_id: int, *,
                          idempotency_key: str | None = None) -> int:
        """Tombstone one trajectory on every shard holding it; returns
        the total number of segments hidden.  ``idempotency_key``
        deduplicates client retries the same way :meth:`ingest` does."""
        whole = Mutation("delete", traj_id=traj_id,
                         idempotency_key=idempotency_key)
        tid = whole.traj_id
        with self.telemetry.activate(), \
                self.telemetry.span("router.delete", traj_id=tid):
            prior = self._applied_keys.lookup(whole)
            if prior is not None:
                return int(prior["hidden"])
            if tid in self._tombstones:
                return 0
            if not self.plan.knows(tid):
                raise IngestError(f"trajectory {tid} is not in the "
                                  f"database")
            blocked = self.plan.would_empty(tid)
            if blocked:
                raise IngestError(
                    f"refusing to delete trajectory {tid}: it is the "
                    f"last live trajectory of shard(s) {blocked}")
            hidden = 0
            for shard_index in self.plan.shards_of(tid):
                shard = self.shards[shard_index]
                hidden += self._apply_to_shard(
                    shard, Mutation("delete", traj_id=tid)) or 0
                self._maybe_compact(shard)
            self._tombstones.add(tid)
            self.plan.note_delete(tid)
            self._counter("repro_router_deletes_total",
                          "router tombstones").inc()
            self._applied_keys.record(idempotency_key, "delete",
                                      {"traj_id": tid, "hidden": hidden})
            return hidden

    def compact(self, shard_index: int | None = None) -> None:
        """Route an explicit compaction to one shard (or all)."""
        with self.telemetry.activate():
            targets = ([self.shards[shard_index]]
                       if shard_index is not None else
                       [s for s in self.shards if s.replicas])
            for shard in targets:
                self._apply_to_shard(shard, Mutation("compact"))

    def _apply_to_shard(self, shard: Shard, mutation: Mutation):
        """Apply one mutation to every live replica of a shard,
        op-log it, and advance the shard's expected epoch.  A replica
        that fails the mutation is marked dead (divergence is fatal
        for a replica, never for the shard)."""
        expected = shard.epoch + 1
        shard.oplog.append((expected, mutation))
        result = None
        for replica in list(shard.live_replicas()):
            try:
                result = replica.service.apply(mutation)
            except Exception:  # noqa: BLE001 - divergence boundary
                self._mark_dead(replica, reason=f"{mutation.op}_failed")
                continue
            got = replica.service.versioned.epoch
            if got != expected:
                self._mark_dead(replica, reason="epoch_skew")
        shard.epoch = expected
        self.telemetry.metrics.gauge(
            "repro_shard_epoch", "per-shard mutation epoch").set(
            shard.epoch, shard=str(shard.index))
        self.telemetry.metrics.gauge(
            "repro_shard_live_replicas",
            "live replicas per shard").set(
            len(shard.live_replicas()), shard=str(shard.index))
        return result

    def _maybe_compact(self, shard: Shard) -> None:
        """Router-driven compaction: replicas share one policy, so the
        primary's verdict schedules an explicit, op-logged compaction
        for every replica (a dark shard schedules none — the decision
        replays deterministically from the op log on recovery)."""
        live = shard.live_replicas()
        if live and live[0].service.versioned.should_compact():
            self._apply_to_shard(shard, Mutation("compact"))

    # -- chaos hooks -------------------------------------------------------------

    def kill_replica(self, shard_index: int,
                     replica_index: int | None = None) -> Replica | None:
        """Simulate a replica process death: the service object is
        abandoned *without* shutdown (its WAL stays as a crashed
        process would leave it).  Returns the killed replica, or None
        when the shard has no live replica to kill."""
        shard = self.shards[shard_index]
        live = shard.live_replicas()
        if not live:
            return None
        if replica_index is None:
            replica = live[self._kill_rotation % len(live)]
            self._kill_rotation += 1
        else:
            replica = shard.replicas[replica_index]
            if not replica.live:
                return None
        replica.service = None
        replica.kills += 1
        with self.telemetry.activate():
            self._counter("repro_router_kills_total",
                          "replicas killed by chaos").inc(
                shard=str(shard_index))
            self.telemetry.events.emit("replica_killed",
                                       shard=shard_index,
                                       replica=replica.index)
        return replica

    def blackout_shard(self, shard_index: int) -> int:
        """Kill every live replica of one shard; returns how many
        died.  Until a recovery, requests answer ``partial``."""
        shard = self.shards[shard_index]
        killed = 0
        for replica in shard.live_replicas():
            replica.service = None
            replica.kills += 1
            killed += 1
        if killed:
            with self.telemetry.activate():
                self._counter("repro_router_blackouts_total",
                              "whole-shard blackouts").inc(
                    shard=str(shard_index))
                self.telemetry.events.emit("shard_blackout",
                                           shard=shard_index,
                                           killed=killed)
        return killed

    def recover_replica(self, shard_index: int,
                        replica_index: int) -> Replica:
        """Rejoin one dead replica: ``QueryService.recover()`` from its
        durability directory (prewarmed caches), then replay the op-log
        suffix it missed, by epoch; a memory-only replica rebuilds from
        the pristine shard base and replays the whole log."""
        shard = self.shards[shard_index]
        replica = shard.replicas[replica_index]
        if replica.live:
            raise ValueError(f"{replica.name} is already live")
        with self.telemetry.activate(), \
                self.telemetry.span("router.recover",
                                    shard=shard_index,
                                    replica=replica_index) as span:
            hub = Telemetry(enabled=self.telemetry.enabled)
            if replica.durability_dir is not None:
                service = QueryService.recover(
                    replica.durability_dir, telemetry=hub,
                    **self.service_kwargs)
            else:
                service = QueryService(shard.base, telemetry=hub,
                                       **self.service_kwargs)
            recovered_epoch = service.versioned.epoch
            replayed = 0
            for epoch, mutation in shard.oplog:
                if epoch <= recovered_epoch:
                    continue
                service.apply(mutation)
                if service.versioned.epoch != epoch:
                    raise RuntimeError(
                        f"{replica.name}: op-log catch-up produced "
                        f"epoch {service.versioned.epoch}, expected "
                        f"{epoch}")
                replayed += 1
            if service.versioned.epoch != shard.epoch:
                raise RuntimeError(
                    f"{replica.name}: rejoined at epoch "
                    f"{service.versioned.epoch}, shard is at "
                    f"{shard.epoch}")
            replica.service = service
            replica.breaker.record_success()
            replica.recoveries += 1
            span.set_attributes(recovered_epoch=recovered_epoch,
                                replayed=replayed)
            self._counter("repro_router_recoveries_total",
                          "replicas recovered and rejoined").inc(
                shard=str(shard_index))
            self.telemetry.metrics.gauge(
                "repro_shard_live_replicas",
                "live replicas per shard").set(
                len(shard.live_replicas()), shard=str(shard_index))
            self.telemetry.events.emit(
                "replica_recovered", shard=shard_index,
                replica=replica_index,
                recovered_epoch=recovered_epoch, replayed=replayed)
        return replica

    # -- introspection & lifecycle -----------------------------------------------

    def live_map(self) -> dict[int, list[int]]:
        """Live replica indices per shard (empty list = dark shard)."""
        return {s.index: [r.index for r in s.live_replicas()]
                for s in self.shards if s.replicas}

    def stats(self) -> dict:
        """JSON-friendly router + per-shard health snapshot."""
        return {
            "plan": self.plan.describe(),
            "requests": self._requests,
            "partial_answers": self._partial_answers,
            "shards": [
                {"index": s.index, "epoch": s.epoch,
                 "oplog": len(s.oplog),
                 "replicas": [r.to_dict() for r in s.replicas]}
                for s in self.shards],
        }

    def merged_metrics(self):
        """One registry: the router's own series plus every live
        replica's, labeled ``shard=``/``replica=``."""
        from ..obs.metrics import MetricsRegistry
        merged = MetricsRegistry()
        merged.merge_from(self.telemetry.metrics, component="router")
        for shard in self.shards:
            for replica in shard.replicas:
                if replica.live:
                    merged.merge_from(
                        replica.service.telemetry.metrics,
                        shard=str(shard.index),
                        replica=str(replica.index))
        return merged

    def shutdown(self) -> None:
        """Shut down every live replica (idempotent)."""
        for shard in self.shards:
            for replica in shard.replicas:
                if replica.live:
                    replica.service.shutdown()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
