"""The admission-controlled async front door.

:class:`Gateway` sits in front of a backend — a single
:class:`~repro.service.QueryService` or a sharded
:class:`~repro.sharding.ShardedService` (anything with ``submit`` /
``ingest`` / ``delete_trajectory``) — and makes overload a first-class,
*typed* regime instead of an accident:

* every call authenticates by API key and is charged against the
  tenant's token bucket and daily quota
  (:class:`~repro.gateway.tenants.TenantRegistry`);
* searches land in **bounded per-priority queues** drained
  interactive-first by an asyncio worker; a full queue or an arrival
  whose estimated wait already exceeds its deadline is rejected **on
  arrival** with a typed refusal carrying a ``retry_after_s`` hint —
  the gateway never silently drops a request and never dispatches one
  whose budget is provably gone;
* a queued request whose deadline expires before dispatch is answered
  ``deadline_exceeded`` at dequeue time — expiry in the queue is a
  response, not a disappearance;
* sustained pressure walks the
  :class:`~repro.gateway.brownout.BrownoutLadder`: shed the batch
  tier, then rewrite ``auto`` to ``cpu_scan`` (slower, never wrong),
  then refuse writes while reads keep serving;
* mutations take an ``idempotency_key`` that flows into the backend's
  WAL-carried dedup table, so client retries are exactly-once even
  across a crash/recover.

The gateway runs on an injectable ``clock`` so the overload campaign
can drive admission, rate limits, and brownout on simulated time —
same seed, same storm, same report.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace

from ..ingest import IngestReceipt
from ..obs import Telemetry
from ..obs.metrics import MetricsRegistry
from ..service import SearchRequest, SearchResponse
from .admission import PRIORITIES, GatewayResponse
from .brownout import BrownoutLadder
from .tenants import TenantConfig, TenantRegistry

__all__ = ["Gateway"]


@dataclass
class _Job:
    """One admitted search waiting for the drain worker."""

    request: SearchRequest
    tenant: str
    priority: str
    future: asyncio.Future
    admitted_at: float
    #: absolute gateway-clock instant the budget expires (None = no
    #: deadline).
    deadline_at: float | None = None
    #: brownout level at admission (dispatch re-reads the ladder).
    level_at_admit: int = 0
    meta: dict = field(default_factory=dict)


class Gateway:
    """Admission-controlled front door over one query backend.

    Parameters
    ----------
    backend:
        :class:`~repro.service.QueryService`,
        :class:`~repro.sharding.ShardedService`, or any object with
        the same ``submit``/``ingest``/``delete_trajectory`` surface.
    tenants:
        A :class:`~repro.gateway.tenants.TenantRegistry` or an
        iterable of :class:`~repro.gateway.tenants.TenantConfig`.
    queue_depth:
        Bound of *each* priority queue; arrivals beyond it are typed
        ``overloaded`` rejections, not waits.
    est_service_s:
        Initial estimate of one request's service time, used for
        arrival-time wait estimation and retry hints; refined online
        as an EWMA of observed modeled latencies.
    clock:
        Monotonic-seconds callable; the campaign passes a simulated
        clock shared with the tenant registry.
    telemetry:
        The gateway's own hub (``repro_gateway_*`` series, the brownout
        ladder's included); :meth:`metrics_text` merges it with the
        backend's.
    """

    def __init__(self, backend, tenants, *,
                 queue_depth: int = 16,
                 est_service_s: float = 1e-3,
                 clock=time.monotonic,
                 telemetry: Telemetry | None = None) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if est_service_s <= 0:
            raise ValueError("est_service_s must be positive")
        self.backend = backend
        self.tenants = (tenants if isinstance(tenants, TenantRegistry)
                        else TenantRegistry(tenants, clock=clock))
        self.queue_depth = int(queue_depth)
        self.est_service_s = float(est_service_s)
        self.clock = clock
        self.telemetry = telemetry or Telemetry()
        self.brownout = BrownoutLadder(telemetry=self.telemetry)
        self._queues: dict[str, deque[_Job]] = {
            p: deque() for p in PRIORITIES}
        self._worker: asyncio.Task | None = None
        self._served = 0
        self._rejected = 0
        self._expired_in_queue = 0
        self._degraded_by_brownout = 0

    # -- public async API ---------------------------------------------------------

    async def search(self, api_key: str, request: SearchRequest, *,
                     priority: str | None = None) -> GatewayResponse:
        """Admit, queue, and serve one search (or refuse it, typed)."""
        tenant, refusal = self._authorize(api_key, "search", request
                                          .request_id, priority)
        if refusal is not None:
            return refusal
        priority = priority or tenant.priority
        if priority not in PRIORITIES:
            return self._refuse("search", request.request_id,
                                tenant.tenant_id, str(priority),
                                "invalid",
                                f"unknown priority {priority!r}; "
                                f"expected one of {PRIORITIES}")
        level = self._refresh_brownout()
        if self.brownout.sheds_batch and priority == "batch":
            self.telemetry.metrics.counter(
                "repro_gateway_shed_total",
                "requests shed by the brownout ladder").inc(
                priority=priority)
            return self._refuse(
                "search", request.request_id, tenant.tenant_id,
                priority, "overloaded",
                f"brownout level {level} "
                f"({self.brownout.name}): batch tier is shed",
                retry_after_s=self._drain_hint())
        queue = self._queues[priority]
        if len(queue) >= self.queue_depth:
            self.telemetry.metrics.counter(
                "repro_gateway_queue_full_total",
                "arrivals rejected on a full priority queue").inc(
                priority=priority)
            return self._refuse(
                "search", request.request_id, tenant.tenant_id,
                priority, "overloaded",
                f"{priority} queue is full "
                f"({self.queue_depth} waiting)",
                retry_after_s=self._drain_hint())
        now = self.clock()
        deadline_at = None
        if request.deadline_s is not None:
            est_wait = self._est_wait(priority)
            if est_wait >= request.deadline_s:
                return self._refuse(
                    "search", request.request_id, tenant.tenant_id,
                    priority, "deadline_exceeded",
                    f"estimated queue wait {est_wait:.6f}s already "
                    f"exceeds the {request.deadline_s}s budget; "
                    f"rejected on arrival")
            deadline_at = now + request.deadline_s
        future = asyncio.get_running_loop().create_future()
        queue.append(_Job(request=request, tenant=tenant.tenant_id,
                          priority=priority, future=future,
                          admitted_at=now, deadline_at=deadline_at,
                          level_at_admit=level))
        self._gauge_queues()
        self._ensure_worker()
        return await future

    async def ingest(self, api_key: str, segments, *,
                     idempotency_key: str | None = None,
                     request_id: str = "") -> GatewayResponse:
        """Admit and apply one append (exactly-once under a key)."""
        return await self._mutate(
            api_key, "ingest", request_id,
            lambda: self.backend.ingest(
                segments, idempotency_key=idempotency_key))

    async def delete(self, api_key: str, traj_id: int, *,
                     idempotency_key: str | None = None,
                     request_id: str = "") -> GatewayResponse:
        """Admit and apply one trajectory delete."""
        return await self._mutate(
            api_key, "delete", request_id,
            lambda: self.backend.delete_trajectory(
                int(traj_id), idempotency_key=idempotency_key))

    async def drain(self) -> None:
        """Wait until both priority queues are empty (test/campaign
        convenience — the worker keeps running on its own)."""
        while self._worker is not None and not self._worker.done():
            await asyncio.sleep(0)

    # -- admission helpers --------------------------------------------------------

    def _authorize(self, api_key: str, kind: str, request_id: str,
                   priority: str | None
                   ) -> tuple[TenantConfig | None,
                              GatewayResponse | None]:
        tenant, verdict, retry_after = self.tenants.admit(api_key)
        if verdict == "ok":
            return tenant, None
        tenant_id = tenant.tenant_id if tenant is not None else "?"
        shown = priority or (tenant.priority if tenant else "?")
        if verdict == "unauthenticated":
            reason = "unknown API key"
        elif verdict == "quota_exceeded":
            reason = (f"daily quota of {tenant.daily_quota} requests "
                      f"exhausted; window resets in "
                      f"{retry_after:.1f}s")
        else:
            reason = (f"rate limit ({tenant.rate}/s, burst "
                      f"{tenant.burst:g}) exceeded")
        return None, self._refuse(kind, request_id, tenant_id, shown,
                                  verdict, reason,
                                  retry_after_s=retry_after)

    def _refuse(self, kind: str, request_id: str, tenant: str,
                priority: str, status: str, reason: str, *,
                retry_after_s: float | None = None) -> GatewayResponse:
        self._rejected += 1
        if retry_after_s is not None:
            retry_after_s = max(float(retry_after_s),
                                self.est_service_s)
        response = GatewayResponse(
            kind=kind, request_id=request_id, tenant=tenant,
            priority=priority, status=status, reason=reason,
            retry_after_s=retry_after_s)
        self._account(response)
        self.telemetry.events.emit(
            "gateway_reject", op=kind, request_id=request_id,
            tenant=tenant, priority=priority, status=status,
            reason=reason, retry_after_s=retry_after_s)
        return response

    def _est_wait(self, priority: str) -> float:
        """Estimated wait of a new arrival: everything that drains
        before it (interactive queues ahead of batch)."""
        ahead = len(self._queues["interactive"])
        if priority == "batch":
            ahead += len(self._queues["batch"])
        return ahead * self.est_service_s

    def _drain_hint(self) -> float:
        """Retry-after hint when queues are the bottleneck: time to
        drain one queue slot's worth of backlog."""
        return max(self.est_service_s,
                   self._est_wait("batch") / max(1, self.queue_depth))

    def _refresh_brownout(self) -> int:
        return self.brownout.update(self._pressure())

    def _pressure(self) -> float:
        """Overload pressure in [0, 1]: the worst of queue fullness,
        open circuit breakers, and dead/quarantined execution lanes."""
        fullness = max(len(q) / self.queue_depth
                       for q in self._queues.values())
        return min(1.0, max(fullness, self._backend_pressure()))

    def _backend_pressure(self) -> float:
        """Resilience pressure read off the backend's breaker/lane
        (or replica) state — duck-typed over both backend shapes."""
        backend = self.backend
        signals = [0.0]
        breakers = getattr(backend, "_breakers", None)
        if breakers:
            signals.append(
                sum(1 for b in breakers.values() if b.state == "open")
                / len(breakers))
        pool = getattr(backend, "pool", None)
        if pool is not None and pool.lanes:
            signals.append(
                sum(1 for lane in pool.lanes
                    if lane.health.state == "quarantined")
                / len(pool.lanes))
        shards = getattr(backend, "shards", None)
        if shards is not None:
            replicas = [r for s in shards for r in s.replicas]
            if replicas:
                signals.append(
                    sum(1 for r in replicas if not r.live)
                    / len(replicas))
        return max(signals)

    # -- the drain worker ---------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._worker is None or self._worker.done():
            self._worker = asyncio.get_running_loop().create_task(
                self._drain_loop())

    def _next_job(self) -> _Job | None:
        for priority in PRIORITIES:
            if self._queues[priority]:
                return self._queues[priority].popleft()
        return None

    async def _drain_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                response = self._dispatch(job)
            except Exception as exc:  # noqa: BLE001 - the worker must keep draining
                response = self._backend_raised(
                    "search", job.request.request_id, job.tenant,
                    job.priority, exc)
            if not job.future.done():
                job.future.set_result(response)
            self._gauge_queues()
            # Yield so admitted-but-unawaited callers get scheduled.
            await asyncio.sleep(0)

    def _backend_raised(self, kind: str, request_id: str, tenant: str,
                        priority: str,
                        exc: Exception) -> GatewayResponse:
        """The typed reply to a backend call that raised (call from
        the ``except``).  A ``ValueError`` is the backend refusing the
        request itself (a ``ConfigError`` for a misspelled engine
        param, an ``IngestError``): the caller's fault, so ``invalid``
        with breakers and the error counter untouched.  Anything else
        is ``internal``, counted and logged with its traceback."""
        if isinstance(exc, ValueError):
            return self._refuse(kind, request_id, tenant, priority,
                                "invalid", str(exc))
        self.telemetry.metrics.counter(
            "repro_gateway_backend_errors_total",
            "backend exceptions answered as internal").inc()
        self.telemetry.events.emit(
            "gateway_backend_error", request_id=request_id,
            traceback=traceback.format_exc())
        return self._refuse(kind, request_id, tenant, priority,
                            "internal", f"{type(exc).__name__}: {exc}")

    def _dispatch(self, job: _Job) -> GatewayResponse:
        """Serve one dequeued job against the backend."""
        now = self.clock()
        waited = max(0.0, now - job.admitted_at)
        self.telemetry.metrics.histogram(
            "repro_gateway_queue_wait_seconds",
            "gateway-clock wait between admission and dispatch"
        ).observe(waited, priority=job.priority)
        if job.deadline_at is not None and now >= job.deadline_at:
            self._expired_in_queue += 1
            self.telemetry.metrics.counter(
                "repro_gateway_expired_in_queue_total",
                "queued requests whose deadline expired before "
                "dispatch").inc(priority=job.priority)
            return self._refuse(
                "search", job.request.request_id, job.tenant,
                job.priority, "deadline_exceeded",
                f"budget expired after {waited:.6f}s in the "
                f"{job.priority} queue; never dispatched")
        request = job.request
        if job.deadline_at is not None:
            # Hand the backend only the *remaining* budget.
            request = replace(request,
                              deadline_s=job.deadline_at - now)
        if self.brownout.degrades_engine and request.method == "auto":
            self._degraded_by_brownout += 1
            self.telemetry.metrics.counter(
                "repro_gateway_brownout_degrades_total",
                "auto requests pinned to cpu_scan by brownout").inc()
            request = replace(request, method="cpu_scan")
        backend_resp: SearchResponse = self.backend.submit(request)
        return self._wrap(job, backend_resp)

    def _wrap(self, job: _Job,
              resp: SearchResponse) -> GatewayResponse:
        retry_after = (self._drain_hint()
                       if resp.status == "overloaded" else None)
        response = GatewayResponse(
            kind="search", request_id=job.request.request_id,
            tenant=job.tenant, priority=job.priority,
            status=resp.status, reason=resp.reason,
            retry_after_s=retry_after, response=resp)
        if response.ok:
            self._served += 1
            modeled = (resp.metrics.queue_wait_s
                       + resp.metrics.modeled_seconds)
            self.telemetry.metrics.histogram(
                "repro_gateway_latency_seconds",
                "modeled end-to-end latency of answered requests"
            ).observe(modeled, priority=job.priority)
            # Refine the arrival-time wait estimator.
            self.est_service_s = (0.8 * self.est_service_s
                                  + 0.2 * max(modeled, 1e-9))
        else:
            self._rejected += 1
        self._account(response)
        return response

    # -- mutations ----------------------------------------------------------------

    async def _mutate(self, api_key: str, kind: str, request_id: str,
                      apply) -> GatewayResponse:
        tenant, refusal = self._authorize(api_key, kind, request_id,
                                          None)
        if refusal is not None:
            return refusal
        level = self._refresh_brownout()
        if self.brownout.refuses_writes:
            return self._refuse(
                kind, request_id, tenant.tenant_id, tenant.priority,
                "writes_disabled",
                f"brownout level {level} ({self.brownout.name}): "
                f"mutations refused, reads still serving",
                retry_after_s=self._drain_hint())
        try:
            receipt = apply()
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            return self._backend_raised(kind, request_id,
                                        tenant.tenant_id,
                                        tenant.priority, exc)
        if isinstance(receipt, IngestReceipt):
            receipt = receipt.to_dict()
        elif not isinstance(receipt, dict):
            receipt = {"hidden": int(receipt)}
        self._served += 1
        response = GatewayResponse(
            kind=kind, request_id=request_id,
            tenant=tenant.tenant_id, priority=tenant.priority,
            status="ok", receipt=receipt)
        self._account(response)
        return response

    # -- accounting & exposition --------------------------------------------------

    def _account(self, response: GatewayResponse) -> None:
        self.telemetry.metrics.counter(
            "repro_gateway_requests_total",
            "front-door requests by tenant/priority/status").inc(
            tenant=response.tenant, priority=response.priority,
            status=response.status)
        if response.rejected:
            self.telemetry.metrics.counter(
                "repro_gateway_rejections_total",
                "typed front-door refusals").inc(
                status=response.status)

    def _gauge_queues(self) -> None:
        for priority, queue in self._queues.items():
            self.telemetry.metrics.gauge(
                "repro_gateway_queue_depth",
                "requests waiting per priority queue").set(
                len(queue), priority=priority)

    def metrics_text(self) -> str:
        """One Prometheus exposition: gateway + backend series."""
        return self.merged_metrics().to_prometheus_text()

    def merged_metrics(self) -> MetricsRegistry:
        merged = MetricsRegistry()
        merged.merge_from(self.telemetry.metrics, component="gateway")
        backend_merged = getattr(self.backend, "merged_metrics", None)
        if backend_merged is not None:
            merged.merge_from(backend_merged())
        else:
            merged.merge_from(self.backend.telemetry.metrics,
                              component="service")
        return merged

    def stats(self) -> dict:
        """JSON-friendly front-door health snapshot."""
        return {
            "served": self._served,
            "rejected": self._rejected,
            "expired_in_queue": self._expired_in_queue,
            "degraded_by_brownout": self._degraded_by_brownout,
            "est_service_s": self.est_service_s,
            "queues": {p: len(q) for p, q in self._queues.items()},
            "queue_depth": self.queue_depth,
            "brownout": self.brownout.to_dict(),
            "tenants": self.tenants.stats(),
        }
