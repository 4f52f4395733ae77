"""A many-tenant storm past the gateway's saturation point.

Drives a :class:`~repro.gateway.Gateway` (fronting one durable,
fault-injectable :class:`~repro.service.QueryService`) through a
deterministic storm and reports whether overload stayed *civilized*:

* several tenants with different budgets — a well-behaved interactive
  tenant, a batch tenant, an abusive one with a tight token bucket,
  and one with a tiny daily quota — fire bursts that deliberately
  exceed the queue bound, so queue-full sheds, brownout escalation,
  rate limits, and quota exhaustion all *must* occur;
* the whole storm runs on a simulated clock that advances one tick
  per dispatched request (slow-client time passing in the queue), so
  staggered deadlines expire both on arrival and mid-queue;
* a fault injector arms mid-storm (GPU OOMs, transfer errors, kernel
  aborts) and disarms before the end, exercising the failover ladder
  under admission pressure;
* every mutation is sent through the keyed retry helper **twice**,
  and the service is crashed (abandoned un-shutdown) and recovered
  mid-campaign, after which a pre-crash key is retried — exactly-once
  must hold through the WAL/checkpoint round trip;
* **exactness**: every answered search is compared byte-for-byte
  against the referee over the snapshot epoch it was served from;
  every refusal must be typed, retryable ones carrying a
  ``retry_after_s`` hint (enforced by construction in
  :class:`~repro.gateway.GatewayResponse`).

The report carries modeled p50/p99 latency per priority class —
modeled values only, so the benchmark JSON is stable across machines
and seeds reproduce bit-identical reports.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from ..engines.base import RetryPolicy
from ..faults import FaultInjector, FaultSpec
from ..gateway import Gateway, TenantConfig, retry_with_backoff
from ..ingest import CompactionPolicy
from ..obs import Telemetry
from ..service import QueryService, SearchRequest
from .harness import Referee, Report, durability_dir, result_bytes, \
    walk_db

__all__ = ["OverloadConfig", "OverloadReport", "SimClock", "run"]

#: interactive arrivals per burst from the main tenant (> queue depth;
#: the overflow is shed on arrival).
INTERACTIVE_PER_BURST = 9
BATCH_PER_BURST = 4
#: database size: trajectories x timesteps of random walk.
NUM_TRAJECTORIES = 16
STEPS = 10
NUM_QUERY_SETS = 6
QUERIES_PER_SET = 3
D = 2.5
#: sim-clock seconds one dispatched search consumes.
SERVICE_TICK_S = 0.01
#: sim-clock seconds between bursts (lets token buckets refill).
INTER_BURST_S = 10.0
#: bursts [from, until) run with the fault injector armed.
FAULTS_FROM = 3
FAULTS_UNTIL = 8
INJECTION_RATE = 0.06
#: timesteps of each ingested trajectory.
INGEST_STEPS = 6
#: abusive tenant's arrivals per burst (> its bucket's refill, so
#: rate_limited is guaranteed).
GREEDY_PER_BURST = 4
#: capped tenant's arrivals per burst (its whole-campaign quota < total
#: arrivals, so quota_exceeded is guaranteed).
CAPPED_PER_BURST = 2
TENANTS = (
    TenantConfig("alpha", "key-alpha", rate=1000.0, burst=1000.0,
                 priority="interactive"),
    TenantConfig("bravo", "key-bravo", rate=1000.0, burst=1000.0,
                 priority="batch"),
    TenantConfig("greedy", "key-greedy", rate=0.2, burst=2.0,
                 priority="interactive"),
    TenantConfig("capped", "key-capped", rate=1000.0, burst=1000.0,
                 daily_quota=6, priority="interactive"),
)
#: backend tuning shared by the first process and the recovered one.
SERVICE_KWARGS = {
    "retry": RetryPolicy(max_attempts=4, backoff_s=1e-4),
    "breaker_reset_s": 1e-5, "lane_quarantine_s": 2e-5,
    "compaction": CompactionPolicy(max_delta_segments=200),
}


class SimClock:
    """Deterministic campaign clock (seconds); the gateway, the tenant
    buckets, and the backend wrapper all share one instance."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = float(start)

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("the campaign clock never goes back")
        self.t += dt


class _TickingBackend:
    """Backend wrapper advancing the sim clock one service tick per
    dispatched search — the mechanism by which time passes *inside* a
    burst, so deadlines can expire while queued.  Everything else
    (attributes included, so brownout still reads breaker/lane state)
    delegates to the wrapped service."""

    def __init__(self, service: QueryService, clock: SimClock) -> None:
        self._service = service
        self._clock = clock

    def submit(self, request: SearchRequest):
        self._clock.advance(SERVICE_TICK_S)
        return self._service.submit(request)

    def __getattr__(self, name):
        return getattr(self._service, name)


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of one overload campaign; everything derives from
    ``seed``.

    ``queue_depth`` bounds each gateway priority queue — deliberately
    smaller than a burst so queue-full sheds are guaranteed; the
    service is crashed and recovered at burst ``crash_at_burst``
    (0 = never crash)."""

    seed: int = 0
    num_bursts: int = 10
    queue_depth: int = 5
    crash_at_burst: int = 6

    def __post_init__(self) -> None:
        if self.num_bursts < 1:
            raise ValueError("num_bursts must be >= 1")
        if INTERACTIVE_PER_BURST <= self.queue_depth:
            raise ValueError(
                f"queue_depth must stay below the "
                f"{INTERACTIVE_PER_BURST} interactive arrivals per "
                f"burst (the storm must saturate)")
        if self.crash_at_burst >= self.num_bursts:
            raise ValueError("crash_at_burst must fall inside the "
                             "campaign (or be 0)")


@dataclass
class OverloadReport(Report):
    """Survival report of one overload campaign."""

    #: gateway responses by status.
    outcomes: dict = field(default_factory=dict)
    #: answered *searches* (ok/partial, excluding mutations).
    search_answered: int = 0
    #: answered searches verified byte-identical to the referee.
    verified: int = 0
    #: request ids whose results disagreed with the referee.
    mismatches: list = field(default_factory=list)
    #: request ids of retryable refusals missing a retry hint
    #: (impossible by construction; asserted anyway).
    missing_hints: list = field(default_factory=list)
    #: brownout sheds + queue-full rejections (the "shed burst").
    sheds: int = 0
    queue_full: int = 0
    expired_in_queue: int = 0
    #: keyed mutation retries that deduplicated (exactly-once hits).
    dedups: int = 0
    #: did a pre-crash key dedup *after* crash/recover.
    post_recovery_dedup: bool = False
    brownout_transitions: int = 0
    recoveries: int = 0
    #: modeled latency percentiles per priority class.
    latency: dict = field(default_factory=dict)
    injector: dict = field(default_factory=dict)
    gateway: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def answered(self) -> int:
        return self.outcomes.get("ok", 0) + self.outcomes.get(
            "partial", 0)

    @property
    def regimes_missing(self) -> list[str]:
        """Overload regimes the storm was built to force that never
        occurred."""
        return [name for name, occurred in (
            ("shed", self.sheds + self.queue_full >= 1),
            ("dedup", self.dedups >= 1),
            ("brownout", self.brownout_transitions >= 1),
            ("post_recovery_dedup", self.post_recovery_dedup),
            ("rate_limited", self.outcomes.get("rate_limited", 0) >= 1),
            ("quota_exceeded",
             self.outcomes.get("quota_exceeded", 0) >= 1),
            ("deadline_exceeded",
             self.outcomes.get("deadline_exceeded", 0) >= 1),
        ) if not occurred]

    @property
    def ok(self) -> bool:
        """Did overload stay civilized: every answer exact, every
        refusal typed and hinted, shedding/brownout/dedup all
        exercised, exactly-once held across the crash."""
        return (not self.mismatches
                and not self.missing_hints
                and self.verified == self.search_answered
                and self.search_answered > 0
                and not self.regimes_missing)

    def bench_entry(self) -> dict:
        """The per-seed benchmark record (modeled values only)."""
        return {"seed": self.config.seed,
                "requests": self.total,
                "answered": self.answered,
                "latency": dict(self.latency),
                "outcomes": dict(self.outcomes)}


def run(config: OverloadConfig | None = None) -> OverloadReport:
    """Run one seeded overload campaign; returns its report."""
    cfg = config or OverloadConfig()
    with durability_dir() as root:
        return _run(cfg, root)


def _run(cfg: OverloadConfig, durability_root) -> OverloadReport:
    clock = SimClock()
    rng = np.random.default_rng(cfg.seed)
    r = INJECTION_RATE
    injector = FaultInjector(
        [FaultSpec(kind="oom", rate=r / 2.0),
         FaultSpec(kind="h2d", rate=r), FaultSpec(kind="d2h", rate=r),
         FaultSpec(kind="kernel_abort", rate=r)], seed=cfg.seed)
    injector.enabled = False
    service = QueryService(
        walk_db(NUM_TRAJECTORIES, STEPS, seed=cfg.seed),
        num_devices=2, faults=injector, telemetry=Telemetry(),
        durability_dir=durability_root, **SERVICE_KWARGS)
    gateway = Gateway(
        _TickingBackend(service, clock), TENANTS,
        queue_depth=cfg.queue_depth, est_service_s=SERVICE_TICK_S,
        clock=clock.now)
    query_sets = [
        walk_db(QUERIES_PER_SET, STEPS, seed=cfg.seed + 1000 + i,
                id_offset=10_000 + 100 * i)
        for i in range(NUM_QUERY_SETS)
    ]
    report = OverloadReport(config=cfg)

    # Answers name the snapshot epoch they were served from, so the
    # referee pins the database after every mutation.
    referee = Referee()

    def note_epoch() -> None:
        referee.pin(gateway.backend.versioned.snapshot())

    note_epoch()
    latencies: dict[str, list[float]] = {"interactive": [],
                                         "batch": []}

    def record(resp, qi: int | None) -> None:
        report.outcomes[resp.status] = \
            report.outcomes.get(resp.status, 0) + 1
        if resp.retryable and resp.retry_after_s is None:
            report.missing_hints.append(resp.request_id)
        if resp.ok and resp.kind == "search":
            report.search_answered += 1
            backend = resp.response
            truth = referee.truth(backend.metrics.snapshot_epoch, qi,
                                  query_sets[qi], D)
            if result_bytes(backend.outcome.results) == truth:
                report.verified += 1
            else:
                report.mismatches.append(resp.request_id)
            latencies[resp.priority].append(
                backend.metrics.queue_wait_s
                + backend.metrics.modeled_seconds)

    def keyed_ingest(burst: int, request_id: str):
        """Send burst ``burst``'s keyed append (same trajectory, same
        key every time it is called)."""
        return asyncio.run(gateway.ingest(
            "key-alpha",
            walk_db(1, INGEST_STEPS, seed=cfg.seed + 5000 + burst,
                    id_offset=50_000 + burst),
            idempotency_key=f"mut-{burst}", request_id=request_id))

    def ingest_twice(burst: int) -> None:
        """One keyed append sent twice through the retry helper —
        the duplicate must dedup, exactly-once."""
        for _ in range(2):
            resp = retry_with_backoff(
                lambda: keyed_ingest(burst, f"ing-{burst}"),
                max_attempts=3, base_backoff_s=0.01,
                rng=rng, sleep=clock.advance).response
            report.outcomes[resp.status] = \
                report.outcomes.get(resp.status, 0) + 1
            if resp.ok and resp.receipt.get("deduplicated"):
                report.dedups += 1
        note_epoch()

    def crash_and_recover() -> None:
        """Abandon the service mid-storm (no shutdown — a crash) and
        recover from its WAL + checkpoints; the gateway re-fronts the
        recovered service with the ticking wrapper."""
        recovered = QueryService.recover(
            durability_root, faults=injector, telemetry=Telemetry(),
            **SERVICE_KWARGS)
        gateway.backend = _TickingBackend(recovered, clock)
        report.recoveries += 1
        note_epoch()

    async def run_burst(burst: int) -> None:
        jobs: list[tuple] = []  # (coroutine, qi)

        def search(tenant_key: str, j: int, *, priority=None,
                   deadline_s=None, method="auto") -> None:
            qi = (burst * 7 + j) % len(query_sets)
            rid = f"b{burst:02d}-{tenant_key.removeprefix('key-')}" \
                  f"-{j:02d}"
            request = SearchRequest(
                queries=query_sets[qi], d=D, method=method,
                deadline_s=deadline_s, request_id=rid)
            jobs.append((gateway.search(tenant_key, request,
                                        priority=priority), qi))

        # A little batch traffic lands *before* the storm, while the
        # ladder is calm — these are answered, so the batch tier has
        # real latency percentiles to report.
        for j in range(2):
            search("key-bravo", j, priority="batch")
        # The interactive flood: more arrivals than the queue holds.
        # A deterministic few carry deadlines sized to expire in the
        # queue (the sim clock advances one tick per dispatch), one
        # carries a budget so tight it is refused up front, and every
        # third asks for an explicit GPU engine — brownout only
        # rewrites ``auto``, so the fault injector sees real GPU work
        # mid-storm and the failover ladder runs under pressure.
        for j in range(INTERACTIVE_PER_BURST):
            deadline = None
            if j % 4 == 3:
                deadline = SERVICE_TICK_S * (1.5 + (j % 3))
            method = "gpu_temporal" if j % 3 == 1 else "auto"
            search("key-alpha", j, deadline_s=deadline,
                   method=method)
        search("key-alpha", INTERACTIVE_PER_BURST,
               deadline_s=SERVICE_TICK_S * 1e-6)
        # Batch arrivals land on a saturated gateway: brownout sheds.
        for j in range(BATCH_PER_BURST):
            search("key-bravo", 100 + j, priority="batch")
        # The abuser: exceeds its bucket every burst.
        for j in range(GREEDY_PER_BURST):
            search("key-greedy", 200 + j)
        # The capped tenant: exhausts its campaign quota mid-storm.
        for j in range(CAPPED_PER_BURST):
            search("key-capped", 300 + j)

        responses = await asyncio.gather(*[c for c, _ in jobs])
        for (_, qi), resp in zip(jobs, responses):
            record(resp, qi)

    for burst in range(cfg.num_bursts):
        injector.enabled = FAULTS_FROM <= burst < FAULTS_UNTIL
        if cfg.crash_at_burst and burst == cfg.crash_at_burst:
            crash_and_recover()
            # Exactly-once across the crash: a key applied *before*
            # the crash must dedup from the recovered table.
            resp = keyed_ingest(cfg.crash_at_burst - 2,
                                "post-recovery-retry")
            report.outcomes[resp.status] = \
                report.outcomes.get(resp.status, 0) + 1
            if resp.ok and resp.receipt.get("deduplicated"):
                report.dedups += 1
                report.post_recovery_dedup = True
        ingest_twice(burst)
        asyncio.run(run_burst(burst))
        clock.advance(INTER_BURST_S)

    injector.enabled = True  # report the full spec table
    report.injector = injector.report()
    report.gateway = gateway.stats()
    report.brownout_transitions = len(
        gateway.brownout.transitions)
    counter = gateway.telemetry.metrics.counter
    report.sheds = int(counter("repro_gateway_shed_total").total())
    report.queue_full = int(
        counter("repro_gateway_queue_full_total").total())
    report.expired_in_queue = int(
        counter("repro_gateway_expired_in_queue_total").total())
    for priority, values in latencies.items():
        if not values:
            continue
        arr = np.asarray(values)
        report.latency[priority] = {
            "count": int(arr.size),
            "p50_ms": float(np.percentile(arr, 50) * 1e3),
            "p99_ms": float(np.percentile(arr, 99) * 1e3),
            "mean_ms": float(arr.mean() * 1e3),
        }
    gateway.backend.shutdown()
    return report
