"""Device faults under a request storm.

Wires a :class:`~repro.faults.FaultInjector` covering every fault kind
into a :class:`~repro.service.QueryService` and drives a few hundred
requests through it in batches — cycling engines, sprinkling impossible
deadlines, periodically "swapping the card" (reviving blacked-out
lanes) so quarantine → probation → re-admission actually happens, and
periodically *ingesting* fresh trajectories so the delta overlay and
compaction run under fire (compaction prewarms engines on the virtual
GPU, so injected faults fire mid-compaction too).

Every answered request is checked against the referee over the
database version its batch was pinned to: byte-identical results, and
no internal duplicates.  Fault handling may make a request slower or
degraded, never wrong; every non-answer is a typed rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engines.base import RetryPolicy
from ..faults import FAULT_KINDS, FaultInjector, FaultSpec
from ..ingest import CompactionPolicy
from ..service import QueryService, SearchRequest
from .harness import Referee, Report, result_bytes, walk_db

__all__ = ["ChaosConfig", "ChaosReport", "fault_specs", "run"]

#: database size: trajectories x timesteps of random walk.
NUM_TRAJECTORIES = 20
STEPS = 12
#: distinct query sets cycled over the requests.
NUM_QUERY_SETS = 8
QUERIES_PER_SET = 3
D = 2.5
METHODS = ("gpu_temporal", "gpu_spatiotemporal", "gpu_spatial",
           "cpu_rtree", "auto")
#: every Nth request carries an impossible deadline.
DEADLINE_EVERY = 29
#: every Nth request, revive blacked-out lanes — the "operator swapped
#: the card" step that lets probation run.
REVIVE_EVERY = 25
#: every Nth GPU request uses a tiny result buffer, forcing the
#: overflow retry/backoff path.
SMALL_BUFFER_EVERY = 4
#: timesteps of each ingested trajectory (steps-1 segments).
INGEST_STEPS = 6
#: compaction trigger: delta rows before the service folds the delta
#: into a fresh base (small, so campaigns actually compact).
COMPACTION_MAX_DELTA = 64
#: service recovery tuning, sized to the campaign's modeled scale (a
#: whole campaign advances the modeled clock by only a few
#: milliseconds, so windows are tens of microseconds).
LANE_QUARANTINE_S = 2e-5
BREAKER_RESET_S = 1e-5
CROSSCHECK_EVERY = 4


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign; everything derives from ``seed``.

    ``injection_rate`` is the per-eligible-operation activation rate
    the fault specs are scaled from; ``ingest_every`` ingests one fresh
    trajectory every Nth request (0 = never)."""

    seed: int = 0
    num_requests: int = 200
    batch_size: int = 8
    num_devices: int = 2
    injection_rate: float = 0.15
    ingest_every: int = 13

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.injection_rate <= 1.0):
            raise ValueError("injection_rate must be within [0, 1]")


def fault_specs(rate: float) -> list[FaultSpec]:
    """One spec per fault kind, rates scaled off ``rate``.

    Blackouts are catastrophic, so they fire at a fifth of the base
    rate and at most twice per campaign — enough to exercise
    quarantine and revival without denying all GPU service."""
    return [
        # Allocations happen ~5x per build: halve the rate so some
        # engines actually get built and run kernels.
        FaultSpec(kind="oom", rate=rate / 2.0),
        FaultSpec(kind="h2d", rate=rate),
        FaultSpec(kind="d2h", rate=rate),
        FaultSpec(kind="kernel_abort", rate=rate),
        # Kernels only run once a build survived and the query upload
        # went through, so kernel ops are scarce; a high stall rate
        # keeps the one non-raising kind represented.
        FaultSpec(kind="kernel_stall", rate=min(4.0 * rate, 1.0),
                  stall_factor=6.0),
        FaultSpec(kind="lane_blackout", rate=max(rate / 5.0, 0.001),
                  count=2),
    ]


@dataclass
class ChaosReport(Report):
    """Survival report of one chaos campaign."""

    #: responses by disposition: ok / degraded / overloaded /
    #: deadline_exceeded.
    outcomes: dict = field(default_factory=dict)
    #: ok+degraded responses byte-identical to the referee.
    verified: int = 0
    #: request ids whose results disagreed with the referee.
    mismatches: list = field(default_factory=list)
    #: total failover hops walked across all requests.
    failover_hops: int = 0
    injector: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def answered(self) -> int:
        """Responses that carried results (ok or degraded)."""
        return (self.outcomes.get("ok", 0)
                + self.outcomes.get("degraded", 0))

    @property
    def regimes_missing(self) -> list[str]:
        """Fault kinds the storm never fired."""
        fired = self.injector.get("fired_by_kind", {})
        return [kind for kind in FAULT_KINDS if not fired.get(kind)]

    @property
    def ok(self) -> bool:
        """Did the service survive: every answered request verified
        exact, every non-answer a typed rejection (by construction),
        nothing lost."""
        return (not self.mismatches
                and self.verified == self.answered
                and self.total == self.config.num_requests)


def run(config: ChaosConfig | None = None) -> ChaosReport:
    """Run one seeded chaos campaign; returns its survival report."""
    cfg = config or ChaosConfig()
    database = walk_db(NUM_TRAJECTORIES, STEPS, seed=cfg.seed)
    query_sets = [
        walk_db(QUERIES_PER_SET, STEPS, seed=cfg.seed + 1000 + i,
                id_offset=10_000 + 100 * i)
        for i in range(NUM_QUERY_SETS)
    ]

    injector = FaultInjector(fault_specs(cfg.injection_rate),
                             seed=cfg.seed)
    svc = QueryService(
        database, num_devices=cfg.num_devices, faults=injector,
        retry=RetryPolicy(max_attempts=4, backoff_s=1e-4),
        lane_quarantine_s=LANE_QUARANTINE_S,
        breaker_reset_s=BREAKER_RESET_S,
        crosscheck_every=CROSSCHECK_EVERY,
        compaction=CompactionPolicy(
            max_delta_segments=COMPACTION_MAX_DELTA))

    referee = Referee()
    report = ChaosReport(config=cfg)
    pending: list[tuple[SearchRequest, int]] = []

    def flush() -> None:
        if not pending:
            return
        epoch = referee.pin(svc.current_snapshot())
        responses = svc.submit_batch([req for req, _ in pending])
        for (req, qi), resp in zip(pending, responses):
            if not resp.ok:
                status = resp.status
            elif resp.metrics.degraded:
                status = "degraded"
            else:
                status = "ok"
            report.outcomes[status] = report.outcomes.get(status, 0) + 1
            if resp.ok:
                report.failover_hops += resp.metrics.failovers
                results = resp.outcome.results
                exact = (result_bytes(results) == referee.truth(
                             epoch, qi, query_sets[qi], D)
                         and len(results.deduplicated())
                         == len(results))
                if exact:
                    report.verified += 1
                else:
                    report.mismatches.append(req.request_id)
        pending.clear()

    for i in range(cfg.num_requests):
        if i and i % REVIVE_EVERY == 0:
            for lane in sorted(injector.dead_lanes):
                injector.revive(lane)
        if cfg.ingest_every and i and i % cfg.ingest_every == 0:
            # Live ingestion: one fresh trajectory lands in the delta;
            # pending requests were not submitted yet, so the whole
            # batch pins the post-ingest snapshot at flush time.
            svc.ingest(walk_db(1, INGEST_STEPS,
                               seed=cfg.seed + 5000 + i,
                               id_offset=50_000 + i))
        qi = i % len(query_sets)
        method = METHODS[i % len(METHODS)]
        params = {}
        if method.startswith("gpu") and i % SMALL_BUFFER_EVERY == 0:
            params = {"result_buffer_items": 64}
        deadline = (1e-9 if i % DEADLINE_EVERY == DEADLINE_EVERY - 1
                    else None)
        pending.append((SearchRequest(
            queries=query_sets[qi], d=D, method=method,
            params=params, deadline_s=deadline,
            request_id=f"c{i:04d}"), qi))
        if len(pending) >= cfg.batch_size:
            flush()
    flush()

    report.injector = injector.report()
    report.service = svc.stats()
    return report
