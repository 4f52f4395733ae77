"""Standing queries pinned exact, epoch by epoch, across a crash.

The headline proof of the standing-query subsystem: a seeded
moving-objects stream (:mod:`repro.data.moving`) is driven through a
durable :class:`~repro.service.QueryService` with continuous
subscriptions registered up front, and after **every** mutation the
maintained incremental answer of every subscription is compared —
byte-identically — against the referee's from-scratch ``cpu_scan`` over
the snapshot's logical database.  Mid-stream the campaign forces
compactions, kills the process at a
:class:`~repro.durability.KillSwitch` point, recovers, and resumes the
schedule; the equivalence checks never stop.

On top of exactness the campaign models a *client*: it drains the typed
``match_added``/``match_removed`` event stream after every operation
(and across the crash), maintains its own match sets purely from the
events, and at the end asserts the event-folded sets equal the
service's maintained sets — no event was lost, duplicated, or emitted
out of life-cycle order (a pair is added at most once and only removed
after being added; entry ids are never reused, so that invariant is
exact, not probabilistic).

Finally the report asserts the maintenance was genuinely delta-aware:
``skipped`` (subscriptions an epoch's delta provably cannot change —
an append missing their candidate envelope, a delete hiding none of
their held entries — and so left untouched) must be positive, so the
campaign fails if the manager silently degrades to settling everybody.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.types import SegmentArray, Trajectory
from ..data.moving import FleetConfig, MovingObjectsWorkload
from ..data.random_walk import make_random_walks
from ..durability import DurabilityPolicy, KILL_POINTS, KillSwitch
from ..engines.base import RetryPolicy
from ..faults import FaultInjector, FaultSpec
from ..ingest import Mutation
from ..service import QueryService, SearchRequest
from ..standing import Subscription
from .harness import (CrashResume, Referee, Report, durability_dir,
                      result_bytes)

__all__ = ["StandingConfig", "StandingReport", "run"]

#: the match-delta event kinds the client model folds.
MATCH_KINDS = ("match_added", "match_removed")

FLEET = FleetConfig()
#: observations per independent (non-tracking) query trajectory.
QUERY_STEPS = 6
QUERY_STEP_SIGMA = 1.2
#: every Nth subscription gets a temporal window.
WINDOW_EVERY = 3
POLICY = DurabilityPolicy(sync="fsync", checkpoint_every=4)


@dataclass(frozen=True)
class StandingConfig:
    """Knobs of one standing campaign; everything derives from ``seed``.

    ``stream_epochs`` workload epochs (each becomes >= 1 database
    mutation) against ``num_subscriptions`` subscriptions at threshold
    ``d``; one crash at ``kill_point``, on exactly mutation
    ``crash_on_op`` when given (WAL kill points only; None = a
    mid-schedule default).  ``faults`` wires a device FaultInjector
    (rate ``fault_rate``) + retries into the service, so the one-shot
    probe sent every ``probe_every``-th mutation (0 = never) exercises
    the resilience ladder mid-campaign."""

    seed: int = 0
    stream_epochs: int = 16
    num_subscriptions: int = 6
    d: float = 3.0
    kill_point: str = "wal_post_append"
    crash_on_op: int | None = None
    faults: bool = False
    fault_rate: float = 0.12
    probe_every: int = 5

    def __post_init__(self) -> None:
        if self.stream_epochs < 6:
            raise ValueError("stream_epochs must be >= 6 (the schedule "
                             "needs room for compactions and a "
                             "mid-stream crash)")
        if self.num_subscriptions < 1:
            raise ValueError("need at least one subscription")
        if self.d <= 0:
            raise ValueError("d must be positive")
        if self.kill_point not in KILL_POINTS:
            raise ValueError(f"unknown kill point {self.kill_point!r}; "
                             f"expected one of {KILL_POINTS}")


@dataclass
class StandingReport(Report):
    """Everything one standing campaign measured."""

    num_ops: int = 0
    compactions: int = 0
    #: exactness checks run (one per subscription per mutation).
    checks: int = 0
    #: checks where the incremental answer != from-scratch cpu_scan.
    mismatches: list = field(default_factory=list)
    #: life-cycle violations in the drained event stream (duplicate
    #: adds, removes without adds, ...).
    event_violations: list = field(default_factory=list)
    #: the simulated crash actually fired.
    crash_fired: bool = False
    crash_occurrence: int = 0
    recovered_epoch: int = -1
    #: operations re-driven after recovery to finish the schedule.
    resumed_ops: int = 0
    #: standing-manager lifetime counters summed across the crashed
    #: and recovered service instances.
    standing: dict = field(default_factory=dict)
    #: event-folded client sets == maintained sets at end of stream.
    stream_consistent: bool = False
    probes_sent: int = 0
    probes_ok: int = 0
    #: device faults fired during probes, by kind (faults mode only).
    faults_fired: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def regimes_missing(self) -> list[str]:
        """What the stream was built to provoke and did not: a forced
        compaction, the crash, its recovery, a ``match_added`` event,
        and delta-aware maintenance — real skips, and strictly fewer
        affected settles than subscriptions x delta epochs."""
        t = self.standing
        delta_aware = (t.get("skipped", 0) > 0
                       and t.get("affected", 0)
                       < (t.get("delta_epochs", 0)
                          * self.config.num_subscriptions))
        return [name for name, occurred in (
            ("compaction", self.compactions >= 1),
            ("crash", self.crash_fired),
            ("recovery", t.get("recoveries", 0) >= 1),
            ("match_added", t.get("events_added", 0) > 0),
            ("delta_aware", delta_aware)) if not occurred]

    @property
    def ok(self) -> bool:
        return (self.error is None
                and self.checks > 0
                and not self.mismatches
                and not self.event_violations
                and not self.regimes_missing
                and self.stream_consistent)


# -- schedule -----------------------------------------------------------------


def _materialize(cfg: StandingConfig, deltas: list
                 ) -> tuple[SegmentArray, list[Mutation]]:
    """Fold the streamed epochs into a base + deterministic op schedule.

    The first epoch's segments seed the base; every later epoch becomes
    its departures' deletes followed by one append, with compactions
    forced at one and two thirds of the stream so the answer-invariance
    of folding is always exercised mid-campaign.
    """
    base = deltas[0].segments
    ingested = set(np.unique(base.traj_ids).tolist())
    compact_at = {max(1, cfg.stream_epochs // 3),
                  max(2, 2 * cfg.stream_epochs // 3)}
    schedule: list[Mutation] = []
    for delta in deltas[1:]:
        for tid in delta.departures:
            if tid in ingested:  # never emitted -> nothing to delete
                schedule.append(Mutation("delete", traj_id=tid))
        schedule.append(Mutation("append", segments=delta.segments))
        ingested.update(np.unique(delta.segments.traj_ids).tolist())
        if delta.index in compact_at:
            schedule.append(Mutation("compact"))
    return base, schedule


def _tracking_queries(cfg: StandingConfig, deltas: list, i: int,
                      rng: np.random.Generator) -> SegmentArray | None:
    """A query trajectory shadowing a real vehicle's mid-stream chunk,
    offset by a fraction of ``d`` — guaranteed to start matching the
    instant that epoch's segments are ingested (every seed exercises
    ``match_added``, not just lucky ones)."""
    epoch = 1 + (i * max(1, len(deltas) - 2)) // max(
        1, cfg.num_subscriptions)
    delta = deltas[min(epoch, len(deltas) - 1)]
    if not delta.active:
        return None
    tid = delta.active[i % len(delta.active)]
    s = delta.segments
    rows = np.flatnonzero(s.traj_ids == tid)
    rows = rows[np.argsort(s.ts[rows])]
    pts = np.vstack([np.column_stack(
        (s.xs[rows], s.ys[rows], s.zs[rows])),
        [[s.xe[rows[-1]], s.ye[rows[-1]], s.ze[rows[-1]]]]])
    times = np.concatenate([s.ts[rows], [s.te[rows[-1]]]])
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction) or 1.0
    offset = direction * rng.uniform(0.2, 0.6) * cfg.d
    return SegmentArray.from_trajectories(
        [Trajectory(50_000 + i, times, pts + offset)])


def _make_subscriptions(cfg: StandingConfig, deltas: list
                        ) -> list[Subscription]:
    """Seeded subscriptions spread across the stream's time axis.

    Most shadow a real vehicle (see :func:`_tracking_queries`); every
    third is an independent random walk that usually matches nothing —
    together the set guarantees both genuine ``match_added`` churn and
    genuine envelope skips on every seed."""
    rng = np.random.default_rng(cfg.seed + 0x57A4D)
    horizon = cfg.stream_epochs * FLEET.epoch_steps * FLEET.dt
    subs: list[Subscription] = []
    for i in range(cfg.num_subscriptions):
        queries = None
        if i % 3 != 2:
            queries = _tracking_queries(cfg, deltas, i, rng)
        if queries is None:
            t0 = horizon * i / cfg.num_subscriptions
            queries = SegmentArray.from_trajectories(make_random_walks(
                num_trajectories=1, num_timesteps=QUERY_STEPS,
                box_side=FLEET.box_side, step_sigma=QUERY_STEP_SIGMA,
                start_time_range=(t0, t0), dt=2.0 * FLEET.dt, rng=rng,
                first_traj_id=50_000 + i))
        window = None
        if i % WINDOW_EVERY == 1:
            t_lo = float(queries.ts.min())
            span = float(queries.te.max()) - t_lo
            window = (t_lo + 0.1 * span, t_lo + 0.9 * span)
        subs.append(Subscription(
            sub_id=f"sub-{i:02d}", queries=queries, d=cfg.d,
            window=window,
            exclude_same_trajectory=(i == cfg.num_subscriptions - 1)))
    return subs


# -- the client model ---------------------------------------------------------


class _Client:
    """A subscriber that only sees the event stream.

    Folds drained ``match_added``/``match_removed`` events into its own
    per-subscription match sets and checks each pair's life-cycle
    (added once, removed at most once, strictly in that order) — entry
    segment ids are never reused, so any violation is a real duplicate
    or loss, not churn."""

    def __init__(self, report: StandingReport) -> None:
        self.report = report
        self.last_seq = 0
        self.matches: dict[str, dict] = {}
        self._lifecycle: dict[tuple, str] = {}

    def snapshot_initial(self, service: QueryService,
                         subs: list[Subscription]) -> None:
        """Adopt the registration-time answers (state, not events)."""
        for sub in subs:
            poll = service.poll_subscription(sub.sub_id)
            self.matches[sub.sub_id] = {
                (int(q), int(e)): (float(lo), float(hi))
                for q, e, lo, hi in poll["matches"]}
            self.last_seq = max(self.last_seq, poll["last_seq"])
            for key in self.matches[sub.sub_id]:
                self._lifecycle[(sub.sub_id,) + key] = "added"

    def drain(self, service: QueryService) -> None:
        """Fold every event past ``last_seq`` (crash-safe: seqs are
        monotonic across recovery, replayed events keep their old
        seqs and are filtered out here)."""
        for rec in service.standing.events_since(self.last_seq):
            self.last_seq = max(self.last_seq, int(rec["seq"]))
            if rec["kind"] not in MATCH_KINDS:
                continue
            sub_id = rec["sub_id"]
            key = (int(rec["q_id"]), int(rec["e_id"]))
            state = self._lifecycle.get((sub_id,) + key)
            if rec["kind"] == "match_added":
                if state == "added":
                    self._violation(rec, "duplicate add")
                elif state == "removed":
                    self._violation(rec, "re-add after remove")
                else:
                    self._lifecycle[(sub_id,) + key] = "added"
                self.matches.setdefault(sub_id, {})[key] = (
                    float(rec["t_lo"]), float(rec["t_hi"]))
            else:
                if state != "added":
                    self._violation(rec, "remove without add")
                else:
                    self._lifecycle[(sub_id,) + key] = "removed"
                self.matches.get(sub_id, {}).pop(key, None)

    def consistent_with(self, service: QueryService,
                        subs: list[Subscription]) -> bool:
        """Event-folded sets == the service's maintained sets."""
        for sub in subs:
            held = service.standing.results(sub.sub_id)
            if self.matches.get(sub.sub_id, {}) != dict(zip(
                    zip(held.q_ids.tolist(), held.e_ids.tolist()),
                    zip(held.t_lo.tolist(), held.t_hi.tolist()))):
                return False
        return True

    def _violation(self, rec: dict, why: str) -> None:
        self.report.event_violations.append(
            {"why": why, "seq": int(rec["seq"]),
             "epoch": int(rec["epoch"]), "kind": rec["kind"],
             "sub_id": rec["sub_id"], "q_id": int(rec["q_id"]),
             "e_id": int(rec["e_id"])})


# -- the campaign -------------------------------------------------------------


def _crash_occurrence(cfg: StandingConfig, num_ops: int) -> int:
    """Which visit of the kill point fires (see
    :func:`repro.campaigns.crash._occurrences` for the rationale)."""
    if cfg.kill_point in ("wal_mid_append", "wal_post_append"):
        return cfg.crash_on_op or max(2, num_ops // 2)
    return 2 if cfg.kill_point == "checkpoint_mid" else 1


def _service_kwargs(cfg: StandingConfig) -> dict:
    if not cfg.faults:
        return {}
    return {"faults": FaultInjector(
                [FaultSpec(kind="h2d", rate=cfg.fault_rate),
                 FaultSpec(kind="kernel_abort", rate=cfg.fault_rate)],
                seed=cfg.seed),
            "retry": RetryPolicy(max_attempts=4, backoff_s=1e-4)}


def run(config: StandingConfig | None = None) -> StandingReport:
    """Run one standing campaign; returns the report."""
    cfg = config or StandingConfig()
    deltas = MovingObjectsWorkload(
        config=FLEET, seed=cfg.seed).epochs(cfg.stream_epochs)
    base, schedule = _materialize(cfg, deltas)
    subs = _make_subscriptions(cfg, deltas)
    report = StandingReport(config=cfg)
    report.num_ops = len(schedule)
    report.compactions = sum(m.op == "compact" for m in schedule)
    report.crash_occurrence = _crash_occurrence(cfg, len(schedule))
    client = _Client(report)
    referee = Referee()

    def settle(service: QueryService, where: str) -> None:
        """Drain the event stream, then check every subscription's
        maintained answer against the referee — byte identity, not
        tolerance."""
        client.drain(service)
        epoch = referee.pin(service.current_snapshot())
        for sub in subs:
            want = result_bytes(sub.apply_window(referee.results(
                epoch, sub.queries, sub.d,
                exclude_same_trajectory=sub.exclude_same_trajectory)))
            report.checks += 1
            if want != result_bytes(
                    service.standing.results(sub.sub_id)):
                report.mismatches.append(
                    {"where": where, "sub_id": sub.sub_id})

    def absorb(service: QueryService) -> None:
        """Collect a service instance's lifetime counters (the crashed
        instance is otherwise abandoned as a dead process leaves it)."""
        for key, value in service.standing.totals.items():
            report.standing[key] = report.standing.get(key, 0) + value
        if service.faults is not None:
            for kind, n in service.faults.fired_by_kind.items():
                report.faults_fired[kind] = (
                    report.faults_fired.get(kind, 0) + n)

    with durability_dir() as root:
        try:
            driver = CrashResume(
                base, schedule, root / "durable", policy=POLICY,
                kill=KillSwitch(cfg.kill_point,
                                occurrence=report.crash_occurrence),
                **_service_kwargs(cfg))
            for sub in subs:
                driver.service.register_subscription(sub)
            client.snapshot_initial(driver.service, subs)
            settle(driver.service, "registration")
            for i in driver.until_crash():
                settle(driver.service, f"op-{i}")
                if cfg.probe_every and i % cfg.probe_every == 0:
                    # A GPU engine, not "auto": the planner would route
                    # this small a database to the CPU and the injector
                    # would never see an op.
                    response = driver.service.submit(SearchRequest(
                        queries=subs[i % len(subs)].queries, d=cfg.d,
                        method="gpu_spatiotemporal",
                        request_id=f"probe-{i}"))
                    report.probes_sent += 1
                    report.probes_ok += int(response.ok)
            report.crash_fired = driver.crashed
            if driver.crashed:
                absorb(driver.service)
                report.recovered_epoch = driver.recover(
                    **_service_kwargs(cfg)).epoch
                # Replayed events keep pre-crash seqs (the client saw
                # them); catch-up events get fresh ones — the drain
                # folds exactly the delta the crash interrupted, once.
                settle(driver.service, "recovery")
                for i in driver.resume():
                    settle(driver.service, f"resumed-{i}")
                report.resumed_ops = driver.resumed_ops
            report.stream_consistent = client.consistent_with(
                driver.service, subs)
            absorb(driver.service)
            driver.service.shutdown()
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            report.error = f"{type(exc).__name__}: {exc}"
    return report
