"""Resilience for the serving layer: breakers, lane health, failover.

Two small state machines keep a faulty pool from taking the service
down, both on the service's *modeled* clock so recovery is
deterministic: a per-engine :class:`CircuitBreaker` (an open one makes
requests skip the engine; a half-open probe re-admits it) and a
per-lane :class:`LaneHealth` (quarantine, then probation).
:class:`Failover` keeps a service's breakers, degradations and
failover cross-checks; :class:`~repro.service.pool.DevicePool` keeps
the lanes' health; both report state changes through a
:class:`TransitionReporter`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..engines.cpu_scan import CpuScanEngine
from ..gpu.profiler import RequestMetrics
from ..ingest import Snapshot
from ..obs import Telemetry
from .requests import SearchRequest, SearchResponse

__all__ = ["CircuitBreaker", "Failover", "LaneHealth",
           "NoUsableLaneError", "TransitionReporter", "BREAKER_STATES",
           "LANE_STATES"]

BREAKER_STATES = ("closed", "half_open", "open")
LANE_STATES = ("healthy", "probation", "quarantined")

#: consecutive failures that open a closed breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: skipped requests after which an open breaker admits a probe even if
#: the modeled clock has not advanced ``reset_after_s`` (an all-failing
#: service may never advance it).
PROBE_AFTER_SKIPS = 8
#: consecutive failures that quarantine a healthy lane.
LANE_FAILURE_THRESHOLD = 3


class NoUsableLaneError(RuntimeError):
    """Every GPU lane in the pool is quarantined; nothing to build on."""


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker for one engine.

    ``BREAKER_FAILURE_THRESHOLD`` consecutive failures open it; after
    ``reset_after_s`` modeled seconds (or ``PROBE_AFTER_SKIPS`` skipped
    requests, whichever comes first) it admits a half-open probe:
    success closes the breaker, failure re-opens it.
    """

    reset_after_s: float = 30.0

    state: str = field(default="closed", init=False)
    consecutive_failures: int = field(default=0, init=False)
    opened_at: float = field(default=0.0, init=False)
    skips: int = field(default=0, init=False)
    #: closed -> open transitions, for reporting.
    trips: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")

    def allow(self, now: float) -> bool:
        """May a request use this engine at modeled instant ``now``?"""
        if self.state != "open":
            return True
        if (now - self.opened_at >= self.reset_after_s
                or self.skips >= PROBE_AFTER_SKIPS):
            self.state = "half_open"
            return True
        self.skips += 1
        return False

    def record_success(self) -> bool:
        """Engine served a request; returns True when this closed a
        half-open breaker."""
        closed_probe = self.state == "half_open"
        self.state = "closed"
        self.consecutive_failures = 0
        self.skips = 0
        return closed_probe

    def record_failure(self, now: float) -> bool:
        """Engine failed a request; returns True when this opened the
        breaker (trip or failed half-open probe)."""
        self.consecutive_failures += 1
        if (self.state == "half_open"
                or self.consecutive_failures
                >= BREAKER_FAILURE_THRESHOLD):
            newly_open = self.state != "open"
            self.state = "open"
            self.opened_at = now
            self.skips = 0
            if newly_open:
                self.trips += 1
            return newly_open
        return False

    @property
    def state_code(self) -> int:
        """Gauge encoding: 0 closed, 1 half-open, 2 open."""
        return BREAKER_STATES.index(self.state)

    def to_dict(self) -> dict:
        """JSON-friendly snapshot for stats and the chaos report."""
        return {"state": self.state, "trips": self.trips,
                "consecutive_failures": self.consecutive_failures}


@dataclass
class LaneHealth:
    """Quarantine/probation state machine of one device lane.

    ``LANE_FAILURE_THRESHOLD`` consecutive failures quarantine a
    healthy lane; after its window it is *probationally* re-admitted:
    one more failure re-quarantines it with a doubled window, one
    success restores full health."""

    state: str = field(default="healthy", init=False)
    consecutive_failures: int = field(default=0, init=False)
    quarantined_until: float = field(default=0.0, init=False)
    #: times this lane has been quarantined; doubles the next window.
    quarantine_count: int = field(default=0, init=False)

    @property
    def usable(self) -> bool:
        return self.state != "quarantined"

    def record_failure(self, now: float, *, quarantine_s: float) -> bool:
        """One failed operation on the lane; returns True when the lane
        was (re-)quarantined.  A probational lane is re-quarantined by
        its first failure, with the window doubled."""
        self.consecutive_failures += 1
        if (self.state == "probation"
                or self.consecutive_failures >= LANE_FAILURE_THRESHOLD):
            window = quarantine_s * 2.0 ** self.quarantine_count
            self.quarantine_count += 1
            self.state = "quarantined"
            self.quarantined_until = now + window
            self.consecutive_failures = 0
            return True
        return False

    def record_success(self) -> bool:
        """One successful request on the lane; returns True when this
        re-admitted a probational lane to full health."""
        readmitted = self.state == "probation"
        self.state = "healthy"
        self.consecutive_failures = 0
        if readmitted:
            self.quarantine_count = 0
        return readmitted

    def refresh(self, now: float) -> bool:
        """Expire the quarantine window; returns True when the lane
        just entered probation."""
        if self.state == "quarantined" and now >= self.quarantined_until:
            self.state = "probation"
            return True
        return False

    @property
    def state_code(self) -> int:
        """Gauge encoding: 0 healthy, 1 probation, 2 quarantined."""
        return LANE_STATES.index(self.state)

    def to_dict(self) -> dict:
        """JSON-friendly snapshot for stats and the chaos report."""
        return {"state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "quarantine_count": self.quarantine_count,
                "quarantined_until": self.quarantined_until}


@dataclass
class TransitionReporter:
    """Gauges one family of state machines, ``repro_<kind>_state``
    labeled by ``label``, and counts and logs each change of state
    (from ``states[0]`` at first): ``repro_<kind>_transitions_total``
    and a ``<kind>_transition`` event."""

    telemetry: Telemetry
    kind: str
    label: str
    states: tuple[str, ...]
    state_help: str
    transitions_help: str
    _last: dict = field(default_factory=dict, init=False)

    def report(self, key, machine: CircuitBreaker | LaneHealth) -> None:
        """Gauge ``machine`` as ``key``; report a change of state."""
        reg = self.telemetry.metrics
        labels = {self.label: str(key)}
        reg.gauge(f"repro_{self.kind}_state", self.state_help).set(
            machine.state_code, **labels)
        prev = self._last.get(key, self.states[0])
        if machine.state != prev:
            self._last[key] = machine.state
            reg.counter(f"repro_{self.kind}_transitions_total",
                        self.transitions_help).inc(
                **labels, from_state=prev, to_state=machine.state)
            self.telemetry.events.emit(
                f"{self.kind}_transition", **{self.label: key},
                from_state=prev, to_state=machine.state)


class Failover:
    """A service's failover bookkeeping: the per-engine breakers, each
    created when its engine is first tried; the degradations; and
    the check of every ``crosscheck_every``-th failover answer (0 =
    none) against ``cpu_scan`` over its snapshot's logical database,
    off the serving clock (degraded must mean *slower*, never
    *wrong*)."""

    def __init__(self, telemetry: Telemetry, *, breaker_reset_s: float,
                 crosscheck_every: int) -> None:
        self.telemetry = telemetry
        self.crosscheck_every = crosscheck_every
        self.breakers: dict[str, CircuitBreaker] = defaultdict(
            lambda: CircuitBreaker(reset_after_s=breaker_reset_s))
        self.degradations = 0
        self.failover_serves = 0
        self.crosschecks = 0
        #: request ids whose failover response disagreed with cpu_scan
        #: ground truth (expected to stay empty).
        self.crosscheck_mismatches: list[str] = []
        self._states = TransitionReporter(
            telemetry, "breaker", "engine", BREAKER_STATES,
            "per-engine breaker: 0 closed / 1 half-open / 2 open",
            "breaker state transitions (labeled from/to)")
        #: the ground-truth scan of one epoch's logical database.
        self._truth: tuple[int, CpuScanEngine] | None = None

    def allow(self, engine: str, now: float,
              request: SearchRequest) -> bool:
        """May ``request`` try ``engine`` at modeled instant ``now``?
        A rung skipped on an open breaker is counted and logged."""
        if self.breakers[engine].allow(now):
            return True
        self.telemetry.metrics.counter(
            "repro_breaker_skips_total",
            "ladder rungs skipped on an open breaker").inc(
            engine=engine)
        self.telemetry.events.emit(
            "breaker_skip", request_id=request.request_id,
            engine=engine)
        return False

    def record_failure(self, request: SearchRequest, engine: str,
                       hop: int, exc: Exception, now: float) -> None:
        """``engine`` failed ``request`` at ladder hop ``hop``, modeled
        instant ``now``.  No usable lane is not the engine's fault: it
        costs no breaker penalty."""
        if not isinstance(exc, NoUsableLaneError):
            breaker = self.breakers[engine]
            if breaker.record_failure(now):
                self.telemetry.events.emit(
                    "breaker_open", engine=engine, trips=breaker.trips)
            self._states.report(engine, breaker)
        self.telemetry.metrics.counter(
            "repro_engine_failures_total",
            "engine failures observed by the service").inc(
            engine=engine, error=type(exc).__name__)
        self.telemetry.events.emit(
            "failover", request_id=request.request_id,
            from_method=engine, hop=hop,
            error=f"{type(exc).__name__}: {exc}")

    def record_success(self, engine: str) -> None:
        """``engine`` served a request."""
        breaker = self.breakers[engine]
        if breaker.record_success():
            self.telemetry.events.emit("breaker_closed", engine=engine)
        self._states.report(engine, breaker)

    def degrade(self, request: SearchRequest, method: str,
                reason: Exception | str | None,
                metrics: RequestMetrics, *, fallback: str) -> None:
        """``request`` asked for ``method`` and is answered by
        ``fallback`` instead, because of ``reason``."""
        if isinstance(reason, BaseException):
            reason = f"{method}: {type(reason).__name__}: {reason}"
        reason = reason or f"{method}: failed"
        metrics.degraded = True
        metrics.degradation_reason = reason
        self.degradations += 1
        self.telemetry.metrics.counter(
            "repro_degradations_total",
            "requests degraded to a fallback engine").inc(
            from_method=method)
        self.telemetry.events.emit(
            "degradation", request_id=request.request_id, method=method,
            fallback=fallback, reason=reason)

    def failed_over(self, request: SearchRequest,
                    response: SearchResponse, snapshot: Snapshot,
                    method: str, reason: str | None, hops: int) -> None:
        """A rung ``hops`` below ``method`` answered ``request``:
        record the degradation and cross-check the sampled answers."""
        metrics = response.metrics
        metrics.failovers = hops
        self.failover_serves += 1
        self.degrade(request, method, reason, metrics,
                     fallback=metrics.engine)
        if (self.crosscheck_every <= 0
                or (self.failover_serves - 1) % self.crosscheck_every
                or metrics.engine == CpuScanEngine.name):
            return  # not sampled, or served by the truth engine itself
        with self.telemetry.span(
                "service.crosscheck", request_id=request.request_id,
                engine=metrics.engine):
            if self._truth is None or self._truth[0] != snapshot.epoch:
                # Every mutation bumps the epoch.
                self._truth = (snapshot.epoch,
                               CpuScanEngine(snapshot.logical()))
            truth, _ = self._truth[1].search(
                request.queries, request.d,
                exclude_same_trajectory=request.exclude_same_trajectory)
            match = response.outcome.results.equivalent_to(truth)
        self.crosschecks += 1
        self.telemetry.metrics.counter(
            "repro_crosschecks_total",
            "failover responses verified against cpu_scan").inc(
            result="match" if match else "mismatch")
        self.telemetry.events.emit(
            "crosscheck", request_id=request.request_id,
            engine=metrics.engine, match=match)
        if not match:
            self.crosscheck_mismatches.append(request.request_id)
