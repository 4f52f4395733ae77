"""Resilience primitives for the serving layer: breakers and lane health.

Two small state machines keep a faulty pool from taking the service
down, both driven by the service's *modeled* clock so recovery behaviour
is deterministic and testable:

* :class:`CircuitBreaker` — per-engine.  Consecutive engine failures
  open the breaker; while open, requests skip the engine and go straight
  to the next failover rung instead of paying the failure again.  After
  a reset window (modeled seconds, with a skip-count fallback so a
  stalled clock cannot wedge the breaker open), one half-open probe is
  admitted: success closes the breaker, failure re-opens it.
* :class:`LaneHealth` — per device lane.  Consecutive failures
  quarantine the lane (its cached indexes are invalidated and rebuilt
  elsewhere); after the quarantine window the lane is *probationally*
  re-admitted — it takes traffic again, but one more failure
  re-quarantines it with a doubled window, while one success restores
  full health.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CircuitBreaker", "LaneHealth", "NoUsableLaneError",
           "BREAKER_STATES", "LANE_STATES"]

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
    requests, whichever comes first) it admits a half-open probe.

    Parameters
    ----------
    reset_after_s:
        Modeled seconds an open breaker waits before admitting a
        half-open probe.
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
    healthy lane."""

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
