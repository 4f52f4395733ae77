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

from dataclasses import dataclass

__all__ = ["CircuitBreaker", "LaneHealth", "NoUsableLaneError",
           "BREAKER_STATES", "LANE_STATES"]

BREAKER_STATES = ("closed", "half_open", "open")
LANE_STATES = ("healthy", "probation", "quarantined")


class NoUsableLaneError(RuntimeError):
    """Every GPU lane in the pool is quarantined; nothing to build on."""


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker for one engine.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a closed breaker.
    reset_after_s:
        Modeled seconds an open breaker waits before admitting a
        half-open probe.
    probe_after_skips:
        Fallback: admit a probe after this many skipped requests even
        if the modeled clock has not advanced ``reset_after_s`` (an
        all-failing service may never advance it).
    """

    failure_threshold: int = 3
    reset_after_s: float = 30.0
    probe_after_skips: int = 8

    state: str = "closed"
    consecutive_failures: int = 0
    opened_at: float = 0.0
    skips: int = 0
    #: closed -> open transitions, for reporting.
    trips: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")
        if self.probe_after_skips < 1:
            raise ValueError("probe_after_skips must be >= 1")

    def allow(self, now: float) -> bool:
        """May a request use this engine at modeled instant ``now``?"""
        if self.state != "open":
            return True
        if (now - self.opened_at >= self.reset_after_s
                or self.skips >= self.probe_after_skips):
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
                or self.consecutive_failures >= self.failure_threshold):
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
    """Quarantine/probation state machine of one device lane."""

    state: str = "healthy"
    consecutive_failures: int = 0
    quarantined_until: float = 0.0
    #: times this lane has been quarantined; doubles the next window.
    quarantine_count: int = 0

    @property
    def usable(self) -> bool:
        return self.state != "quarantined"

    def record_failure(self, now: float, *, threshold: int,
                       quarantine_s: float) -> bool:
        """One failed operation on the lane; returns True when the lane
        was (re-)quarantined.  A probational lane is re-quarantined by
        its first failure, with the window doubled."""
        self.consecutive_failures += 1
        if (self.state == "probation"
                or self.consecutive_failures >= threshold):
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
