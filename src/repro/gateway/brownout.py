"""The brownout ladder: graceful degradation under sustained pressure.

Overload handling has two time scales.  Queue-full and infeasible-
deadline rejections are *instantaneous* (per request, in
:mod:`repro.gateway.app`); the brownout ladder is the *sustained*
response — a small state machine stepping through increasingly blunt
degradations as a scalar pressure signal rises:

==== ======================= ==========================================
lvl  name                    effect
==== ======================= ==========================================
0    normal                  everything admitted on its own merits
1    shed-batch              the batch tier is rejected on arrival
2    degrade-engine          ``method="auto"`` is rewritten to
                             ``cpu_scan`` — answers stay byte-identical
                             (cpu_scan *is* the referee engine), only
                             slower; explicit GPU requests still run
3    refuse-writes           mutations are refused (reads still serve)
==== ======================= ==========================================

Pressure is the max of three normalized signals the gateway computes
from its queues and the backend's resilience state (circuit breakers
open, lanes quarantined / replicas dead).  Levels 1-3 are entered at
the ``BROWNOUT_THRESHOLDS`` pressures.  Escalation is immediate;
de-escalation requires pressure to drop ``BROWNOUT_HYSTERESIS`` *below*
the entry threshold so the ladder does not flap at a boundary.

Every transition is a labeled counter
(``repro_gateway_brownout_transitions_total{from_level,to_level}``),
a gauge (``repro_gateway_brownout_level``), and a structured event —
an operator can reconstruct the whole storm from ``/metrics``.
"""

from __future__ import annotations

from ..obs import Telemetry

__all__ = ["BROWNOUT_LEVELS", "BrownoutLadder"]

#: level names, index = level number.
BROWNOUT_LEVELS = ("normal", "shed_batch", "degrade_engine",
                   "refuse_writes")
#: entry pressure of levels 1, 2 and 3 (increasing).
BROWNOUT_THRESHOLDS = (0.5, 0.75, 0.92)
#: how far below a level's entry pressure it must fall to leave it.
BROWNOUT_HYSTERESIS = 0.1


class BrownoutLadder:
    """Pressure-driven degradation state machine (see module docs)."""

    def __init__(self, *, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self.level = 0
        self.pressure = 0.0
        #: ``(from_level, to_level, pressure)`` per transition.
        self.transitions: list[tuple[int, int, float]] = []
        self._gauge()

    # -- effects -----------------------------------------------------------------

    @property
    def sheds_batch(self) -> bool:
        return self.level >= 1

    @property
    def degrades_engine(self) -> bool:
        return self.level >= 2

    @property
    def refuses_writes(self) -> bool:
        return self.level >= 3

    @property
    def name(self) -> str:
        return BROWNOUT_LEVELS[self.level]

    # -- state machine -----------------------------------------------------------

    def _target_level(self, pressure: float) -> int:
        up = 0
        for i, entry in enumerate(BROWNOUT_THRESHOLDS, start=1):
            if pressure >= entry:
                up = i
        if up >= self.level:
            return up
        # De-escalation: drop only the levels whose entry threshold the
        # pressure has cleared by the hysteresis margin.
        down = self.level
        while down > 0 and pressure < (BROWNOUT_THRESHOLDS[down - 1]
                                       - BROWNOUT_HYSTERESIS):
            down -= 1
        return down

    def update(self, pressure: float) -> int:
        """Feed one pressure sample; returns the (possibly new) level."""
        self.pressure = float(pressure)
        target = self._target_level(self.pressure)
        if target != self.level:
            prev = self.level
            self.level = target
            self.transitions.append((prev, target, self.pressure))
            self.telemetry.metrics.counter(
                "repro_gateway_brownout_transitions_total",
                "brownout ladder transitions (labeled from/to)").inc(
                from_level=str(prev), to_level=str(target))
            self.telemetry.events.emit(
                "brownout_transition", from_level=prev,
                to_level=target, from_name=BROWNOUT_LEVELS[prev],
                to_name=BROWNOUT_LEVELS[target],
                pressure=self.pressure)
        self._gauge()
        return self.level

    def _gauge(self) -> None:
        self.telemetry.metrics.gauge(
            "repro_gateway_brownout_level",
            "current brownout ladder level (0 normal .. 3 "
            "refuse-writes)").set(self.level)
        self.telemetry.metrics.gauge(
            "repro_gateway_pressure",
            "last overload pressure sample fed to the ladder").set(
            self.pressure)

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"level": self.level, "name": self.name,
                "pressure": self.pressure,
                "thresholds": list(BROWNOUT_THRESHOLDS),
                "hysteresis": BROWNOUT_HYSTERESIS,
                "transitions": [list(t) for t in self.transitions]}
