"""The device pool: lane timelines, engine placement, and lane health,
which :class:`DevicePool` alone records, gauges and reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..gpu.device import TESLA_C2075
from ..obs import Telemetry
from .resilience import (LANE_STATES, LaneHealth, NoUsableLaneError,
                         TransitionReporter)

__all__ = ["DeviceLane", "DevicePool"]


@dataclass
class DeviceLane:
    """One device's modeled timeline and health (its residency is the
    engine cache's :meth:`~repro.service.cache.EngineCache.lane_bytes`)."""

    index: int
    #: modeled time at which the lane next becomes free.
    busy_until: float = 0.0
    #: quarantine/probation state machine (modeled clock).
    health: LaneHealth = field(default_factory=LaneHealth)


class DevicePool:
    """A pool of identical virtual GPUs (the paper's C2075) plus one
    host lane.

    Engines are *homed* on the least-loaded usable lane when built and
    stay there (indexes are device-resident; migrating one would be a
    rebuild).  Each engine still owns a private
    :class:`~repro.gpu.device.VirtualGPU` — real devices isolate
    contexts, and sharing one memory manager would collide allocation
    names — so a lane models the *timeline and capacity* of a card,
    not a shared address space.

    Each lane's :class:`~repro.service.resilience.LaneHealth` is
    charged and credited only here: ``LANE_FAILURE_THRESHOLD``
    consecutive failures quarantine a lane for ``quarantine_s`` modeled
    seconds (doubling on repeat offenses) and drop its engines through
    ``drop_lane(index)`` (which returns how many); after the window the
    lane is probationally re-admitted.  The host lane is never
    quarantined — CPU engines are the fallback of last resort.
    """

    #: lane index used for CPU engines (host execution).
    HOST_LANE = -1

    def __init__(self, num_devices: int, *, quarantine_s: float,
                 telemetry: Telemetry,
                 drop_lane: Callable[[int], int]) -> None:
        if num_devices < 1:
            raise ValueError("pool needs at least one device")
        if quarantine_s <= 0:
            raise ValueError("quarantine_s must be positive")
        self.quarantine_s = quarantine_s
        self.telemetry = telemetry
        self.lanes = [DeviceLane(i) for i in range(num_devices)]
        self.host = DeviceLane(self.HOST_LANE)
        self._drop_lane = drop_lane
        self._states = TransitionReporter(
            telemetry, "lane", "lane", LANE_STATES,
            "lane health: 0 healthy / 1 probation / 2 quarantined",
            "lane health transitions (labeled from/to)")

    @property
    def num_devices(self) -> int:
        return len(self.lanes)

    @property
    def total_mem_bytes(self) -> int:
        return self.num_devices * TESLA_C2075.global_mem_bytes

    def lane(self, index: int) -> DeviceLane:
        return self.host if index == self.HOST_LANE else self.lanes[index]

    def home_for(self, lane_bytes: Callable[[int], int]) -> DeviceLane:
        """Pick the usable lane with the most free memory for a new
        engine, ``lane_bytes(index)`` being the device bytes already
        homed there; raises :class:`NoUsableLaneError` when every GPU
        lane is quarantined (the failover ladder then moves on to
        CPU)."""
        usable = [lane for lane in self.lanes if lane.health.usable]
        if not usable:
            raise NoUsableLaneError(
                f"all {self.num_devices} GPU lanes are quarantined")
        return min(usable, key=lambda lane: lane_bytes(lane.index))

    def busiest_until(self) -> float:
        """Latest modeled busy_until across all lanes (incl. host)."""
        return max(self.host.busy_until,
                   *(lane.busy_until for lane in self.lanes))

    # -- health ------------------------------------------------------------------

    def refresh(self, now: float) -> None:
        """Expire the quarantine windows that ended by modeled instant
        ``now``: those lanes enter probation."""
        for lane in self.lanes:
            if lane.health.refresh(now):
                self._states.report(lane.index, lane.health)
                self.telemetry.events.emit("lane_probation",
                                           lane=lane.index)

    def record_failure(self, index: int, now: float,
                       exc: Exception) -> None:
        """Charge ``exc`` to lane ``index`` at modeled instant ``now``;
        a quarantine drops the engines homed there, whose indexes are
        unreachable now, so later requests rebuild on healthy lanes.
        The host lane absorbs failures without ever quarantining."""
        if index == self.HOST_LANE:
            return
        health = self.lanes[index].health
        quarantined = health.record_failure(
            now, quarantine_s=self.quarantine_s)
        self._states.report(index, health)
        if not quarantined:
            return
        dropped = self._drop_lane(index)
        self.telemetry.metrics.counter(
            "repro_lane_quarantines_total",
            "lane quarantine transitions").inc(lane=str(index))
        self.telemetry.events.emit(
            "lane_quarantined", lane=index, dropped_entries=dropped,
            until_s=health.quarantined_until,
            error=f"{type(exc).__name__}: {exc}")

    def record_success(self, index: int) -> None:
        """Credit one served request to lane ``index``; a probational
        lane is re-admitted to full health."""
        if index == self.HOST_LANE:
            return
        health = self.lanes[index].health
        if health.record_success():
            self.telemetry.events.emit("lane_readmitted", lane=index)
        self._states.report(index, health)
