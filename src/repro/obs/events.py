"""Structured events: typed, timestamped records plus a slow-query log.

Replaces the service's former bare ``list[dict]`` event trail.  Every
record is an :class:`Event` — a kind, an epoch timestamp, and a flat
field dict — held in a bounded :class:`EventLog` that writes JSON
lines, so a service run leaves a machine-readable audit trail
(degradations, evictions, retries, slow queries) next to its
responses.

The :class:`SlowQueryLog` is the operator-facing cut of the same data:
requests whose modeled latency crossed a configurable threshold, with
enough context (engine, cache state, queue wait) to triage without
re-running the workload.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Event", "EventLog", "SlowQueryLog", "SlowQuery",
           "STANDING_EVENT_KINDS"]

#: event kinds the standing-query layer emits (repro.standing): the
#: per-pair delta stream, subscription lifecycle, per-epoch summaries,
#: and recovery reports.  Grouped here so dashboards and tests filter
#: on one authoritative tuple instead of string literals.
STANDING_EVENT_KINDS = (
    "match_added", "match_removed",
    "subscription_registered", "subscription_unregistered",
    "standing_epoch", "standing_recovered",
)


@dataclass
class Event:
    """One structured record: what happened, when, and the details."""

    kind: str
    ts: float
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"kind": self.kind, "ts": float(self.ts),
                "fields": dict(self.fields)}


class EventLog:
    """Bounded, append-only sequence of :class:`Event` records.

    The bound is a ring buffer: once ``maxlen`` events are held, each
    new :meth:`emit` silently evicts the oldest record and increments
    ``dropped_events`` — long campaigns keep a flat memory footprint
    and the counter says how much history the ring discarded.
    ``maxlen=None`` disables the bound (unbounded growth).
    """

    def __init__(self, *, maxlen: int | None = 10_000,
                 enabled: bool = True) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be >= 1 (or None)")
        self.enabled = enabled
        self._events: deque[Event] = deque(maxlen=maxlen)
        #: oldest events overwritten by the ring bound.
        self.dropped_events = 0

    @property
    def maxlen(self) -> int | None:
        """The ring bound (None = unbounded)."""
        return self._events.maxlen

    def emit(self, kind: str, **fields) -> Event | None:
        """Record one event now; returns it (None when disabled)."""
        if not self.enabled:
            return None
        ring = self._events
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped_events += 1
        event = Event(kind=kind, ts=time.time(), fields=fields)
        ring.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    # -- JSON lines ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first."""
        return "".join(json.dumps(e.to_dict()) + "\n" for e in self)

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path


@dataclass
class SlowQuery:
    """One request that crossed the slow-query latency threshold."""

    request_id: str
    engine: str
    modeled_seconds: float
    queue_wait_s: float
    cache_hit: bool
    degraded: bool
    ts: float

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "request_id": self.request_id,
            "engine": self.engine,
            "modeled_seconds": float(self.modeled_seconds),
            "queue_wait_s": float(self.queue_wait_s),
            "cache_hit": bool(self.cache_hit),
            "degraded": bool(self.degraded),
            "ts": float(self.ts),
        }


class SlowQueryLog:
    """Requests slower (modeled) than a configurable threshold."""

    def __init__(self, threshold_s: float = 1.0, *,
                 maxlen: int = 1000, enabled: bool = True) -> None:
        if threshold_s < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold_s = float(threshold_s)
        self.enabled = enabled
        self._entries: deque[SlowQuery] = deque(maxlen=maxlen)

    def observe(self, *, request_id: str, engine: str,
                modeled_seconds: float, queue_wait_s: float = 0.0,
                cache_hit: bool = False, degraded: bool = False
                ) -> SlowQuery | None:
        """Record the request iff it crossed the threshold."""
        if not self.enabled or modeled_seconds < self.threshold_s:
            return None
        entry = SlowQuery(request_id=request_id, engine=engine,
                          modeled_seconds=modeled_seconds,
                          queue_wait_s=queue_wait_s,
                          cache_hit=cache_hit, degraded=degraded,
                          ts=time.time())
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> list[SlowQuery]:
        return list(self._entries)

    # -- JSON lines ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first."""
        return "".join(json.dumps(e.to_dict()) + "\n" for e in self)

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    def render(self) -> str:
        """Human-readable table, slowest first."""
        rows = sorted(self._entries, key=lambda e: -e.modeled_seconds)
        lines = [f"slow queries (modeled >= {self.threshold_s:g} s): "
                 f"{len(rows)}"]
        for e in rows:
            flags = []
            if e.cache_hit:
                flags.append("cache-hit")
            if e.degraded:
                flags.append("degraded")
            lines.append(
                f"  {e.request_id or '-':>12s} {e.engine:18s} "
                f"modeled {e.modeled_seconds:.6f} s "
                f"wait {e.queue_wait_s:.6f} s"
                f"{'  [' + ', '.join(flags) + ']' if flags else ''}")
        return "\n".join(lines)
