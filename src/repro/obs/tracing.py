"""Span-based tracing: one request becomes a tree of timed spans.

A :class:`Span` carries two clocks, matching the repository's split
between simulator and simulated machine:

* **wall** — ``perf_counter`` seconds the simulator actually spent
  inside the span (``wall_start_s`` / ``wall_dur_s``);
* **modeled** — seconds on the modeled machine's timeline
  (``modeled_start_s`` / ``modeled_dur_s``), filled in by the service
  once the cost model has priced the profile.

The :class:`Tracer` hands out spans through the ``start_span`` context
manager and keeps parent/child links via an internal stack, so the
service → engine → kernel nesting falls out of ordinary ``with``
blocks — no plumbing of span objects through call signatures.  Layers
reach the active tracer through the ambient
:func:`repro.obs.telemetry.current` telemetry, which returns a
disabled no-op tracer when nothing activated one.

Finished trees live in a ring of the newest :data:`TRACES_MAXLEN`
roots, so a serving process keeps a flat footprint however long it
runs; ``Tracer.dropped_roots`` counts the trees the ring evicted.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NULL_SPAN"]

#: ring-buffer bound on a tracer's root spans (one per request or
#: batch); evicted trees are counted in ``Tracer.dropped_roots``.
TRACES_MAXLEN = 1_000


@dataclass
class Span:
    """One timed node of a trace tree."""

    name: str
    span_id: int = 0
    attributes: dict = field(default_factory=dict)
    wall_start_s: float = 0.0
    wall_dur_s: float = 0.0
    modeled_start_s: float | None = None
    modeled_dur_s: float | None = None
    children: list["Span"] = field(default_factory=list)

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attrs) -> None:
        self.attributes.update(attrs)

    def set_modeled(self, start_s: float, dur_s: float) -> None:
        """Place the span on the modeled machine's timeline."""
        self.modeled_start_s = float(start_s)
        self.modeled_dur_s = float(dur_s)

    # -- tree helpers -------------------------------------------------------------

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly recursive representation."""
        payload = {
            "name": self.name,
            "span_id": int(self.span_id),
            "attributes": dict(self.attributes),
            "wall_start_s": float(self.wall_start_s),
            "wall_dur_s": float(self.wall_dur_s),
            "children": [c.to_dict() for c in self.children],
        }
        if self.modeled_start_s is not None:
            payload["modeled_start_s"] = float(self.modeled_start_s)
            payload["modeled_dur_s"] = float(self.modeled_dur_s)
        return payload


class _NullSpan(Span):
    """Inert span returned by a disabled tracer; mutations vanish."""

    def set_attribute(self, key: str, value) -> None:  # noqa: ARG002
        pass

    def set_attributes(self, **attrs) -> None:
        pass

    def set_modeled(self, start_s: float, dur_s: float) -> None:
        pass


#: shared inert span — what ``start_span`` yields when tracing is off.
NULL_SPAN = _NullSpan(name="null")


class Tracer:
    """Creates and nests spans; root spans land in ``roots``.

    ``roots`` is a ring of the newest :data:`TRACES_MAXLEN` trees: each
    new root past the bound evicts the oldest and increments
    ``dropped_roots``, the way :class:`~repro.obs.events.EventLog`
    counts ``dropped_events``.

    Single-threaded by design (the simulator is single-threaded): the
    active-span stack is plain instance state.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: deque[Span] = deque(maxlen=TRACES_MAXLEN)
        #: oldest roots overwritten by the ring bound.
        self.dropped_roots = 0
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    def _add_root(self, span: Span) -> None:
        if len(self.roots) == self.roots.maxlen:
            self.dropped_roots += 1
        self.roots.append(span)

    @contextmanager
    def start_span(self, name: str, **attributes):
        """Open a span as a child of the innermost active span."""
        if not self.enabled:
            yield NULL_SPAN
            return
        # ``**attributes`` is already this call's own dict: no copy.
        span = Span(name=name, span_id=next(self._ids),
                    attributes=attributes,
                    wall_start_s=time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._add_root(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.wall_dur_s = time.perf_counter() - span.wall_start_s

    def record(self, name: str, wall_start_s: float, wall_dur_s: float,
               **attributes) -> Span:
        """Attach an already-timed span (e.g. one kernel invocation)
        under the current span without making it the active parent."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name=name, span_id=next(self._ids),
                    attributes=attributes,
                    wall_start_s=wall_start_s, wall_dur_s=wall_dur_s)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._add_root(span)
        return span

    def clear(self) -> None:
        """Drop the held roots (the active stack and ``dropped_roots``
        are left alone)."""
        self.roots.clear()
