"""The telemetry hub: one object bundling metrics, tracing, and events.

:class:`Telemetry` is what the service owns and what instrumented code
reaches for.  Propagation is ambient, OpenTelemetry-style: the service
activates its hub around request handling
(``with telemetry.activate(): ...``) and any code underneath — engine
``search``, index builds, the kernel launcher — grabs it via
:func:`current` without threading objects through call signatures.
When nothing is active, :func:`current` returns the shared
:data:`DISABLED` hub whose tracer, registry, and logs are all no-ops,
so instrumented code costs almost nothing outside the service and
standalone engine use stays telemetry-free.

``Telemetry(enabled=False)`` gives the same no-op behavior on an
explicitly constructed hub — that is the switch the overhead benchmark
flips.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .events import EventLog, SlowQueryLog
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["Telemetry", "current", "DISABLED"]

#: ring-buffer bound on the structured event log; overwritten history
#: is counted in ``events.dropped_events``.
EVENTS_MAXLEN = 10_000

#: ambient hub; None means "nothing activated" -> DISABLED.
_ACTIVE: ContextVar["Telemetry | None"] = ContextVar(
    "repro_obs_telemetry", default=None)


class Telemetry:
    """Metrics registry + tracer + event log + slow-query log.

    Parameters
    ----------
    enabled:
        Master switch.  False turns every component into a no-op with
        the identical API (nothing records, nothing allocates trees).
    slow_query_threshold_s:
        Modeled-latency threshold for the slow-query log.

    Every record is bounded: the event log keeps the last
    ``EVENTS_MAXLEN`` events (``events.dropped_events`` counts the
    rest), the tracer the newest
    :data:`~repro.obs.tracing.TRACES_MAXLEN` span trees
    (``tracer.dropped_roots``), the slow-query log its newest 1,000
    slow requests.
    """

    def __init__(self, *, enabled: bool = True,
                 slow_query_threshold_s: float = 1.0) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        self.events = EventLog(maxlen=EVENTS_MAXLEN, enabled=enabled)
        self.slow_log = SlowQueryLog(slow_query_threshold_s,
                                     enabled=enabled)

    @contextmanager
    def activate(self):
        """Make this hub the ambient telemetry for the enclosed block."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def span(self, name: str, **attributes):
        """Shorthand for ``self.tracer.start_span(...)``."""
        return self.tracer.start_span(name, **attributes)


#: shared no-op hub returned by :func:`current` outside any activation.
DISABLED = Telemetry(enabled=False)


def current() -> Telemetry:
    """The ambient :class:`Telemetry` (or the no-op :data:`DISABLED`)."""
    active = _ACTIVE.get()
    return active if active is not None else DISABLED
