"""Typed request/response surface of the batched query service.

A client describes one batch of query segments as a
:class:`SearchRequest` and receives a :class:`SearchResponse` holding the
:class:`~repro.core.search.SearchOutcome` (results + profile + modeled
cost) and the service-side :class:`~repro.gpu.profiler.RequestMetrics`
(queue wait, cache hit/miss, degradation).  Both types round-trip through
JSON via ``to_dict``/``from_dict`` so batches can be submitted from files
(see the ``batch`` CLI subcommand) and responses archived next to the
experiment artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.search import SearchOutcome
from ..core.types import SegmentArray
from ..gpu.profiler import RequestMetrics

__all__ = ["RESPONSE_STATUSES", "SearchRequest", "SearchResponse"]


@dataclass
class SearchRequest:
    """One batch of query segments to search against the service's
    database.

    Parameters
    ----------
    queries:
        The query segments ``Q`` (searched as one batch — the paper's
        unit of GPU work).
    d:
        Distance threshold.
    method:
        A :func:`repro.engines.available` name, or ``"auto"`` (default)
        to let the
        service pick via the cost-based planner.
    params:
        Engine tuning knobs.  With an explicit ``method`` they are
        validated against that engine's typed config; with ``"auto"``
        they act as hints — keys the chosen engine does not understand
        are ignored, but the planner's own knobs (``num_bins``,
        ``num_subbins``, ``cells_per_dim``, ``segments_per_mbb``) must
        be positive integers or the request is refused with
        :class:`~repro.engines.config.ConfigError`.
    exclude_same_trajectory:
        Self-join mode: drop results pairing a query with its own
        trajectory.
    deadline_s:
        Wall-clock budget for serving this request; the service
        propagates it into engine retry loops and the failover ladder,
        and rejects with a typed ``deadline_exceeded`` response when it
        runs out.  ``None`` (default) = no per-request deadline.
    request_id:
        Client-chosen correlation id echoed in the response.

    A request always searches the whole database of the service it is
    submitted to.  Partitioning is a deployment decision: front the
    database with a :class:`repro.sharding.ShardedService`, which takes
    the same requests.
    """

    queries: SegmentArray
    d: float
    method: str = "auto"
    params: dict = field(default_factory=dict)
    exclude_same_trajectory: bool = False
    deadline_s: float | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if len(self.queries) == 0:
            raise ValueError("request needs a non-empty query set")
        if not (self.d >= 0.0):
            raise ValueError(f"distance threshold must be >= 0, "
                             f"got {self.d!r}")
        if self.deadline_s is not None and not (self.deadline_s > 0):
            raise ValueError("deadline_s must be positive (or None)")

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "queries": self.queries.to_dict(),
            "d": float(self.d),
            "method": self.method,
            "params": dict(self.params),
            "exclude_same_trajectory": bool(self.exclude_same_trajectory),
            "deadline_s": self.deadline_s,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchRequest":
        """Inverse of :meth:`to_dict` (missing optional keys take their
        defaults, so hand-written request files stay short).

        A ``shards`` key other than ``1`` — which older ``to_dict``
        output carries — is refused: per-request partitioning is gone.
        """
        if payload.get("shards", 1) != 1:
            raise ValueError(
                f"per-request 'shards' ({payload['shards']!r}) is not "
                f"supported; partition the database with "
                f"repro.sharding.ShardedService instead")
        return cls(
            queries=SegmentArray.from_dict(payload["queries"]),
            d=float(payload["d"]),
            method=payload.get("method", "auto"),
            params=dict(payload.get("params", {})),
            exclude_same_trajectory=bool(
                payload.get("exclude_same_trajectory", False)),
            deadline_s=payload.get("deadline_s"),
            request_id=payload.get("request_id", ""),
        )


#: response statuses: ``ok`` carries an outcome (possibly via a
#: degraded engine); ``partial`` carries an outcome covering only the
#: shards that survived (``missing_shards`` names the holes); the
#: others are typed rejections with no outcome.
RESPONSE_STATUSES = ("ok", "overloaded", "deadline_exceeded", "partial")


@dataclass
class SearchResponse:
    """What the service returns for one :class:`SearchRequest`.

    ``status == "ok"`` responses carry a full
    :class:`~repro.core.search.SearchOutcome` (check
    ``metrics.degraded`` for whether a fallback engine produced it).
    ``status == "partial"`` responses come from the sharded router when
    every replica of one or more shards is down: the outcome is exact
    over the surviving shards and ``missing_shards`` names the shard
    indices whose rows are absent from it.  Typed rejections —
    ``"overloaded"`` when every engine's circuit breaker is open,
    ``"deadline_exceeded"`` from an exhausted request budget — carry
    ``outcome=None`` plus a human-readable ``reason``, so a client can
    tell "no answer, retry later" from "empty answer".
    """

    request_id: str
    outcome: SearchOutcome | None
    metrics: RequestMetrics
    status: str = "ok"
    reason: str = ""
    #: shard indices missing from a ``partial`` outcome (empty otherwise).
    missing_shards: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise ValueError(f"unknown status {self.status!r}; expected "
                             f"one of {RESPONSE_STATUSES}")
        carries_outcome = self.status in ("ok", "partial")
        if (self.outcome is None) == carries_outcome:
            raise ValueError("ok/partial responses need an outcome; "
                             "rejected responses must not carry one")
        self.missing_shards = tuple(int(s) for s in self.missing_shards)
        if bool(self.missing_shards) != (self.status == "partial"):
            raise ValueError("missing_shards is set iff the status is "
                             "'partial'")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def partial(self) -> bool:
        """True when the outcome covers only the surviving shards."""
        return self.status == "partial"

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "request_id": self.request_id,
            "status": self.status,
            "reason": self.reason,
            "outcome": (self.outcome.to_dict()
                        if self.outcome is not None else None),
            "metrics": self.metrics.to_dict(),
            "missing_shards": list(self.missing_shards),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchResponse":
        """Inverse of :meth:`to_dict` (``status``/``reason`` default to
        an ok response so pre-resilience payloads still load)."""
        outcome = payload.get("outcome")
        return cls(
            request_id=payload["request_id"],
            outcome=(SearchOutcome.from_dict(outcome)
                     if outcome is not None else None),
            metrics=RequestMetrics.from_dict(payload["metrics"]),
            status=payload.get("status", "ok"),
            reason=payload.get("reason", ""),
            missing_shards=tuple(payload.get("missing_shards", ())),
        )
