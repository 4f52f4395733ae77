"""Typed admission vocabulary of the gateway front door.

The gateway widens the service's response statuses with the refusal
kinds only a front door can produce (bad credentials, budget
exhaustion, write brownout).  Every refusal is *typed* — a
:class:`GatewayResponse` always says why, and every retryable refusal
carries ``retry_after_s``, the client's backoff hint (the HTTP layer
maps it to a ``Retry-After`` header).  Nothing is ever silently
dropped: a request that enters :meth:`repro.gateway.Gateway.search`
leaves it as exactly one response.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..service import SearchResponse

__all__ = ["GATEWAY_STATUSES", "PRIORITIES", "RETRYABLE_STATUSES",
           "GatewayResponse"]

#: priority classes, best first; admission drains queues in this order
#: and brownout sheds from the back.
PRIORITIES = ("interactive", "batch")

#: every status a gateway response can carry.  ``ok``/``partial``
#: wrap a backend answer; the rest are typed refusals with no answer
#: (``internal``: the backend raised — not the request's fault, and
#: not something a retry of the same request is known to fix).
GATEWAY_STATUSES = ("ok", "partial", "unauthenticated", "rate_limited",
                    "quota_exceeded", "overloaded", "deadline_exceeded",
                    "writes_disabled", "invalid", "internal")

#: refusals a client should retry (after ``retry_after_s``); the
#: others need a different request, not a later one.
RETRYABLE_STATUSES = ("rate_limited", "quota_exceeded", "overloaded",
                      "writes_disabled")


@dataclass
class GatewayResponse:
    """One front-door answer: a wrapped backend response or a typed
    refusal.

    ``response`` is the backend :class:`~repro.service.SearchResponse`
    for answered searches; ``receipt`` is the mutation receipt dict for
    answered ingests/deletes.  Refusals carry neither — just ``status``,
    ``reason``, and (when retryable) ``retry_after_s``.
    """

    kind: str
    request_id: str
    tenant: str
    priority: str
    status: str
    reason: str = ""
    retry_after_s: float | None = None
    response: SearchResponse | None = None
    receipt: dict | None = None

    def __post_init__(self) -> None:
        if self.status not in GATEWAY_STATUSES:
            raise ValueError(f"unknown gateway status {self.status!r}; "
                             f"expected one of {GATEWAY_STATUSES}")
        if self.retryable and self.retry_after_s is None:
            raise ValueError(f"a {self.status!r} refusal must carry a "
                             f"retry_after_s hint")

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "partial")

    @property
    def rejected(self) -> bool:
        return not self.ok

    @property
    def retryable(self) -> bool:
        return self.status in RETRYABLE_STATUSES

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "kind": self.kind,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "reason": self.reason,
            "retry_after_s": self.retry_after_s,
            "response": (self.response.to_dict()
                         if self.response is not None else None),
            "receipt": self.receipt,
        }
