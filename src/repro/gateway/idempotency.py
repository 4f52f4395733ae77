"""Client-side retry discipline for keyed mutations.

The server side of exactly-once lives in the idempotency dedup tables
(:class:`~repro.ingest.VersionedDatabase` for a single service, the
router for a sharded one) carried through the WAL and checkpoints.
This module is the *client* half: a retry loop with seeded jittered
exponential backoff that re-sends the **same idempotency key** on
every attempt — which is precisely what makes blind retries safe.
The overload campaign drives every mutation through it, including a
deliberate duplicate send per key, and asserts each key applied
exactly once (``deduplicated`` receipts on the extras).
"""

from __future__ import annotations

import numpy as np

from .admission import GatewayResponse

__all__ = ["RetryOutcome", "retry_with_backoff"]


class RetryOutcome:
    """What one keyed retry loop did: the final response plus the
    attempt/backoff trace."""

    def __init__(self, response: GatewayResponse, attempts: int,
                 backoffs: list[float]) -> None:
        self.response = response
        self.attempts = attempts
        self.backoffs = backoffs


def retry_with_backoff(send, *, max_attempts: int = 5,
                       base_backoff_s: float = 0.05,
                       rng: np.random.Generator | None = None,
                       sleep=None) -> RetryOutcome:
    """Drive one idempotent operation to completion through typed
    refusals.

    Parameters
    ----------
    send:
        Zero-argument callable performing one attempt (closing over
        the request *and its idempotency key*) and returning a
        :class:`GatewayResponse`.
    max_attempts:
        Attempt budget; the last response is returned even if still a
        refusal.
    base_backoff_s:
        Exponential base: attempt ``k`` backs off
        ``base * 2**k * U(0.5, 1.5)``, floored by the server's
        ``retry_after_s`` hint when one was given.
    rng:
        Seeded generator for the jitter (``None`` = fresh
        deterministic seed 0 — pass your own for campaign-grade
        reproducibility).
    sleep:
        ``sleep(seconds)`` callable (the campaign passes the simulated
        clock's ``advance``); ``None`` = don't actually wait, just
        record the computed backoffs.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    rng = rng or np.random.default_rng(0)
    backoffs: list[float] = []
    response = send()
    attempts = 1
    while attempts < max_attempts and response.rejected \
            and response.retryable:
        jitter = float(rng.uniform(0.5, 1.5))
        backoff = base_backoff_s * (2.0 ** (attempts - 1)) * jitter
        if response.retry_after_s is not None:
            backoff = max(backoff, float(response.retry_after_s))
        backoffs.append(backoff)
        if sleep is not None:
            sleep(backoff)
        response = send()
        attempts += 1
    return RetryOutcome(response, attempts, backoffs)
