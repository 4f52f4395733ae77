"""Tenant identity, token-bucket rate limits, and daily quotas.

The front door authenticates every call by API key and charges it
against two per-tenant budgets *before* any queue or backend work
happens:

* a **token bucket** (``rate`` tokens/second refill, ``burst``
  capacity) smoothing sustained request rates while allowing short
  bursts — an empty bucket is a typed ``rate_limited`` rejection whose
  ``retry_after_s`` says exactly when the next token lands;
* a **daily quota** (requests per rolling UTC-style window of
  ``QUOTA_WINDOW_S`` seconds on the gateway clock) — an exhausted
  window is a typed ``quota_exceeded`` rejection whose hint is the
  time until the window resets.

Both run on an injectable ``clock`` (seconds, monotonic), so the
overload campaign drives them on a simulated clock and the same seed
reproduces the same admission decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["QUOTA_WINDOW_S", "TenantConfig", "TenantRegistry",
           "TokenBucket"]

#: seconds per quota window ("daily" on the gateway clock).
QUOTA_WINDOW_S = 86_400.0


class TokenBucket:
    """Classic token bucket on an injectable clock.

    ``try_acquire`` either spends one token and returns ``None``, or
    leaves the bucket untouched and returns the seconds until a full
    token will be available — the ``Retry-After`` hint.
    """

    def __init__(self, rate: float, burst: float, *,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive (tokens/second)")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    @property
    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> float | None:
        """Spend ``n`` tokens now; ``None`` on success, else seconds
        until ``n`` tokens will have refilled."""
        now = self._clock()
        self._refill(now)
        if self._tokens >= n:
            self._tokens -= n
            return None
        return (n - self._tokens) / self.rate


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's identity and budgets.

    ``daily_quota`` is requests per :data:`QUOTA_WINDOW_S` window
    (``None`` = unmetered).  ``priority`` is the tenant's *default*
    priority class; a call may still name one explicitly.
    """

    tenant_id: str
    api_key: str
    rate: float = 10.0
    burst: float = 20.0
    daily_quota: int | None = None
    priority: str = "interactive"

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.api_key:
            raise ValueError("api_key must be non-empty")
        if self.daily_quota is not None and self.daily_quota < 1:
            raise ValueError("daily_quota must be >= 1 (or None)")


class _TenantState:
    """Mutable per-tenant admission state."""

    def __init__(self, config: TenantConfig, clock) -> None:
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst,
                                  clock=clock)
        self.window_start = clock()
        self.window_used = 0
        self.admitted = 0
        self.rejected = 0


class TenantRegistry:
    """API-key lookup plus per-tenant budget accounting.

    :meth:`admit` is the whole per-tenant admission pipeline:
    authenticate, then quota, then rate — returning either the
    matched :class:`TenantConfig` or a typed refusal with its
    retry hint.
    """

    def __init__(self, tenants, *, clock=time.monotonic) -> None:
        self._clock = clock
        self._by_key: dict[str, _TenantState] = {}
        for cfg in tenants:
            if cfg.api_key in self._by_key:
                raise ValueError(f"duplicate api_key for tenant "
                                 f"{cfg.tenant_id!r}")
            self._by_key[cfg.api_key] = _TenantState(cfg, clock)

    def __len__(self) -> int:
        return len(self._by_key)

    def admit(self, api_key: str
              ) -> tuple[TenantConfig | None, str, float | None]:
        """Charge one request to the tenant behind ``api_key``.

        Returns ``(tenant, verdict, retry_after_s)`` where verdict is
        ``"ok"``, ``"unauthenticated"``, ``"quota_exceeded"``, or
        ``"rate_limited"`` — quota is checked before rate so a capped
        tenant's rejection names the budget that actually binds."""
        state = self._by_key.get(api_key)
        if state is None:
            return None, "unauthenticated", None
        now = self._clock()
        quota = state.config.daily_quota
        if quota is not None:
            if now - state.window_start >= QUOTA_WINDOW_S:
                state.window_start = now
                state.window_used = 0
            if state.window_used >= quota:
                state.rejected += 1
                resets_in = state.window_start + QUOTA_WINDOW_S - now
                return (state.config, "quota_exceeded",
                        max(resets_in, 0.0))
        wait = state.bucket.try_acquire()
        if wait is not None:
            state.rejected += 1
            return state.config, "rate_limited", wait
        if quota is not None:
            state.window_used += 1
        state.admitted += 1
        return state.config, "ok", None

    def stats(self) -> dict:
        """Per-tenant admission counters (JSON-friendly)."""
        return {
            state.config.tenant_id: {
                "admitted": state.admitted,
                "rejected": state.rejected,
                "window_used": state.window_used,
                "tokens": round(state.bucket.tokens, 6),
            }
            for state in self._by_key.values()
        }
