"""The admission-controlled front door: tenants, rate limits,
priority queues, brownout and idempotent retries (see
``docs/ARCHITECTURE.md``, *Front door & admission control*; the seeded
overload campaign is :mod:`repro.campaigns.overload`)."""

from .admission import (GATEWAY_STATUSES, PRIORITIES,
                        RETRYABLE_STATUSES, GatewayResponse)
from .app import Gateway
from .brownout import BROWNOUT_LEVELS, BrownoutLadder
from .http import GatewayHTTPServer, STATUS_CODES
from .idempotency import RetryOutcome, retry_with_backoff
from .tenants import (QUOTA_WINDOW_S, TenantConfig, TenantRegistry,
                      TokenBucket)

__all__ = [
    "BROWNOUT_LEVELS", "BrownoutLadder", "GATEWAY_STATUSES",
    "Gateway", "GatewayHTTPServer", "GatewayResponse", "PRIORITIES",
    "QUOTA_WINDOW_S", "RETRYABLE_STATUSES", "RetryOutcome",
    "STATUS_CODES", "TenantConfig", "TenantRegistry", "TokenBucket",
    "retry_with_backoff",
]
