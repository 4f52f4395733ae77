"""Standing queries: continuous distance-threshold subscriptions.

Clients register :class:`Subscription`\\ s against a live
:class:`~repro.service.QueryService`; the :class:`StandingQueryManager`
holds each one's answer as a :class:`~repro.core.result.ResultSet` and
changes it by every epoch's delta alone — an append evaluates only the
appended rows, a delete drops the held items it hides — streaming typed
``match_added`` / ``match_removed`` events.  :class:`StandingStore`
makes the whole thing survive crashes; :mod:`repro.campaigns.standing`
is the seeded epoch-replay campaign that pins incremental answers
byte-identical to from-scratch evaluation.
"""

from .manager import EpochReport, EventsExpiredError, StandingQueryManager
from .store import StandingStore, StandingStoreError
from .subscription import CandidateEnvelope, Subscription

__all__ = [
    "CandidateEnvelope", "EpochReport", "EventsExpiredError",
    "StandingQueryManager", "StandingStore", "StandingStoreError",
    "Subscription",
]
