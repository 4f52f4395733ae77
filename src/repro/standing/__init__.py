"""Standing queries: continuous distance-threshold subscriptions.

Clients register :class:`Subscription`\\ s against a live
:class:`~repro.service.QueryService`; every ingest epoch the
:class:`StandingQueryManager` re-evaluates only the subscriptions the
epoch's delta could have affected and streams typed ``match_added`` /
``match_removed`` events.  :class:`StandingStore` makes the whole thing
survive crashes; :mod:`repro.campaigns.standing` is the seeded
epoch-replay campaign that pins incremental answers byte-identical to
from-scratch evaluation.
"""

from .manager import EpochReport, StandingQueryManager
from .store import StandingStore, StandingStoreError
from .subscription import (CandidateEnvelope, Subscription,
                           matches_from_results, matches_from_rows,
                           matches_to_rows, results_from_matches)

__all__ = [
    "CandidateEnvelope", "EpochReport",
    "StandingQueryManager", "StandingStore", "StandingStoreError",
    "Subscription", "matches_from_results", "matches_from_rows",
    "matches_to_rows", "results_from_matches",
]
