"""Batched query service: index caching, adaptive engine selection, and
a typed request/response API — hardened against device faults.

The paper's engines answer one query set against one pre-built index.  A
*service* answers a stream of batches, and the serving concerns dominate
once the index exists:

* amortizing the offline index build across batches (the engine cache),
* choosing the right engine per workload (planner-driven ``"auto"``),
* mutating the database without rebuilds: appends and deletes land in
  a versioned delta (:mod:`repro.ingest`), each batch reads the
  snapshot taken at its arrival,
  and compaction folds the delta into a fresh base off the hot path,
* and surviving failures: a deterministic failover ladder (other GPU
  engines → ``cpu_rtree`` → ``cpu_scan``), per-engine circuit breakers,
  per-lane quarantine with probational re-admission, per-request
  deadlines, and sampled cross-checking of failover results against
  ground truth (see :mod:`repro.faults`).  Overload is refused at the
  front door (:mod:`repro.gateway`), not here; the gateway reads the
  service's :meth:`~QueryService.pressure`.

Modules: ``scheduler`` (:class:`QueryService`), ``cache`` (built
engines), ``pool`` (device lanes and their health), ``resilience``
(breakers, failover bookkeeping), ``requests`` (the typed API).

Entry point::

    from repro.service import QueryService, SearchRequest

    svc = QueryService(db, num_devices=2)
    resp = svc.submit(SearchRequest(queries=q, d=5.0, method="auto"))
    resp.ok                    # False for typed rejections
    resp.outcome.results       # the ResultSet (ok responses)
    resp.metrics.cache_hit     # served from a cached index?
    resp.metrics.failovers     # ladder hops before an engine answered
"""

from ..ingest import (CompactionPolicy, CompactionResult, IngestError,
                      IngestReceipt, Snapshot, VersionedDatabase)
from ..standing import Subscription
from .cache import CacheEntry, CacheStats, EngineCache, canonical_params
from .requests import RESPONSE_STATUSES, SearchRequest, SearchResponse
from .pool import DeviceLane, DevicePool
from .resilience import (CircuitBreaker, LaneHealth, NoUsableLaneError)
from .scheduler import QueryService

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CircuitBreaker",
    "CompactionPolicy",
    "CompactionResult",
    "DeviceLane",
    "DevicePool",
    "EngineCache",
    "IngestError",
    "IngestReceipt",
    "LaneHealth",
    "NoUsableLaneError",
    "QueryService",
    "RESPONSE_STATUSES",
    "SearchRequest",
    "SearchResponse",
    "Snapshot",
    "Subscription",
    "VersionedDatabase",
    "canonical_params",
]
