"""What a serving process keeps per request once its rings are full.

A long-running server must reach a steady-state footprint: every record
it keeps of past requests is a ring (the tracer's root spans, the event
log, the slow-query log), so after enough requests each new one evicts
an old one and the read path retains nothing per request.  This
benchmark shrinks the tracer and event-log bounds to ``RING`` so the
rings fill within the warm-up, serves ``WARM`` requests, then measures
``tracemalloc``'s traced bytes across ``MEASURED`` more and gates the
growth, whatever the box:

* a ``QueryService`` on S1-random (small scale), once with
  ``method="auto"`` and once per explicit method, grows by at most
  ``MAX_GROWTH_BYTES``;
* so does a 3 x 2 ``ShardedService`` (the router's hub plus one per
  replica) serving the four explicit methods in rotation.

A tracer that keeps every span tree grows by ~2.1-2.8 KB per request on
one service and ~10.6 KB on the sharded one (~310-1,550 KB over the
measured requests).  The growth is printed per backend.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from .conftest import emit

from repro.core.types import SegmentArray
from repro.data import random_dataset
from repro.data.random_walk import make_random_walks
from repro.obs import telemetry as telemetry_module
from repro.obs import tracing
from repro.service import QueryService, SearchRequest
from repro.sharding import ShardedService

SCALE = 0.005
RING = 16
WARM = 150
MEASURED = 150
MAX_GROWTH_BYTES = 128 * 1024
D_VALUES = (5.0, 10.0, 25.0)
EXPLICIT_METHODS = ("gpu_temporal", "gpu_spatiotemporal", "gpu_spatial",
                    "cpu_rtree", "cpu_scan")
SHARDED_METHODS = EXPLICIT_METHODS[:4]


@pytest.fixture(autouse=True)
def small_rings(monkeypatch):
    """Both bounds are read when a hub is built: patch them first.
    ``raising=False`` so that a tracer with no bound at all fails on
    its growth, not on the patch."""
    monkeypatch.setattr(tracing, "TRACES_MAXLEN", RING, raising=False)
    monkeypatch.setattr(telemetry_module, "EVENTS_MAXLEN", RING)


@pytest.fixture(scope="module")
def report(workload):
    """One row per backend, written once every backend has run."""
    rows: list[str] = []
    yield rows
    database, _queries = workload
    emit("footprint_cost",
         f"traced bytes kept across {MEASURED} requests after {WARM} "
         f"warm-up requests, rings bounded at {RING}; S1-random at "
         f"{SCALE:.1%} ({len(database)} rows), 8-segment walks, "
         f"d in {D_VALUES}\n"
         f"{'backend':<40} {'hubs':>4} {'growth KB':>10} {'B/request':>10}\n"
         + "\n".join(rows)
         + f"\nbound: {MAX_GROWTH_BYTES // 1024} KB per backend")


@pytest.fixture(scope="module")
def workload():
    database = random_dataset(scale=SCALE, rng=np.random.default_rng(0))
    n = max(2, int(round(2500 * SCALE)))
    side = 1000.0 * (n / 2500.0) ** (1.0 / 3.0)
    walks = make_random_walks(
        num_trajectories=12, num_timesteps=9, box_side=side,
        step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=np.random.default_rng(1), first_traj_id=1_000_000)
    return database, [SegmentArray.from_trajectories([w]) for w in walks]


def _requests(queries, methods, first: int, count: int):
    return [SearchRequest(queries=queries[i % len(queries)],
                          d=D_VALUES[i % len(D_VALUES)],
                          method=methods[i % len(methods)],
                          request_id=f"req-{i}")
            for i in range(first, first + count)]


def _growth_bytes(service, queries, methods) -> int:
    """Traced bytes still held after ``MEASURED`` requests that were not
    held before them, with ``WARM`` requests served first.  Tracing
    starts before the warm-up, so what the rings hold at the first
    snapshot is counted there too."""
    tracemalloc.start()
    try:
        for request in _requests(queries, methods, 0, WARM):
            assert service.submit(request).ok
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for request in _requests(queries, methods, WARM, MEASURED):
            assert service.submit(request).ok
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


def _hubs(service):
    if isinstance(service, ShardedService):
        return [service.telemetry] + [replica.service.telemetry
                                      for shard in service.shards
                                      for replica in shard.replicas]
    return [service.telemetry]


def _check(report, label: str, service, queries, methods) -> None:
    growth = _growth_bytes(service, queries, methods)
    hubs = _hubs(service)
    report.append(f"{label:<40} {len(hubs):4d} {growth / 1024:10.1f} "
                 f"{growth / MEASURED:10.0f}")
    assert growth <= MAX_GROWTH_BYTES, (
        f"{label}: {growth / 1024:.1f} KB retained over {MEASURED} "
        f"requests ({growth / MEASURED:.0f} B per request) once the "
        f"rings were full; bound {MAX_GROWTH_BYTES // 1024} KB")
    for hub in hubs:
        assert len(hub.tracer.roots) <= RING
        assert len(hub.events) <= RING
    assert hubs[0].tracer.dropped_roots > 0


@pytest.mark.parametrize("method", ("auto",) + EXPLICIT_METHODS)
def test_single_service_footprint(workload, report, method):
    database, queries = workload
    service = QueryService(database)
    _check(report, f"QueryService method={method}", service, queries,
           (method,))
    service.shutdown()


def test_sharded_service_footprint(workload, report):
    database, queries = workload
    service = ShardedService(database, num_shards=3, replicas_per_shard=2)
    _check(report, "ShardedService 3x2, four methods", service, queries,
           SHARDED_METHODS)
    service.shutdown()
