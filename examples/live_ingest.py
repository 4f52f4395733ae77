"""Live ingestion: trajectories stream into a serving database.

A :class:`~repro.service.QueryService` warms a GPUTemporal index over a
base database, then trajectory batches arrive while queries keep
flowing.  The walkthrough narrates the LSM mechanics from
``docs/ARCHITECTURE.md`` (*Ingestion & snapshots*):

* each append lands in the **delta**; the warm base engine keeps
  cache-hitting (it indexes the base, which appends do not change)
  and the delta is unioned exactly at refinement,
* a delete **tombstones** a trajectory — filtered from answers at once,
  physically dropped at the next compaction,
* compaction — automatic once the delta outgrows the
  :class:`~repro.ingest.CompactionPolicy`, or on demand — folds the
  delta into a fresh base and prewarms the engines that were warm
  over the old one.

Every answer is checked exactly against a from-scratch ``cpu_scan``
over the snapshot's logical database.

Run:  python examples/live_ingest.py
"""

import numpy as np

from repro.core.types import SegmentArray, Trajectory
from repro.engines import CpuScanEngine
from repro.ingest import CompactionPolicy
from repro.service import QueryService, SearchRequest


def make_trajectories(num, steps, *, seed, id_offset=0):
    rng = np.random.default_rng(seed)
    trajs = []
    for k in range(num):
        start = rng.uniform(0.0, 20.0, size=3)
        pos = np.vstack([start,
                         start + np.cumsum(
                             rng.normal(0, 1.0, (steps - 1, 3)), axis=0)])
        times = rng.uniform(0.0, 4.0) + np.arange(steps, dtype=float)
        trajs.append(Trajectory(id_offset + k, times, pos))
    return trajs


def query(service, queries, request):
    snap = service.current_snapshot()
    resp = service.submit(request)
    m = resp.metrics
    note = "cache hit" if m.cache_hit else "cold build"
    print(f"  epoch {m.snapshot_epoch:2d}  delta {m.delta_segments:3d} "
          f"rows  -> {len(resp.outcome.results):4d} results  "
          f"({note}, overlay {m.delta_scan_s * 1e6:5.1f} us modeled)")
    truth, _ = CpuScanEngine(snap.logical()).search(
        request.queries, request.d)
    assert resp.outcome.results.equivalent_to(truth)
    return resp


def main():
    base = SegmentArray.from_trajectories(
        make_trajectories(40, 30, seed=1))
    queries = SegmentArray.from_trajectories(
        make_trajectories(3, 15, seed=9, id_offset=900))
    svc = QueryService(
        base,
        compaction=CompactionPolicy(max_delta_segments=500))
    req = SearchRequest(queries=queries, d=2.0, method="gpu_temporal",
                        params={"num_bins": 64})

    print("== cold start: build + cache the base index ==")
    query(svc, queries, req)

    print("\n== trajectories stream in; the warm index keeps serving ==")
    for i in range(4):
        receipt = svc.ingest(make_trajectories(
            3, 25, seed=50 + i, id_offset=1000 + 10 * i))
        print(f"  ingest #{i}: +{receipt.num_segments} segments "
              f"(epoch {receipt.epoch}, compaction due: "
              f"{receipt.compaction_due})")
        query(svc, queries, req)

    print("\n== a trajectory is recalled: tombstoned, not rebuilt ==")
    svc.delete_trajectory(1000)
    query(svc, queries, req)

    print("\n== compaction folds the delta into a fresh base ==")
    result = svc.compact()
    print(f"  compacted {result.merged_segments} delta rows, dropped "
          f"{result.dropped_segments} tombstoned; base "
          f"v{result.base_version}")
    query(svc, queries, req)

    ingest = svc.stats()["ingest"]
    cache = svc.stats()["cache"]
    print(f"\nlifetime: {ingest['appends']} appends, "
          f"{ingest['compactions']} compactions, cache "
          f"{cache['hits']} hits / {cache['misses']} misses")


if __name__ == "__main__":
    main()
