"""The batched query service: index caching, auto engine selection,
graceful degradation.

A stream of query batches against one database is the workload a real
deployment of the paper's system would serve.  This example runs one:

* the first batch pays the index build (offline phase, §V-B); repeated
  batches hit the engine cache and pay only the search,
* ``method="auto"`` lets the cost-based planner pick the engine per
  batch,
* a device that runs out of memory (an injected ``oom`` fault, the
  mechanism the chaos campaign uses) shows degradation down the
  failover ladder to the CPU R-tree.

Partitioning the database across shards is a deployment decision, not a
request option: see ``examples/sharded_failover.py``.

Run:  python examples/batch_service.py
"""

import numpy as np

from repro.data import queries_from_database, random_dense_dataset
from repro.faults import FaultInjector, FaultSpec
from repro.service import QueryService, SearchRequest


def main():
    db = random_dense_dataset(scale=0.01)
    rng = np.random.default_rng(7)
    print(f"|D| = {len(db)} segments, "
          f"{db.num_trajectories} trajectories\n")

    # -- warm-cache serving --------------------------------------------------
    service = QueryService(db, num_devices=2)
    print(f"{'batch':>8s} {'engine':>20s} {'results':>8s} "
          f"{'modeled':>11s} {'build(s)':>9s} {'cache':>6s}")
    for i in range(6):
        queries = queries_from_database(db, 4, rng=rng)
        resp = service.submit(SearchRequest(
            queries=queries, d=0.05, method="auto",
            request_id=f"batch-{i}"))
        m = resp.metrics
        print(f"{resp.request_id:>8s} {m.engine:>20s} "
              f"{len(resp.outcome.results):8d} "
              f"{m.modeled_seconds:10.6f}s {m.engine_build_s:8.3f}s "
              f"{'hit' if m.cache_hit else 'miss':>6s}")
    stats = service.stats()
    print(f"\ncache: {stats['cache']['hits']} hits, "
          f"{stats['cache']['misses']} misses; "
          f"{stats['cached_engines']} engine(s) resident "
          f"({stats['cache_resident_bytes'] / (1 << 20):.1f} MiB)\n")

    # -- degradation: every device allocation fails --------------------------
    queries = queries_from_database(db, 4, rng=rng)
    whole = service.submit(SearchRequest(
        queries=queries, d=0.05, method="gpu_temporal",
        params={"num_bins": 200}, request_id="whole"))
    cramped = QueryService(db, num_devices=1,
                           faults=FaultInjector([FaultSpec("oom")]))
    resp = cramped.submit(SearchRequest(
        queries=queries, d=0.05, method="gpu_temporal",
        params={"num_bins": 200}, request_id="cramped"))
    m = resp.metrics
    print(f"device OOM: degraded={m.degraded}, served by "
          f"{m.engine} ({len(resp.outcome.results)} results)")
    print(f"  reason: {m.degradation_reason}")
    agreed = resp.outcome.results.equivalent_to(whole.outcome.results)
    print(f"  fallback results match the GPU search: {agreed}")


if __name__ == "__main__":
    main()
