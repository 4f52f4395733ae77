"""Multi-node search: partition the database across simulated
GPU-equipped nodes (the deployment the paper's §III motivates) — a
``ShardedService`` with one shard per node and one replica per shard —
and compare partitioning strategies.

Run:  python examples/cluster_search.py
"""

import numpy as np

from repro.data import random_dense_dataset, queries_from_database
from repro.service import SearchRequest
from repro.sharding import PARTITION_STRATEGIES, ShardedService


def main():
    db = random_dense_dataset(scale=0.01)
    queries = queries_from_database(db, 6, rng=np.random.default_rng(2))
    request = SearchRequest(queries=queries, d=0.05, method="gpu_temporal",
                            params={"num_bins": 200})
    print(f"|D| = {len(db)}, |Q| = {len(queries)}, d = {request.d}\n")

    def serve(nodes, strategy="round_robin"):
        with ShardedService(db, num_shards=nodes, replicas_per_shard=1,
                            strategy=strategy) as svc:
            return svc.submit(request), svc.plan.describe()

    ref, _ = serve(1)
    t1 = ref.outcome.modeled.total
    print(f"single node: {len(ref.outcome.results)} results, "
          f"modeled {t1:.6f} s\n")

    print(f"{'strategy':>12s} {'nodes':>6s} {'modeled':>12s} "
          f"{'speedup':>8s} {'imbalance':>10s} {'exact':>6s}")
    for strategy in PARTITION_STRATEGIES:
        for nodes in (2, 4, 8):
            resp, _ = serve(nodes, strategy)
            # Per-node modeled seconds: one lane span per shard leg.
            legs = np.array([s["dur_s"] for s in resp.metrics.lane_spans])
            t = resp.outcome.modeled.total
            ok = resp.outcome.results.equivalent_to(ref.outcome.results)
            print(f"{strategy:>12s} {nodes:6d} {t:10.6f} s "
                  f"{t1 / t:7.2f}x {legs.max() / legs.mean():9.2f} "
                  f"{'yes' if ok else 'NO'}")

    _, layout = serve(4)
    sizes = layout["shard_segments"]
    print(f"\nround-robin shard sizes: {sizes} "
          f"(balance = {max(sizes) / (sum(sizes) / len(sizes)):.3f})")
    print("temporal partitioning gives great per-node selectivity but "
          "routes each query to few nodes; round_robin balances best.")


if __name__ == "__main__":
    main()
