"""EXT — beyond-paper extension benchmarks.

Three studies of features the paper motivates but does not evaluate:

* multi-node cluster scaling (§III's deployment scenario);
* the hybrid CPU+GPU engine (§VI future work);
* the kNN search built on the same indexes (§VI future work).
"""

import numpy as np

from repro.engines import HybridEngine
from repro.service import SearchRequest
from repro.sharding import ShardedService

from .conftest import emit


def test_cluster_scaling(benchmark, s3_runner):
    """Response time vs node count on the dense dataset: one shard per
    node, one replica per shard."""
    request = SearchRequest(queries=s3_runner.queries, d=0.05,
                            method="gpu_temporal",
                            params={"num_bins": 1000})

    def run():
        out = {}
        for nodes in (1, 2, 4, 8):
            with ShardedService(s3_runner.database, num_shards=nodes,
                                replicas_per_shard=1) as svc:
                resp = svc.submit(request)
            assert resp.ok, resp.reason
            legs = np.array([s["dur_s"]
                             for s in resp.metrics.lane_spans])
            out[nodes] = (resp.outcome.modeled.total,
                          float(legs.max() / legs.mean()),
                          len(resp.outcome.results))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["EXT — cluster scaling (Random-dense, d=0.05, GPUTemporal)",
             "=" * 58]
    t1 = out[1][0]
    for nodes, (t, imb, items) in sorted(out.items()):
        lines.append(f"{nodes} node(s): {t:.6f} s  speedup "
                     f"{t1 / t:5.2f}x  imbalance {imb:.2f}  "
                     f"{items} results")
    emit("extension_cluster_scaling", "\n".join(lines))

    sizes = [out[n][2] for n in (1, 2, 4, 8)]
    assert len(set(sizes)) == 1          # identical result sets
    assert out[8][0] < out[1][0]         # scaling actually helps
    assert out[8][0] > out[1][0] / 16    # but not super-linearly


def test_hybrid_beats_both_sides_near_crossover(benchmark, s2_runner):
    """At the CPU/GPU crossover, splitting the queries wins."""
    db = s2_runner.database
    queries = s2_runner.queries
    d = 1.5
    gpu = s2_runner.engine("gpu_temporal")
    cpu = s2_runner.engine("cpu_rtree")

    def run():
        f = HybridEngine.balanced_split(gpu, cpu, queries, d)
        out = {}
        for frac in (0.0, f, 1.0):
            hybrid = HybridEngine(gpu, cpu, gpu_fraction=frac)
            _, prof = hybrid.search(queries, d)
            out[frac] = prof.modeled_time().total
        return f, out

    f, out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["EXT — hybrid CPU+GPU at the Merger crossover (d=1.5)",
             "=" * 53]
    for frac, t in sorted(out.items()):
        tag = " <- balanced" if frac == f else ""
        lines.append(f"gpu share {frac:4.2f}: {t:.6f} s{tag}")
    emit("extension_hybrid", "\n".join(lines))

    assert out[f] <= min(out[0.0], out[1.0]) * 1.05


def test_knn_extension(benchmark, s2_runner):
    """kNN via iterative deepening on the spatiotemporal index."""
    from repro.core.knn import TrajectoryKnn, knn_brute_force
    db = s2_runner.database
    queries = s2_runner.queries.take(
        np.arange(0, len(s2_runner.queries), 8))
    k = 5

    knn = TrajectoryKnn(db, method="gpu_temporal", num_bins=1000)

    def run():
        return knn.query(queries, k, exclude_same_trajectory=True)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    want = knn_brute_force(queries, db, k,
                           exclude_same_trajectory=True)
    np.testing.assert_allclose(res.distances, want.distances, atol=1e-9)
    full = int(np.count_nonzero(res.counts == k))
    emit("extension_knn",
         f"EXT — kNN (k={k}) on Merger via GPUTemporal deepening\n"
         f"{'=' * 52}\n"
         f"{len(queries)} query segments, {full} with full lists; "
         f"exact vs brute force: yes")
