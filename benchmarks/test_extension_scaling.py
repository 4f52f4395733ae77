"""EXT — beyond-paper extension benchmark: multi-node cluster scaling
(§III's deployment scenario), which the paper motivates but does not
evaluate."""

import numpy as np

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

