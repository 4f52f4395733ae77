"""Tests for database partitioning and the simulated GPU cluster (a
``ShardedService`` with one shard per node and one replica per shard)."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.types import concatenate
from repro.engines import GpuTemporalEngine
from repro.gpu.costmodel import GpuCostModel
from repro.service import SearchRequest
from repro.sharding import (PARTITION_STRATEGIES, ShardedService, ShardMap,
                            partition_indices)


def _shards(database, num_nodes, strategy="round_robin"):
    return [database.take(ix)
            for ix in partition_indices(database, num_nodes, strategy)]


class TestPartition:
    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_disjoint_and_covering(self, small_db, strategy):
        shards = _shards(small_db, 4, strategy)
        assert len(shards) == 4
        all_ids = np.concatenate([s.seg_ids for s in shards])
        assert all_ids.size == len(small_db)
        np.testing.assert_array_equal(np.sort(all_ids),
                                      np.sort(small_db.seg_ids))

    def test_round_robin_deals_whole_trajectories(self, small_db):
        shards = _shards(small_db, 3, "round_robin")
        seen: dict[int, int] = {}
        for n, shard in enumerate(shards):
            for t in np.unique(shard.traj_ids):
                assert t not in seen, "trajectory split across nodes"
                seen[int(t)] = n

    def test_temporal_slices_ordered(self, small_db):
        shards = _shards(small_db, 3, "temporal")
        maxima = [s.ts.max() for s in shards[:-1]]
        minima = [s.ts.min() for s in shards[1:]]
        for hi, lo in zip(maxima, minima):
            assert hi <= lo + 1e-9

    def test_spatial_slabs_ordered(self, small_db):
        shards = _shards(small_db, 3, "spatial")
        mins, maxs = small_db.spatial_bounds()
        axis = int(np.argmax(maxs - mins))
        centers = [0.5 * (s.starts[:, axis] + s.ends[:, axis])
                   for s in shards]
        for a, b in zip(centers, centers[1:]):
            assert a.max() <= b.min() + 1e-9

    def test_bad_args(self, small_db):
        with pytest.raises(ValueError):
            partition_indices(small_db, 0)
        with pytest.raises(ValueError):
            partition_indices(small_db, 2, "zigzag")

    def test_single_node_identity(self, small_db):
        shards = _shards(small_db, 1)
        assert concatenate(shards) == small_db


def _serve(db, queries, d, nodes, *, strategy="round_robin",
           exclude_same_trajectory=False):
    """One search on a ``nodes``-node simulated cluster."""
    with ShardedService(db, num_shards=nodes, replicas_per_shard=1,
                        strategy=strategy) as svc:
        resp = svc.submit(SearchRequest(
            queries=queries, d=d, method="gpu_temporal",
            params={"num_bins": 20},
            exclude_same_trajectory=exclude_same_trajectory))
    assert resp.ok, resp.reason
    return resp


def _legs(resp):
    """Per-node modeled seconds: one lane span per shard leg."""
    return [span["dur_s"] for span in resp.metrics.lane_spans]


class TestCluster:
    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_cluster_equals_single_node(self, db_queries_truth, strategy):
        """Merged per-shard results == whole-database search."""
        db, queries, d, truth = db_queries_truth
        resp = _serve(db, queries, d, 3, strategy=strategy)
        assert resp.outcome.results.equivalent_to(truth)
        assert sorted(span["shard"] for span in
                      resp.metrics.lane_spans) == [0, 1, 2]

    def test_modeled_time_is_slowest_node(self, db_queries_truth):
        """The cluster's modeled time is, bit for bit, the slowest of
        the per-shard engines searched on their own."""
        db, queries, d, _ = db_queries_truth
        resp = _serve(db, queries, d, 2)
        m = GpuCostModel()
        per_node = [GpuTemporalEngine(base, num_bins=20)
                    .search(queries, d)[1].modeled_time(m).total
                    for base in ShardMap(db, 2).shard_bases]
        assert resp.outcome.modeled.total == max(per_node)
        assert resp.outcome.modeled.total == max(_legs(resp))

    def test_imbalance_metric(self, db_queries_truth):
        db, queries, d, _ = db_queries_truth
        legs = np.array(_legs(_serve(db, queries, d, 3)))
        assert legs.size == 3 and legs.min() > 0.0
        assert legs.max() / legs.mean() >= 1.0

    def test_scaling_reduces_per_node_work(self, db_queries_truth):
        """More nodes => less work on the busiest node (the reason the
        paper wants clusters at all)."""
        db, queries, d, _ = db_queries_truth
        times = [_serve(db, queries, d, n).outcome.modeled.total
                 for n in (1, 2, 4)]
        assert times[2] < times[0]

    def test_exclude_same_trajectory_propagates(self, small_db):
        resp = _serve(small_db, small_db, 0.5, 2,
                      exclude_same_trajectory=True)
        truth = brute_force_search(small_db, small_db, 0.5,
                                   exclude_same_trajectory=True)
        assert resp.outcome.results.equivalent_to(truth)


class TestPartitionProperties:
    """Property test: every strategy yields disjoint, covering shards
    on adversarial databases (more shards than trajectories, a single
    trajectory, duplicate timestamps across trajectories)."""

    CASES = [
        # (num_traj, steps, num_nodes, seed)
        (1, 2, 4, 0),        # one trajectory, one segment, N > rows
        (1, 5, 3, 1),        # single trajectory split across slabs
        (2, 3, 16, 2),       # N >> trajectories: empty shards
        (7, 4, 3, 3),
        (5, 6, 5, 4),
        (12, 3, 4, 5),
    ]

    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    @pytest.mark.parametrize("num_traj,steps,nodes,seed", CASES)
    def test_disjoint_and_covering(self, strategy, num_traj, steps,
                                   nodes, seed):
        from repro.core.types import SegmentArray
        from tests.conftest import make_walk_trajectories
        db = SegmentArray.from_trajectories(
            make_walk_trajectories(num_traj, steps, seed=seed))
        shards = _shards(db, nodes, strategy)
        assert len(shards) == nodes
        all_ids = np.concatenate([s.seg_ids for s in shards])
        # Disjoint: no seg_id appears twice across shards.
        assert all_ids.size == np.unique(all_ids).size
        # Covering: the union is exactly the database.
        np.testing.assert_array_equal(np.sort(all_ids),
                                      np.sort(db.seg_ids))

    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_empty_shards_round_trip(self, strategy):
        """More shards than rows: the empty shards are real (length 0)
        SegmentArrays and the non-empty ones concatenate back to the
        database."""
        from repro.core.types import SegmentArray
        from tests.conftest import make_walk_trajectories
        db = SegmentArray.from_trajectories(
            make_walk_trajectories(2, 2, seed=7))  # 2 segments
        shards = _shards(db, 9, strategy)
        assert sum(len(s) == 0 for s in shards) >= 7
        rebuilt = concatenate([s for s in shards if len(s)])
        order = np.argsort(rebuilt.seg_ids)
        np.testing.assert_array_equal(rebuilt.seg_ids[order],
                                      np.sort(db.seg_ids))

    def test_partition_indices_match_database_partition(self, small_db):
        """``ShardMap`` lays the shards out exactly as the strategy
        partitions the rows."""
        for strategy in sorted(PARTITION_STRATEGIES):
            idx = partition_indices(small_db, 4, strategy)
            shards = ShardMap(small_db, 4, strategy).shard_bases
            for ix, shard in zip(idx, shards):
                np.testing.assert_array_equal(
                    small_db.seg_ids[np.asarray(ix, dtype=np.int64)],
                    shard.seg_ids)
