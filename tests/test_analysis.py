"""Tests for proximity-graph analysis and the CPU scan baseline."""

import importlib.util

import numpy as np
import pytest

from repro.core.analysis import (co_travel_time, interaction_groups,
                                 most_exposed, proximity_graph)
from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray, Trajectory
from repro.engines import CpuScanEngine


@pytest.fixture(scope="module")
def trio():
    """Three objects: 0 and 1 travel together; 2 is far away."""
    line = np.arange(6, dtype=float)
    mk = lambda tid, off: Trajectory(
        tid, line, np.column_stack([line, np.full(6, off),
                                    np.zeros(6)]))
    db = SegmentArray.from_trajectories(
        [mk(0, 0.0), mk(1, 0.5), mk(2, 100.0)])
    results = brute_force_search(db, db, 1.0,
                                 exclude_same_trajectory=True)
    return db, results


@pytest.mark.skipif(importlib.util.find_spec("networkx") is None,
                    reason="networkx (the `analysis` extra) not installed")
class TestProximityGraph:
    def test_edges_and_weights(self, trio):
        db, results = trio
        g = proximity_graph(results, db, db)
        assert set(g.nodes) == {0, 1, 2}
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        # Together the whole common extent: weight = 5 time units.
        assert g[0][1]["weight"] == pytest.approx(5.0)
        assert g[0][1]["first_contact"] == pytest.approx(0.0)
        assert g[0][1]["episodes"] == 1

    def test_min_dwell_filters(self, trio):
        db, results = trio
        g = proximity_graph(results, db, db, min_dwell=10.0)
        assert g.number_of_edges() == 0

    def test_self_pairs_ignored(self, trio):
        db, _ = trio
        with_self = brute_force_search(db, db, 1.0)
        g = proximity_graph(with_self, db, db)
        assert not any(a == b for a, b in g.edges)

    def test_interaction_groups(self, trio):
        db, results = trio
        g = proximity_graph(results, db, db)
        groups = interaction_groups(g)
        assert groups == [{0, 1}]

    def test_most_exposed(self, trio):
        db, results = trio
        g = proximity_graph(results, db, db)
        top = most_exposed(g, n=3)
        assert {t for t, _ in top} == {0, 1}
        assert all(w == pytest.approx(5.0) for _, w in top)

    def test_co_travel_time(self, trio):
        db, results = trio
        g = proximity_graph(results, db, db)
        assert co_travel_time(g, 0, 1) == pytest.approx(5.0)
        assert co_travel_time(g, 0, 2) == 0.0

    def test_larger_graph_structure(self, small_db):
        results = brute_force_search(small_db, small_db, 2.0,
                                     exclude_same_trajectory=True)
        g = proximity_graph(results, small_db, small_db)
        assert g.number_of_nodes() == small_db.num_trajectories
        # Weighted degrees are non-negative and edges symmetric by
        # construction (undirected graph).
        assert all(w >= 0 for _, w in g.degree(weight="weight"))


class TestCpuScan:
    def test_matches_brute_force(self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        res, prof = CpuScanEngine(db).search(queries, d)
        assert res.equivalent_to(truth)
        assert prof.comparisons >= len(truth)
        assert prof.index_bytes == 0 and prof.node_visits == 0

    def test_scan_window_is_superset_not_cross_product(self, small_db,
                                                       small_queries):
        _, prof = CpuScanEngine(small_db).search(small_queries, 1.0)
        assert prof.comparisons < len(small_db) * len(small_queries)

    def test_exclude_same_trajectory(self, small_db):
        res, _ = CpuScanEngine(small_db).search(
            small_db, 0.5, exclude_same_trajectory=True)
        truth = brute_force_search(small_db, small_db, 0.5,
                                   exclude_same_trajectory=True)
        assert res.equivalent_to(truth)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            CpuScanEngine(SegmentArray.empty())

    def test_facade_integration(self, db_queries_truth):
        from repro.core.search import DistanceThresholdSearch
        db, queries, d, truth = db_queries_truth
        outcome = DistanceThresholdSearch(db, method="cpu_scan").run(
            queries, d)
        assert outcome.results.equivalent_to(truth)
        assert outcome.modeled_seconds > 0
