"""Tests for the R-tree baseline index (STR and Guttman builds)."""

import numpy as np
import pytest

from repro.core.geometry import segment_mbbs
from repro.core.ranges import expand_ranges, range_offsets
from repro.core.types import SegmentArray
from repro.indexes.rtree import RTree, flatten
from repro.indexes.rtree_insert import GuttmanBuilder
from tests.conftest import make_walk_trajectories


@pytest.fixture(scope="module", params=["guttman", "str"])
def tree(request, ):
    db = SegmentArray.from_trajectories(make_walk_trajectories(30, 20,
                                                               seed=42))
    return RTree.build(db, segments_per_mbb=4, fanout=8,
                       method=request.param, temporal_axis=True), db


def parent_of(level):
    """The node each entry of ``level`` belongs to."""
    return np.repeat(np.arange(level.start.shape[0] - 1),
                     np.diff(level.start))


class TestBuild:
    def test_rejects_bad_params(self, small_db):
        with pytest.raises(ValueError):
            RTree.build(small_db, segments_per_mbb=0)
        with pytest.raises(ValueError):
            RTree.build(small_db, fanout=1)
        with pytest.raises(ValueError):
            RTree.build(small_db, method="bogus")
        with pytest.raises(ValueError):
            RTree.build(SegmentArray.empty())

    def test_leaf_count(self, tree):
        t, db = tree
        # 30 trajectories of 19 segments at r=4: ceil(19/4)=5 chunks each.
        assert t.num_leaf_mbbs == 30 * 5

    def test_leaves_never_span_trajectories(self, tree):
        t, _ = tree
        seg = t.segments
        for lo, hi in t.levels[-1].ranges:
            tids = seg.traj_ids[lo:hi + 1]
            assert np.all(tids == tids[0])
            # and are time-ordered consecutive rows
            assert np.all(np.diff(seg.ts[lo:hi + 1]) >= 0)

    def test_levels_chain(self, tree):
        """One root; every internal entry is one node of the next level
        down; only the bottom level carries ranges."""
        t, _ = tree
        assert t.levels[0].start.shape == (2,)
        assert all(level.start[0] == 0 for level in t.levels)
        for upper, lower in zip(t.levels, t.levels[1:]):
            assert upper.ranges is None
            assert upper.start[-1] == lower.start.shape[0] - 1
        leaf = t.levels[-1]
        assert leaf.ranges.shape == (leaf.start[-1], 2)
        for level in t.levels:
            assert level.lo.shape == level.hi.shape == (4, level.start[-1])

    def test_containment_invariant(self, tree):
        """Every child box is contained in its parent's recorded box."""
        t, _ = tree
        for upper, lower in zip(t.levels, t.levels[1:]):
            parent = parent_of(lower)
            assert np.all(lower.lo >= upper.lo[:, parent] - 1e-9)
            assert np.all(lower.hi <= upper.hi[:, parent] + 1e-9)

    def test_leaf_boxes_bound_their_segments(self, tree):
        t, _ = tree
        boxes = segment_mbbs(t.segments, temporal=True)
        leaf = t.levels[-1]
        for col, (lo, hi) in enumerate(leaf.ranges):
            rows = np.arange(lo, hi + 1)
            assert np.all(boxes.lo[rows] >= leaf.lo[:, col] - 1e-9)
            assert np.all(boxes.hi[rows] <= leaf.hi[:, col] + 1e-9)

    def test_ranges_tile_database(self, tree):
        t, _ = tree
        rows = np.sort(np.concatenate([np.arange(lo, hi + 1)
                                       for lo, hi in t.levels[-1].ranges]))
        np.testing.assert_array_equal(rows, np.arange(len(t.segments)))

    def test_fanout_respected(self, tree):
        t, _ = tree
        for level in t.levels:
            fan = np.diff(level.start)
            assert np.all((1 <= fan) & (fan <= t.fanout))

    def test_depth_and_nodes(self, tree):
        t, _ = tree
        assert t.depth() == len(t.levels) >= 2
        assert t.num_nodes == 1 + sum(level.start[-1]
                                      for level in t.levels[:-1])

    def test_3d_build_has_no_time_axis(self, small_db):
        t = RTree.build(small_db, temporal_axis=False)
        assert all(level.lo.shape[0] == 3 for level in t.levels)

    def test_freeze_refuses_an_unbalanced_tree(self):
        leaf = (None, [(0, 0)])          # (children, leaf row ranges)
        node = ([leaf, leaf], None)
        lopsided = ([node, leaf], None)

        def level(nodes, is_leaf):
            sizes = [len(n[1] if is_leaf else n[0]) for n in nodes]
            box = np.zeros((3, sum(sizes)))
            if is_leaf:
                return sizes, box, box, None, np.array(
                    [r for n in nodes for r in n[1]]).reshape(-1, 2)
            return sizes, box, box, [c for n in nodes for c in n[0]], None

        flatten(node, lambda n: n[0] is None, level)
        with pytest.raises(AssertionError, match="more than one depth"):
            flatten(lopsided, lambda n: n[0] is None, level)


class TestGuttmanSpecifics:
    def test_min_fanout_guard(self):
        with pytest.raises(ValueError, match="at least 4"):
            GuttmanBuilder(fanout=3)

    def test_min_fill_after_splits(self, small_db):
        t = RTree.build(small_db, segments_per_mbb=2, fanout=8,
                        method="guttman")
        # All non-root nodes respect minimum fill M//2.
        for level in t.levels[1:]:
            assert np.all(np.diff(level.start) >= 4)

    def test_insertion_order_independent_correctness(self, small_db,
                                                     small_queries):
        """Different orders give different trees but identical search
        results."""
        from repro.engines import CpuRTreeConfig, CpuRTreeEngine
        res = []
        for method in ("guttman", "str"):
            eng = CpuRTreeEngine(small_db,
                                 CpuRTreeConfig(build_method=method))
            r, _ = eng.search(small_queries, 2.5)
            res.append(r)
        assert res[0].equivalent_to(res[1])


def _candidates(tree, queries, d):
    """``(rows, cand_start, node_visits)``: query ``k``'s candidate rows
    are ``rows[cand_start[k]:cand_start[k+1]]``, assembled from every
    block of the walk."""
    rows, lens, visits = [np.zeros(0, dtype=np.int64)], [], []
    for _, first, start, length, node_visits in tree.query_blocks(queries,
                                                                  d):
        rows.append(expand_ranges(start, length))
        per_span = range_offsets(length)
        lens.append(per_span[first[1:]] - per_span[first[:-1]])
        visits.append(node_visits)
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate(rows),
            range_offsets(np.concatenate([empty, *lens])),
            np.concatenate([empty, *visits]))


class TestQueryCandidates:
    """The traversal the engine runs, ``query_blocks``."""

    def test_candidates_complete(self, tree, small_queries):
        """Every true result pair's entry row appears among the query's
        candidates (index may over-approximate, never miss)."""
        t, db = tree
        d = 2.5
        from repro.core.bruteforce import brute_force_search
        truth = brute_force_search(small_queries, t.segments, d)
        rows, start, _ = _candidates(t, small_queries, d)
        row_of_id = {int(s): r for r, s in enumerate(t.segments.seg_ids)}
        qrow_of_id = {int(s): r
                      for r, s in enumerate(small_queries.seg_ids)}
        for qid, eid in truth.pairs():
            k = qrow_of_id[qid]
            assert row_of_id[eid] in rows[start[k]:start[k + 1]]

    def test_visits_positive_and_bounded(self, tree, small_queries):
        t, _ = tree
        _, _, visits = _candidates(t, small_queries, 1.0)
        assert visits.shape == (len(small_queries),)
        assert np.all(visits >= 1)          # at least the root
        assert np.all(visits <= t.num_nodes)

    def test_candidates_grow_with_d(self, tree, small_queries):
        t, _ = tree
        sizes = []
        for d in (0.1, 2.0, 10.0):
            rows, start, _ = _candidates(t, small_queries, d)
            assert start[-1] == rows.size
            assert np.all(np.diff(start) >= 0)
            sizes.append(rows.size)
        assert sizes == sorted(sizes)

    def test_larger_r_fewer_nodes_more_candidates(self, small_db,
                                                  small_queries):
        """The paper's r trade-off (§V-B)."""
        small = RTree.build(small_db, segments_per_mbb=1, fanout=8)
        large = RTree.build(small_db, segments_per_mbb=16, fanout=8)
        assert large.num_nodes < small.num_nodes
        c_small, _, _ = _candidates(small, small_queries, 1.0)
        c_large, _, _ = _candidates(large, small_queries, 1.0)
        assert c_large.size >= c_small.size

    def test_empty_query_set(self, tree):
        t, _ = tree
        rows, start, visits = _candidates(t, SegmentArray.empty(),
                                                      1.0)
        assert rows.size == 0 and visits.size == 0
        assert start.tolist() == [0]

    def test_nbytes(self, tree):
        t, _ = tree
        assert t.nbytes() > 0
