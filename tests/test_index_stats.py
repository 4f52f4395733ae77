"""Tests for index introspection statistics."""

import pytest

from repro.indexes import (FlatGrid, RTree, SpatioTemporalIndex,
                           TemporalIndex)
from repro.indexes.stats import (FsgStats, RTreeStats,
                                 SpatioTemporalStats, TemporalStats,
                                 describe)


class TestFsgStats:
    def test_basic(self, small_db):
        grid = FlatGrid.build(small_db, 8)
        s = describe(grid, small_db)
        assert isinstance(s, FsgStats)
        assert s.total_cells == 512
        assert 0 < s.nonempty_cells <= 512
        assert s.duplication_factor >= 1.0
        assert s.max_ids_per_cell >= s.mean_ids_per_nonempty_cell

    def test_requires_segments(self, small_db):
        grid = FlatGrid.build(small_db, 4)
        with pytest.raises(ValueError):
            describe(grid)

    def test_finer_grid_more_duplication(self, small_db):
        coarse = describe(FlatGrid.build(small_db, 4), small_db)
        fine = describe(FlatGrid.build(small_db, 32), small_db)
        assert fine.duplication_factor >= coarse.duplication_factor


class TestTemporalStats:
    def test_basic(self, small_db):
        idx = TemporalIndex.build(small_db, 16)
        s = describe(idx)
        assert isinstance(s, TemporalStats)
        assert s.num_bins == 16
        assert s.mean_bin_size > 0
        assert s.mean_spill_bins >= 0.0
        assert 0 < s.expected_selectivity <= 1.0

    def test_more_bins_better_selectivity(self, small_db):
        few = describe(TemporalIndex.build(small_db, 4))
        many = describe(TemporalIndex.build(small_db, 64))
        assert many.expected_selectivity < few.expected_selectivity


class TestSpatioTemporalStats:
    def test_basic(self, small_db):
        idx = SpatioTemporalIndex.build(small_db, 8, 2, strict=False)
        s = describe(idx)
        assert isinstance(s, SpatioTemporalStats)
        assert s.num_subbins == 2
        assert all(d >= 1.0 for d in s.duplication_per_dim)
        assert all(0.0 <= f <= 1.0 for f in s.empty_group_fraction)
        assert 0 < s.expected_best_dim_selectivity <= 1.0
        assert s.extra_bytes_over_temporal >= 3 * len(small_db) * 4

    def test_more_subbins_more_selective(self, small_db):
        lo = describe(SpatioTemporalIndex.build(small_db, 8, 1,
                                                strict=False))
        hi = describe(SpatioTemporalIndex.build(small_db, 8, 4,
                                                strict=False))
        assert hi.expected_best_dim_selectivity \
            < lo.expected_best_dim_selectivity


class TestRTreeStats:
    def test_basic(self, small_db):
        tree = RTree.build(small_db, segments_per_mbb=4, fanout=8)
        s = describe(tree)
        assert isinstance(s, RTreeStats)
        assert s.num_nodes == tree.num_nodes
        assert s.depth == tree.depth()
        assert 1.0 <= s.mean_fanout <= 8.0
        assert s.sibling_overlap_volume >= 0.0

    def test_str_packs_tighter_than_insertion(self, small_db):
        guttman = describe(RTree.build(small_db, method="guttman",
                                       fanout=8, temporal_axis=True))
        packed = describe(RTree.build(small_db, method="str",
                                      fanout=8, temporal_axis=True))
        assert packed.num_nodes <= guttman.num_nodes


class TestDescribeDispatch:
    def test_unknown_type(self):
        with pytest.raises(TypeError):
            describe(object())
