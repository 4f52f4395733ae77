"""Unit tests for repro.core.types (SegmentArray, Trajectory)."""

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory, concatenate


class TestTrajectory:
    def test_basic_construction(self):
        t = Trajectory(7, np.array([0.0, 1.0, 2.5]),
                       np.arange(9, dtype=float).reshape(3, 3))
        assert t.num_points == 3
        assert t.num_segments == 2
        assert t.traj_id == 7

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(0, np.array([0.0, 1.0, 1.0]), np.zeros((3, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="positions"):
            Trajectory(0, np.array([0.0, 1.0]), np.zeros((3, 3)))

    def test_rejects_2d_times(self):
        with pytest.raises(ValueError, match="1-D"):
            Trajectory(0, np.zeros((2, 2)), np.zeros((2, 3)))


class TestSegmentArray:
    def test_from_trajectories_counts(self, small_db):
        assert len(small_db) == 30 * 19
        assert small_db.num_trajectories == 30

    def test_segment_endpoints_chain(self):
        traj = Trajectory(3, np.array([0.0, 1.0, 2.0]),
                          np.array([[0, 0, 0], [1, 1, 1], [2, 0, 2]],
                                   dtype=float))
        seg = SegmentArray.from_trajectories([traj])
        assert len(seg) == 2
        # Segment 0 ends where segment 1 starts.
        np.testing.assert_array_equal(seg.ends[0], seg.starts[1])
        assert seg.te[0] == seg.ts[1] == 1.0
        assert list(seg.traj_ids) == [3, 3]

    def test_empty(self):
        empty = SegmentArray.empty()
        assert len(empty) == 0
        assert SegmentArray.from_trajectories([]) == empty

    def test_rejects_reversed_time(self):
        z = np.zeros(1)
        with pytest.raises(ValueError, match="t_end >= t_start"):
            SegmentArray(z, z, z, np.array([2.0]), z, z, z,
                         np.array([1.0]), np.zeros(1, dtype=np.int64))

    def test_arrays_are_immutable(self, small_db):
        with pytest.raises(ValueError):
            small_db.xs[0] = 99.0

    def test_take_preserves_ids(self, small_db):
        sub = small_db.take(np.array([5, 1, 3]))
        assert list(sub.seg_ids) == [5, 1, 3]
        assert sub.xs[0] == small_db.xs[5]

    def test_sorted_by_start_time(self, small_db):
        s = small_db.sorted_by_start_time()
        assert np.all(np.diff(s.ts) >= 0)
        # Same multiset of segment ids.
        assert set(s.seg_ids) == set(small_db.seg_ids)

    def test_temporal_extent(self, small_db):
        lo, hi = small_db.temporal_extent
        assert lo == small_db.ts.min()
        assert hi == small_db.te.max()
        assert lo < hi

    def test_spatial_bounds_cover_everything(self, small_db):
        mins, maxs = small_db.spatial_bounds()
        assert np.all(small_db.starts >= mins - 1e-12)
        assert np.all(small_db.ends <= maxs + 1e-12)

    def test_max_spatial_extent(self):
        traj = Trajectory(0, np.array([0.0, 1.0]),
                          np.array([[0, 0, 0], [3.0, -4.0, 0.5]]))
        seg = SegmentArray.from_trajectories([traj])
        np.testing.assert_allclose(seg.max_spatial_extent(),
                                   [3.0, 4.0, 0.5])

    def test_empty_extent_raises(self):
        with pytest.raises(ValueError):
            SegmentArray.empty().temporal_extent
        with pytest.raises(ValueError):
            SegmentArray.empty().spatial_bounds()

    def test_nbytes_positive(self, small_db):
        # 8 coordinate arrays of f64 + 2 id arrays of i64 = 80 B/segment.
        assert small_db.nbytes() == 80 * len(small_db)

    def test_concatenate_roundtrip(self, small_db):
        a = small_db.take(np.arange(0, 100))
        b = small_db.take(np.arange(100, len(small_db)))
        cat = concatenate([a, b])
        assert cat == small_db

    def test_concatenate_empty(self):
        assert concatenate([]) == SegmentArray.empty()

    def test_equality(self, small_db):
        assert small_db == small_db.take(np.arange(len(small_db)))
        assert small_db != small_db.take(np.arange(len(small_db) - 1))
        assert small_db.__eq__(42) is NotImplemented
