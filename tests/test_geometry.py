"""Unit tests for repro.core.geometry (MBBs and spatial predicates)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import MBB, expand, segment_mbbs


def box(lo, hi):
    return MBB(np.array([lo], dtype=float), np.array([hi], dtype=float))


def _overlap(a, b):
    """Closed-box overlap of two one-box batches."""
    return bool(np.all((a.lo <= b.hi) & (b.lo <= a.hi)))


class TestMBB:
    def test_construction_and_shape(self):
        b = MBB(np.zeros((4, 3)), np.ones((4, 3)))
        assert len(b) == 4 and b.ndim == 3

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="hi >= lo"):
            box([0, 0, 1], [1, 1, 0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            MBB(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_take(self):
        b = MBB(np.zeros((3, 3)), np.arange(9, dtype=float).reshape(3, 3)
                + 1)
        t = b.take(np.array([2, 0]))
        assert len(t) == 2
        np.testing.assert_array_equal(t.hi[0], b.hi[2])


class TestSegmentMbbs:
    def test_spatial_boxes_cover_endpoints(self, small_db):
        b = segment_mbbs(small_db)
        assert b.ndim == 3
        assert np.all(b.lo <= small_db.starts)
        assert np.all(b.lo <= small_db.ends)
        assert np.all(b.hi >= small_db.starts)
        assert np.all(b.hi >= small_db.ends)

    def test_temporal_boxes_have_time_axis(self, small_db):
        b = segment_mbbs(small_db, temporal=True)
        assert b.ndim == 4
        np.testing.assert_array_equal(b.lo[:, 3], small_db.ts)
        np.testing.assert_array_equal(b.hi[:, 3], small_db.te)

    def test_moving_point_never_leaves_mbb(self, small_db):
        """Linear motion stays inside the endpoint box at all times."""
        b = segment_mbbs(small_db)
        for w in (0.25, 0.5, 0.75):
            p = (1 - w) * small_db.starts + w * small_db.ends
            assert np.all(p >= b.lo - 1e-12) and np.all(p <= b.hi + 1e-12)


class TestExpand:
    def test_expand_spatial(self):
        b = expand(box([0, 0, 0], [1, 1, 1]), 2.0)
        np.testing.assert_array_equal(b.lo[0], [-2, -2, -2])
        np.testing.assert_array_equal(b.hi[0], [3, 3, 3])

    def test_expand_4d_keeps_time(self):
        b4 = MBB(np.array([[0, 0, 0, 5]], dtype=float),
                 np.array([[1, 1, 1, 6]], dtype=float))
        e = expand(b4, 1.0)
        assert e.lo[0, 3] == 5 and e.hi[0, 3] == 6
        assert e.lo[0, 0] == -1

    def test_expand_4d_all_axes_when_requested(self):
        b4 = MBB(np.array([[0, 0, 0, 5]], dtype=float),
                 np.array([[1, 1, 1, 6]], dtype=float))
        e = expand(b4, 1.0, spatial_only=False)
        assert e.lo[0, 3] == 4 and e.hi[0, 3] == 7

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            expand(box([0, 0, 0], [1, 1, 1]), -0.1)


@given(st.lists(st.floats(-100, 100), min_size=6, max_size=6),
       st.floats(0, 10))
@settings(max_examples=100, deadline=None)
def test_expand_then_overlap_is_distance_test(vals, margin):
    """A point within `margin` of a box overlaps the expanded box."""
    lo3 = np.minimum(vals[:3], vals[3:])
    hi3 = np.maximum(vals[:3], vals[3:])
    b = MBB(lo3[None, :], hi3[None, :])
    # Point at exactly `margin` beyond the hi corner along x.
    p = hi3 + np.array([margin, 0.0, 0.0])
    point_box = MBB(p[None, :], p[None, :])
    assert _overlap(expand(b, margin + 1e-9), point_box)
    if margin > 1e-9:
        assert not _overlap(expand(b, margin * 0.5), point_box)
