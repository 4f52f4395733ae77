"""Tests for the flatly-structured grid (GPUSpatial's index)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import segment_mbbs
from repro.indexes.fsg import FlatGrid
from tests.conftest import make_walk_trajectories
from repro.core.types import SegmentArray
from tests.oracles.perthread_reference import cells_overlapping_box, probe


@pytest.fixture(scope="module")
def grid(request):
    db = SegmentArray.from_trajectories(make_walk_trajectories(30, 20,
                                                               seed=42))
    return FlatGrid.build(db, 8), db


class TestBuild:
    def test_rejects_bad_resolution(self, small_db):
        with pytest.raises(ValueError):
            FlatGrid.build(small_db, 0)
        with pytest.raises(ValueError):
            FlatGrid.build(small_db, (4, -1, 4))

    def test_rejects_empty_db(self):
        with pytest.raises(ValueError):
            FlatGrid.build(SegmentArray.empty(), 4)

    def test_anisotropic_resolution(self, small_db):
        g = FlatGrid.build(small_db, (4, 8, 2))
        assert g.dims == (4, 8, 2)

    def test_only_nonempty_cells_stored(self, grid):
        g, db = grid
        assert g.num_nonempty_cells <= np.prod(g.dims)
        assert g.num_nonempty_cells > 0
        # Cell ids are sorted and unique (binary-searchable G array).
        assert np.all(np.diff(g.cell_ids) > 0)

    def test_cell_ranges_partition_lookup(self, grid):
        g, _ = grid
        assert g.cell_start[0] == 0
        assert g.cell_end[-1] == len(g.lookup)
        np.testing.assert_array_equal(g.cell_start[1:], g.cell_end[:-1])
        assert np.all(g.cell_end > g.cell_start)  # non-empty by def.

    def test_rasterization_complete(self, grid):
        """Every segment id appears in every cell its MBB overlaps —
        Fig. 1/2's indexing invariant."""
        g, db = grid
        boxes = segment_mbbs(db)
        for i in range(0, len(db), 37):  # sample segments
            cells = cells_overlapping_box(g, boxes.lo[i], boxes.hi[i])
            found, start, end = probe(g, cells)
            ids = np.concatenate([g.lookup[s:e] for s, e in
                                  zip(start[found], end[found])]) \
                if np.any(found) else np.zeros(0)
            assert i in ids

    def test_ids_can_repeat_across_cells(self, grid):
        """An MBB overlapping k cells occurs k times in A (paper allows
        duplicates; the host dedups)."""
        g, db = grid
        counts = np.bincount(g.lookup, minlength=len(db))
        assert counts.max() >= 2   # some segment straddles a boundary
        assert counts.min() >= 1   # and none is lost


class TestCoordinates:
    def test_linearize_roundtrip(self, grid):
        g, _ = grid
        rng = np.random.default_rng(0)
        ix = rng.integers(0, g.dims[0], 50)
        iy = rng.integers(0, g.dims[1], 50)
        iz = rng.integers(0, g.dims[2], 50)
        h = g.linearize(ix, iy, iz)
        rx, ry, rz = g.delinearize(h)
        np.testing.assert_array_equal(rx, ix)
        np.testing.assert_array_equal(ry, iy)
        np.testing.assert_array_equal(rz, iz)

    def test_row_major_order(self, grid):
        g, _ = grid
        # Incrementing z changes h by 1; y by nz; x by ny*nz.
        h0 = g.linearize(np.array([1]), np.array([1]), np.array([1]))[0]
        assert g.linearize(np.array([1]), np.array([1]),
                           np.array([2]))[0] == h0 + 1
        assert g.linearize(np.array([1]), np.array([2]),
                           np.array([1]))[0] == h0 + g.dims[2]


class TestProbe:
    def test_probe_miss(self, grid):
        g, _ = grid
        all_cells = np.arange(int(np.prod(g.dims)), dtype=np.int64)
        empty_cells = np.setdiff1d(all_cells, g.cell_ids)
        if empty_cells.size:
            found, _, _ = probe(g, empty_cells[:10])
            assert not np.any(found)

    def test_probe_hit_ranges(self, grid):
        g, _ = grid
        found, start, end = probe(g, g.cell_ids)
        assert np.all(found)
        np.testing.assert_array_equal(start, g.cell_start)
        np.testing.assert_array_equal(end, g.cell_end)

    def test_query_box_outside_grid_clips(self, grid):
        g, _ = grid
        cells = cells_overlapping_box(g, np.array([-1e6] * 3),
                                      np.array([-1e5] * 3))
        # Clipped to the boundary cell: still a valid (possibly absent)
        # cell id, never an out-of-range index.
        assert np.all(cells >= 0)
        assert np.all(cells < np.prod(g.dims))

    def test_nbytes(self, grid):
        """What GPUSpatial places: G, the ranges and A as 4-byte ids."""
        g, _ = grid
        assert g.nbytes() == (g.cell_ids.nbytes + g.cell_start.nbytes
                              + g.cell_end.nbytes + 4 * len(g.lookup))


@given(st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_resolution_preserves_coverage(res):
    """The rasterization invariant holds at any resolution."""
    db = SegmentArray.from_trajectories(make_walk_trajectories(8, 6,
                                                               seed=5))
    g = FlatGrid.build(db, res)
    counts = np.bincount(g.lookup, minlength=len(db))
    assert counts.min() >= 1  # every segment is somewhere in A
