"""The Guttman builder freezes to the same tree, bit for bit.

``repro.indexes.rtree_insert`` does the textbook algorithm on Python
floats, with cached areas, incrementally enlarged parent entries and a
one-sided PickNext; the CPU cost model charges node visits, so "the same
algorithm" has to mean the same bytes.  Two referees:

* ``tests/oracles/guttman_reference.py`` — the straightforward builder
  the repository shipped through commit f7a6f96, kept verbatim but for
  its freeze, which now goes through the same ``flatten``, and its entry
  point, the shipped builder's ``build(lo, hi, ranges, order)`` — on the
  paper's datasets, on a compacted serving base, on inputs that are
  nothing but ties, and on random small box sets;
* SHA-1s of whole frozen trees, captured by running f7a6f96 itself, so
  the identity does not rest on the oracle file alone (they also cover
  ``RTree.build``'s chunking, which the oracle does not replace, and
  ``flatten``: :func:`preorder` rebuilds f7a6f96's per-node bytes from
  the levels).
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import SegmentArray
from repro.data import random_dataset, random_dense_dataset
from repro.data.random_walk import make_random_walks
from repro.indexes import rtree_insert
from repro.indexes.rtree import RTree
from repro.ingest import VersionedDatabase
from tests.oracles.guttman_reference import GuttmanBuilder as Reference


def preorder(levels):
    """Each node's ``(child_lo, child_hi, ranges, num_children)`` in
    depth-first preorder, rebuilt from the levels: the per-node form
    the goldens were captured from (``(k, ndim)`` boxes, ``(k, 2)``
    ranges on leaves, ``None`` and the child count above them)."""
    def visit(depth, node):
        level = levels[depth]
        first, last = int(level.start[node]), int(level.start[node + 1])
        leaf = level.ranges is not None
        yield (level.lo[:, first:last].T, level.hi[:, first:last].T,
               level.ranges[first:last] if leaf else None,
               0 if leaf else last - first)
        if not leaf:
            for child in range(first, last):
                yield from visit(depth + 1, child)
    return visit(0, 0)


def assert_same_tree(got, want):
    assert len(got) == len(want), "depths differ"
    for a, b in zip(got, want):
        assert a.start.tobytes() == b.start.tobytes()
        assert a.lo.tobytes() == b.lo.tobytes()
        assert a.hi.tobytes() == b.hi.tobytes()
        assert (a.ranges is None) == (b.ranges is None)
        if a.ranges is not None:
            assert a.ranges.dtype == b.ranges.dtype
            assert a.ranges.tobytes() == b.ranges.tobytes()


def tree_sha1(tree: RTree) -> str:
    h = hashlib.sha1()
    for child_lo, child_hi, ranges, num_children in preorder(tree.levels):
        h.update(child_lo.tobytes())
        h.update(child_hi.tobytes())
        h.update(b"" if ranges is None else ranges.tobytes())
        h.update(num_children.to_bytes(4, "little"))
    h.update(b"%d/%d" % (tree.num_nodes, tree.nbytes()))
    return h.hexdigest()


# -- the paper's datasets, through RTree.build --------------------------------


def _compacted_base():
    """The base a serving compaction hands ``RTree.build``: S1 at 2 %
    plus twelve 400-step walks starting at times in (0, 100), one of
    them deleted, folded by ``VersionedDatabase.compact``."""
    side = 1000.0 * (50 / 2500.0) ** (1.0 / 3.0)    # S1's box at 2 %
    walks = make_random_walks(
        num_trajectories=12, num_timesteps=400, box_side=side,
        step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=np.random.default_rng(1), first_traj_id=2_000_000)
    versioned = VersionedDatabase(
        random_dataset(scale=0.02, rng=np.random.default_rng(0)))
    versioned.append(SegmentArray.from_trajectories(walks))
    versioned.delete_trajectory(walks[1].traj_id)
    versioned.compact()
    return versioned.base


DATASETS = {
    "S1": lambda: random_dataset(scale=0.02,
                                 rng=np.random.default_rng(0)),
    # The first 20,000 rows (104 walkers) of S3-random-dense.
    "S3": lambda: random_dense_dataset(
        scale=0.02, rng=np.random.default_rng(0)).take(np.arange(20_000)),
    # The first 8,000 rows of S1 in a random row order: the one input
    # ``RTree.build`` must re-sort (a copy) instead of keeping as given.
    "S1-shuffled": lambda: random_dataset(
        scale=0.02, rng=np.random.default_rng(0)).take(
            np.random.default_rng(3).permutation(8_000)),
    "S1-compacted": _compacted_base,
}

#: (dataset, rows used, temporal_axis, segments_per_mbb, fanout)
BUILDS = {
    "S1-4d-r4": ("S1", None, True, 4, 16),     # the S1 serving config
    "S1-3d-r4": ("S1", 8_000, False, 4, 16),
    "S1-4d-r1": ("S1", 3_000, True, 1, 16),
    "S1-3d-r1-f5": ("S1", 4_000, False, 1, 5),
    "S1-4d-r4-f4": ("S1", 8_000, True, 4, 4),
    "S3-3d-r4": ("S3", None, False, 4, 16),    # the S3 serving config
    "S1-shuffled-3d-r4": ("S1-shuffled", None, False, 4, 16),
    # What a policy compaction rebuilds while serving S1.
    "S1-compacted-4d-r4": ("S1-compacted", None, True, 4, 16),
}

#: SHA-1 of the frozen tree as commit f7a6f96 built it.
GOLDEN_SHA1 = {
    "S1-4d-r4": "3a18b1cb5f8a93397f93e3f51fb23f2c1985610c",
    "S1-3d-r1-f5": "b0c1c11208c70de3ccf3db8ca3e68068576f64a3",
    "S3-3d-r4": "3025ef9c7ffec19a9a10f7ab811f4406b320a388",
}


@pytest.fixture(scope="module")
def datasets():
    return {name: make() for name, make in DATASETS.items()}


def _build(datasets, name):
    dataset, rows, temporal_axis, r, fanout = BUILDS[name]
    db = datasets[dataset]
    if rows is not None:
        db = db.take(np.arange(rows))
    return RTree.build(db, segments_per_mbb=r, fanout=fanout,
                       temporal_axis=temporal_axis)


@pytest.mark.parametrize("name", BUILDS)
def test_same_tree_as_the_reference_builder(datasets, name, monkeypatch):
    got = _build(datasets, name)
    monkeypatch.setattr(rtree_insert, "GuttmanBuilder", Reference)
    want = _build(datasets, name)
    assert_same_tree(got.levels, want.levels)
    assert got.num_nodes == want.num_nodes
    assert got.nbytes() == want.nbytes()
    if name in GOLDEN_SHA1:
        assert tree_sha1(got) == GOLDEN_SHA1[name]


def test_an_ordered_base_is_indexed_in_place(datasets):
    base = datasets["S1"]
    assert RTree.build(base, segments_per_mbb=4, temporal_axis=True
                       ).segments is base


def test_a_shuffled_base_builds_the_ordered_tree(datasets):
    """The re-sorting path: the same rows in another order give the
    tree and the row order of the ordered prefix, bit for bit."""
    got = _build(datasets, "S1-shuffled-3d-r4")
    want = _build(datasets, "S1-3d-r4")
    assert got.segments is not datasets["S1-shuffled"]
    assert_same_tree(got.levels, want.levels)
    for name in ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te",
                 "traj_ids", "seg_ids"):
        assert getattr(got.segments, name).tobytes() \
            == getattr(want.segments, name).tobytes()


#: The traced peak of ``RTree.build`` over the compacted base, as a
#: multiple of its chunk-box arrays (``2 * chunks * 4 * 8`` bytes): 5.8x
#: with the freeze gathering each level's boxes in one index; 7.6x when
#: it copied three arrays per leaf before one concatenate per level, and
#: 12.9x with leaves holding each entry's box as a tuple of Python floats.
MAX_BUILD_PEAK_OVER_BOXES = 6.5


def test_build_memory_stays_near_the_chunk_boxes(datasets):
    base = datasets["S1-compacted"]
    tracemalloc.start()
    try:
        tree = RTree.build(base, segments_per_mbb=4, fanout=16,
                           temporal_axis=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box_bytes = 2 * tree.num_leaf_mbbs * 4 * 8
    assert peak <= MAX_BUILD_PEAK_OVER_BOXES * box_bytes, peak / box_bytes


# -- inputs that are all ties, straight into the builders ---------------------


def _freeze(builder_cls, lo, hi, fanout):
    n = lo.shape[0]
    ranges = np.repeat(np.arange(n, dtype=np.int64), 2).reshape(n, 2)
    return builder_cls(fanout=fanout).build(lo, hi, ranges, np.arange(n))


def _assert_builders_agree(lo, hi, fanout):
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    assert_same_tree(_freeze(rtree_insert.GuttmanBuilder, lo, hi, fanout),
                     _freeze(Reference, lo, hi, fanout))


def _lattice(side, ndim):
    """Unit cells of a ``side**ndim`` grid centred on the origin, so
    corners include 0.0 and negative coordinates."""
    cells = np.array(list(itertools.product(range(side), repeat=ndim)),
                     dtype=np.float64) - side // 2
    return cells, cells + 1.0


def _tie_inputs():
    rng = np.random.default_rng(5)
    lo, hi = _lattice(5, 3)
    shuffled = rng.permutation(lo.shape[0])
    points = rng.integers(-2, 3, size=(150, 4)).astype(np.float64)
    flat_lo = rng.integers(-3, 3, size=(150, 3)).astype(np.float64)
    flat_hi = flat_lo + np.array([1.0, 0.0, 2.0])    # no extent in y
    return {
        "identical": (np.tile([0.0, -1.0, 2.0, 0.5], (120, 1)),
                      np.tile([1.0, 0.0, 2.5, 0.5], (120, 1))),
        "lattice": (lo, hi),
        "lattice-shuffled": (lo[shuffled], hi[shuffled]),
        "lattice-4d": _lattice(3, 4),
        "points": (points, points),
        "flat": (flat_lo, flat_hi),
    }


@pytest.mark.parametrize("fanout", [4, 5, 16])
@pytest.mark.parametrize("name", _tie_inputs())
def test_same_tree_when_every_choice_is_a_tie(name, fanout):
    lo, hi = _tie_inputs()[name]
    _assert_builders_agree(lo, hi, fanout)


@st.composite
def _box_sets(draw):
    ndim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 60))
    # A coarse integer grid makes equal enlargements, equal areas and
    # zero-volume boxes routine rather than rare.
    corner = st.lists(st.integers(-4, 4), min_size=ndim, max_size=ndim)
    a = np.array(draw(st.lists(corner, min_size=n, max_size=n)),
                 dtype=np.float64)
    b = np.array(draw(st.lists(corner, min_size=n, max_size=n)),
                 dtype=np.float64)
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    return np.minimum(a, b) * scale, np.maximum(a, b) * scale


@settings(max_examples=60, deadline=None)
@given(boxes=_box_sets(), fanout=st.integers(4, 7))
def test_same_tree_on_small_random_box_sets(boxes, fanout):
    _assert_builders_agree(*boxes, fanout)

