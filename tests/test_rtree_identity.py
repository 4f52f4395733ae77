"""The Guttman builder freezes to the same tree, bit for bit.

``repro.indexes.rtree_insert`` does the textbook algorithm with cached
areas, incrementally tightened parent rows and a one-sided PickNext; the
CPU cost model charges node visits, so "the same algorithm" has to mean
the same bytes.  Two referees:

* ``tests/oracles/guttman_reference.py`` — the straightforward builder
  the repository shipped through commit f7a6f96, kept verbatim — on the
  paper's datasets, on inputs that are nothing but ties, and on random
  small box sets;
* SHA-1s of whole frozen trees, captured by running f7a6f96 itself, so
  the identity does not rest on the oracle file alone (they also cover
  ``RTree.build``'s chunking, which the oracle does not replace).
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import random_dataset, random_dense_dataset
from repro.indexes import rtree_insert
from repro.indexes.rtree import RTree
from tests.oracles.guttman_reference import GuttmanBuilder as Reference


def preorder(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def assert_same_tree(got, want):
    for a, b in itertools.zip_longest(preorder(got), preorder(want)):
        assert a is not None and b is not None, "node counts differ"
        assert a.child_lo.tobytes() == b.child_lo.tobytes()
        assert a.child_hi.tobytes() == b.child_hi.tobytes()
        assert len(a.children) == len(b.children)
        assert (a.ranges is None) == (b.ranges is None)
        if a.ranges is not None:
            assert a.ranges.dtype == b.ranges.dtype
            assert a.ranges.tobytes() == b.ranges.tobytes()


def tree_sha1(tree: RTree) -> str:
    h = hashlib.sha1()
    for node in preorder(tree.root):
        h.update(node.child_lo.tobytes())
        h.update(node.child_hi.tobytes())
        h.update(b"" if node.ranges is None else node.ranges.tobytes())
        h.update(len(node.children).to_bytes(4, "little"))
    h.update(b"%d/%d" % (tree.num_nodes, tree.nbytes()))
    return h.hexdigest()


# -- the paper's datasets, through RTree.build --------------------------------

DATASETS = {
    "S1": lambda: random_dataset(scale=0.02,
                                 rng=np.random.default_rng(0)),
    # The first 20,000 rows (104 walkers) of S3-random-dense.
    "S3": lambda: random_dense_dataset(
        scale=0.02, rng=np.random.default_rng(0)).take(np.arange(20_000)),
}

#: (dataset, rows used, temporal_axis, segments_per_mbb, fanout)
BUILDS = {
    "S1-4d-r4": ("S1", None, True, 4, 16),     # the S1 serving config
    "S1-3d-r4": ("S1", 8_000, False, 4, 16),
    "S1-4d-r1": ("S1", 3_000, True, 1, 16),
    "S1-3d-r1-f5": ("S1", 4_000, False, 1, 5),
    "S1-4d-r4-f4": ("S1", 8_000, True, 4, 4),
    "S3-3d-r4": ("S3", None, False, 4, 16),    # the S3 serving config
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
    assert_same_tree(got.root, want.root)
    assert got.num_nodes == want.num_nodes
    assert got.nbytes() == want.nbytes()
    if name in GOLDEN_SHA1:
        assert tree_sha1(got) == GOLDEN_SHA1[name]


# -- inputs that are all ties, straight into the builders ---------------------


def _freeze(builder_cls, lo, hi, fanout):
    builder = builder_cls(fanout=fanout, ndim=lo.shape[1])
    for i in range(lo.shape[0]):
        builder.insert(lo[i], hi[i], (i, i))
    return builder.finalize(), builder.num_nodes


def _assert_builders_agree(lo, hi, fanout):
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    got, got_nodes = _freeze(rtree_insert.GuttmanBuilder, lo, hi, fanout)
    want, want_nodes = _freeze(Reference, lo, hi, fanout)
    assert_same_tree(got, want)
    assert got_nodes == want_nodes


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

