"""Per-thread op-count equivalence: the engines vs the per-thread oracle.

The whole-batch vectorized execution path must be *observationally
indistinguishable* from the one-logical-thread-at-a-time reference in
``tests/oracles/perthread_reference.py``: byte-identical result sets,
and — for the GPU engines — identical per-invocation
:class:`~repro.gpu.kernel.KernelStats` (``thread_work`` per thread,
``gather_work`` per thread, ``atomic_ops`` per grid), because the cost
model, profiler, traces, and the chaos and differential crosschecks are
all computed from those counts.  The reference run installs the oracle
with ``monkeypatch`` (:func:`perthread_reference.install`).

Databases and query sets come from the differential harness's seeded
adversarial generator (zero-length segments, exact duplicates, one-bin
bursts, out-of-extent queries), which is where vectorization bugs hide.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import SegmentArray
from repro.indexes import rtree
from repro.indexes.rtree import RTree
from tests.oracles import perthread_reference
from tests.test_differential import (ENGINE_FACTORIES, _byte_identical,
                                     _make_db, _make_queries)

SEEDS = [0, 1, 2]
D_VALUES = [0.0, 0.7, 2.5]


def _search(build, db, queries, d, *, exclude=False):
    """Build a fresh engine and run one search.

    Returns ``(result, profile, kernel_stats)`` — ``kernel_stats`` is
    the per-invocation list for GPU engines, ``None`` for CPU engines.
    """
    engine = build(db)
    result, profile = engine.search(
        queries, d, exclude_same_trajectory=exclude)
    stats = list(engine.gpu.kernel_stats) \
        if hasattr(engine, "gpu") else None
    return result, profile, stats


def _both(monkeypatch, build, db, queries, d, *, exclude=False):
    """``(engine run, reference run)`` of one search."""
    batch = _search(build, db, queries, d, exclude=exclude)
    with monkeypatch.context() as patch:
        perthread_reference.install(patch)
        reference = _search(build, db, queries, d, exclude=exclude)
    return batch, reference


def _assert_equivalent(batch, reference):
    (rb, pb, sb), (rp, pp, sp) = batch, reference
    assert _byte_identical(rb, rp)
    _assert_profiles_equal(pb, pp)
    if sb is not None:
        _assert_stats_equal(sb, sp)


def _assert_profiles_equal(a, b):
    da, db_ = a.to_dict(), b.to_dict()
    da.pop("wall_seconds"), db_.pop("wall_seconds")
    assert da == db_


def _assert_stats_equal(batch, perthread):
    assert len(batch) == len(perthread), "invocation counts differ"
    for i, (sb, sp) in enumerate(zip(batch, perthread)):
        assert sb.name == sp.name, f"invocation {i}: kernel name"
        assert sb.num_threads == sp.num_threads, \
            f"invocation {i}: grid size"
        assert np.array_equal(sb.thread_work, sp.thread_work), \
            f"invocation {i}: thread_work"
        assert np.array_equal(sb.gather_work, sp.gather_work), \
            f"invocation {i}: gather_work"
        assert sb.atomic_ops == sp.atomic_ops, \
            f"invocation {i}: atomic_ops"


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", D_VALUES)
def test_batch_equals_perthread(monkeypatch, engine_name, seed, d):
    db = _make_db(seed)
    _assert_equivalent(*_both(monkeypatch, ENGINE_FACTORIES[engine_name],
                              db, _make_queries(seed, db), d))


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
def test_batch_equals_perthread_self_join_exclusion(monkeypatch,
                                                    engine_name):
    """The exclude-same-trajectory flag flows through both paths."""
    db = _make_db(3)
    _assert_equivalent(*_both(monkeypatch, ENGINE_FACTORIES[engine_name],
                              db, _make_queries(3, db), 1.2, exclude=True))


@pytest.mark.parametrize("engine_name",
                         ["gpu_temporal", "gpu_spatiotemporal"])
def test_redo_invocations_equivalent(monkeypatch, engine_name):
    """Force result-buffer pressure so the redo (re-invocation) path of
    the batch execution is exercised against the reference."""
    from repro.engines import (GpuSpatioTemporalConfig,
                               GpuSpatioTemporalEngine, GpuTemporalConfig,
                               GpuTemporalEngine, NO_RETRY)

    def build(db):
        if engine_name == "gpu_temporal":
            return GpuTemporalEngine(db, GpuTemporalConfig(
                num_bins=24, result_buffer_items=32), retry=NO_RETRY)
        return GpuSpatioTemporalEngine(db, GpuSpatioTemporalConfig(
            num_bins=24, num_subbins=2, strict_subbins=False,
            result_buffer_items=32), retry=NO_RETRY)

    db = _make_db(1)
    batch, reference = _both(monkeypatch, build, db, _make_queries(1, db),
                             8.0)
    assert batch[1].num_kernel_invocations > 1, \
        "workload failed to overflow the result buffer"
    _assert_equivalent(batch, reference)


def test_reference_is_installed(monkeypatch, small_db, small_queries):
    """The reference run really leaves the production path: each engine
    family reaches an oracle body, and the reject is bypassed."""
    from repro.engines import base
    calls = {"refine": 0, "gather": 0, "traverse": 0, "reject": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        perthread_reference.install(patch)
        for module in (base, perthread_reference.cpu_scan,
                       perthread_reference.cpu_rtree):
            patch.setattr(module, "refine",
                          counting("refine", module.refine))
        patch.setattr(base, "surviving_rows",
                      counting("reject", base.surviving_rows))
        cls = perthread_reference.GpuSpatialEngine
        patch.setattr(cls, "_thread_work",
                      counting("gather", cls._thread_work))
        tree = perthread_reference.RTree
        patch.setattr(tree, "query_blocks",
                      counting("traverse", tree.query_blocks))
        for name in sorted(ENGINE_FACTORIES):
            ENGINE_FACTORIES[name](small_db).search(small_queries, 1.0)
    assert calls == {"refine": 5, "gather": 1, "traverse": 1, "reject": 3}


# -- the R-tree's level walk against the per-query recursion ---------------------


@st.composite
def _segments(draw, max_rows, traj_ids=None):
    """Segments on a coarse integer grid: equal coordinates, zero-length
    and zero-duration segments (zero-extent boxes) are routine."""
    n = draw(st.integers(0 if traj_ids is None else 1, max_rows))
    coord = st.integers(-3, 3)
    cols = [np.array(draw(st.lists(coord, min_size=n, max_size=n)),
                     dtype=np.float64) for _ in range(6)]
    ts = np.array(draw(st.lists(st.integers(0, 6), min_size=n,
                                max_size=n)), dtype=np.float64)
    dur = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 3]),
                                 min_size=n, max_size=n)),
                   dtype=np.float64)
    xs, ys, zs, xe, ye, ze = cols
    if traj_ids is None:
        traj_ids = st.just(7000)
    tids = np.array(draw(st.lists(traj_ids, min_size=n, max_size=n)),
                    dtype=np.int64)
    return SegmentArray(xs, ys, zs, ts, xe, ye, ze, ts + dur, tids)


@st.composite
def _rtree_cases(draw):
    db = draw(_segments(60, traj_ids=st.integers(0, 5)))
    tree = RTree.build(db, segments_per_mbb=draw(st.integers(1, 4)),
                       fanout=draw(st.integers(4, 6)),
                       method=draw(st.sampled_from(["guttman", "str"])),
                       temporal_axis=draw(st.booleans()))
    queries = draw(_segments(6))
    if draw(st.booleans()):
        queries = _far(queries)
    return (tree, queries, draw(st.sampled_from([0.0, 0.5, 2.0])),
            draw(st.sampled_from([1, 2, 4, rtree._QUERY_BLOCK])))


def _far(queries):
    """Far off in space: the frontier empties after the root."""
    return SegmentArray(queries.xs + 1e6, queries.ys, queries.zs,
                        queries.ts, queries.xe + 1e6, queries.ye,
                        queries.ze, queries.te, queries.traj_ids)


def _joined(blocks, num_queries):
    """Blocks of ``(block, first, start, length, node_visits)`` laid end
    to end: each query's span count, the spans, the node visits."""
    counts, start, length, visits = [], [], [], []
    covered = 0
    for block, first, s, n, v in blocks:
        assert block.start == covered and first.shape == (
            block.stop - block.start + 1,) and v.shape == first[1:].shape
        covered = block.stop
        counts.append(np.diff(first))
        start.append(s)
        length.append(n)
        visits.append(v)
    assert covered == num_queries
    empty = np.zeros(0, dtype=np.int64)
    return tuple(np.concatenate([empty, *parts])
                 for parts in (counts, start, length, visits))


def _assert_walks_agree(tree, queries, d, block=rtree._QUERY_BLOCK):
    """``block`` queries walk the tree at a time: a block size below the
    batch's splits it, and blocks must concatenate to the batch."""
    with mock.patch.object(rtree, "_QUERY_BLOCK", block):
        got = _joined(tree.query_blocks(queries, d), len(queries))
    want = _joined(perthread_reference.query_blocks(tree, queries, d),
                   len(queries))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=_rtree_cases())
def test_rtree_walk_equals_perquery_recursion(case):
    """Both build methods, 3-D and 4-D boxes, zero to six queries in
    blocks of one or more, one-level trees (fewer chunks than
    ``fanout``) and deep ones."""
    _assert_walks_agree(*case)


@pytest.mark.parametrize("method", ["guttman", "str"])
@pytest.mark.parametrize("temporal_axis", [False, True])
def test_rtree_walk_edge_cases(method, temporal_axis):
    db = _make_db(0)
    one_level = RTree.build(db.take(np.arange(8)), segments_per_mbb=4,
                            fanout=6, method=method,
                            temporal_axis=temporal_axis)
    deep = RTree.build(db, segments_per_mbb=1, fanout=4, method=method,
                       temporal_axis=temporal_axis)
    assert one_level.depth() == 1 and deep.depth() >= 3
    queries = _make_queries(0, db)
    far = _far(queries)
    for tree in (one_level, deep):
        for q in (queries, queries.take([0]), SegmentArray.empty(), far):
            for d, block in itertools.product((0.0, 0.7), (1, 3, 64)):
                _assert_walks_agree(tree, q, d, block)
    visits = _joined(deep.query_blocks(far, 0.7), len(far))[3]
    assert visits.tolist() == [1] * len(far)
