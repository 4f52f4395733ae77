"""Every array resident once, and nothing observable moved.

Engines reserve device memory (``MemoryManager.alloc``) instead of
copying host arrays into it, the GPU engines and ``cpu_scan`` share one
time-sorted copy of a base, and the index builds work per axis without
``(n, 3)`` temporaries.  None of that may show outside memory use:

* every GPU engine's device ledger (names, bytes, peak) on S1 and S3 at
  2 %, after the build and after one search, equals what commit 97ffa85
  placed by copying;
* the built ``SpatioTemporalIndex`` (S1 and S3, ``v`` in {1, 4}),
  ``FlatGrid`` and ``TemporalIndex`` arrays hash to the same SHA-1s.

``tests/data/make_memory_golden.py`` wrote ``memory_golden.json`` by
running :func:`ledger` and :func:`index_digests` on that commit.
"""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import distance
from repro.core.distance import magnitude
from repro.core.ranges import expand_ranges
from repro.core.types import SegmentArray
from repro.data import random_dataset, random_dense_dataset
from repro.engines import (CpuRTreeEngine, CpuScanEngine, GpuSpatialEngine,
                           GpuSpatioTemporalConfig, GpuSpatioTemporalEngine,
                           GpuTemporalConfig, GpuTemporalEngine)
from repro.experiments.scenarios import (scenario_s1_random,
                                         scenario_s3_random_dense)
from repro.indexes import (FlatGrid, RTree, SpatioTemporalIndex,
                           TemporalIndex)

GOLDEN = Path(__file__).parent / "data" / "memory_golden.json"

SCALE = 0.02
SCENARIOS = {"S1": scenario_s1_random, "S3": scenario_s3_random_dense}
DATASETS = {"S1": random_dataset, "S3": random_dense_dataset}
GPU_ENGINES = {"gpu_spatial": GpuSpatialEngine,
               "gpu_temporal": GpuTemporalEngine,
               "gpu_spatiotemporal": GpuSpatioTemporalEngine}
#: device allocations that are working buffers, not the index
NOT_INDEX = ("result_buffer", "fsg_U")

_databases: dict[str, SegmentArray] = {}


def database(name: str) -> SegmentArray:
    if name not in _databases:
        _databases[name] = DATASETS[name](
            scale=SCALE, rng=np.random.default_rng(0))
    return _databases[name]


def build_engine(method: str, name: str):
    scenario = SCENARIOS[name](SCALE)
    return GPU_ENGINES[method].from_config(
        database(name), result_buffer_items=scenario.result_buffer_items,
        **scenario.engine_configs.get(method, {}))


def ledger(method: str, name: str) -> dict:
    """The device ledger after the offline build and after one search
    (the scenario's first two query trajectories at its first
    application ``d``)."""
    scenario = SCENARIOS[name](SCALE)
    engine = build_engine(method, name)
    mem = engine.gpu.memory
    built = {"allocations": mem.allocations(),
             "allocated_bytes": mem.allocated_bytes,
             "peak_bytes": mem.peak_bytes}
    queries = scenario.make_queries(database(name))
    traj = np.unique(queries.traj_ids)[:2]
    engine.search(queries.take(np.flatnonzero(np.isin(queries.traj_ids,
                                                      traj))),
                  scenario.application_d[0])
    return {"built": built,
            "searched": {"allocations": mem.allocations(),
                         "peak_bytes": mem.peak_bytes}}


def _sha1(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _segments_sha1(seg: SegmentArray) -> str:
    return _sha1(*(getattr(seg, f) for f in SegmentArray._FIELDS),
                 seg.traj_ids, seg.seg_ids)


def _temporal_sha1(t: TemporalIndex) -> str:
    return _sha1(np.float64([t.num_bins, t.bin_width, t.t_min]),
                 t.bin_start, t.bin_end, t.bin_first, t.bin_last,
                 t._end_prefix_max, t._first_suffix_min,
                 t._last_prefix_max)


def index_digests(name: str) -> dict:
    """SHA-1s of every array the three GPU indexes build on ``name``."""
    db = database(name)
    configs = SCENARIOS[name](SCALE).engine_configs
    m = configs["gpu_temporal"]["num_bins"]
    temporal = TemporalIndex.build(db, m)
    out = {"segments_by_start_time": _segments_sha1(temporal.segments),
           "temporal": _temporal_sha1(temporal)}
    for v in (1, 4):
        index = SpatioTemporalIndex.build(db, m, v)
        out[f"spatiotemporal_v{v}"] = _sha1(
            index.space_min, index.subbin_width, *index.dim_arrays,
            *index.dim_offsets)
    cells = configs.get("gpu_spatial", {}).get("cells_per_dim", 50)
    grid = FlatGrid.build(db, cells)
    out["flat_grid"] = _sha1(np.int64(grid.dims), grid.origin,
                             grid.cell_size, grid.cell_ids,
                             grid.cell_start, grid.cell_end, grid.lookup)
    return out


# -- held to commit 97ffa85 ---------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("method", sorted(GPU_ENGINES))
def test_ledger_same_as_97ffa85(golden, method, name):
    assert ledger(method, name) == golden["ledger"][f"{method}/{name}"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_index_arrays_same_as_97ffa85(golden, name):
    assert index_digests(name) == golden["index"][name]


# -- index_bytes is what the engine places --------------------------------------


@pytest.mark.parametrize("method", sorted(GPU_ENGINES))
def test_index_bytes_is_the_placed_index(method, small_queries):
    engine = build_engine(method, "S1")
    # the database is placed as "<label>.coords" and "<label>.ids"
    index = {k: v for k, v in engine.gpu.memory.allocations().items()
             if k not in NOT_INDEX and "." not in k}
    _, profile = engine.search(small_queries, 5.0)
    assert profile.index_bytes == sum(index.values()) > 0
    assert engine.index.nbytes() == profile.index_bytes


# -- one time-sorted copy per base ----------------------------------------------


def test_engines_share_the_time_sorted_base(small_db):
    temporal = GpuTemporalEngine(small_db, GpuTemporalConfig(num_bins=20))
    spatiotemporal = GpuSpatioTemporalEngine(small_db, GpuSpatioTemporalConfig(
        num_bins=20, num_subbins=2, strict_subbins=False))
    scan = CpuScanEngine(small_db)
    assert temporal.database is spatiotemporal.database
    assert scan.database is temporal.database
    assert temporal.database is small_db.sorted_by_start_time()
    # the R-tree orders by trajectory, its own layout
    assert CpuRTreeEngine(small_db).index.segments is not scan.database


def test_sorted_copy_freed_with_the_last_engine():
    db = random_dataset(scale=0.002, rng=np.random.default_rng(3))
    engines = [GpuTemporalEngine(db, GpuTemporalConfig(num_bins=20)),
               GpuSpatioTemporalEngine(db, GpuSpatioTemporalConfig(
                   num_bins=20, num_subbins=2, strict_subbins=False)),
               CpuScanEngine(db)]
    sorted_copy = weakref.ref(engines[0].database)
    del engines[:2]
    gc.collect()
    assert sorted_copy() is engines[0].database
    engines.clear()
    gc.collect()
    assert sorted_copy() is None
    # the base does not keep it alive; a new caller sorts again
    assert db.sorted_by_start_time() == db.take(
        np.argsort(db.ts, kind="stable"))


# -- the in-place helpers equal their stacked forms -----------------------------


@given(st.lists(st.tuples(st.integers(-1_000, 1_000), st.integers(0, 6)),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_expand_ranges_is_the_concatenation(ranges):
    starts = np.array([s for s, _ in ranges], dtype=np.int64)
    lens = np.array([n for _, n in ranges], dtype=np.int64)
    want = np.concatenate([np.arange(s, s + n, dtype=np.int64)
                           for s, n in ranges] or [np.zeros(0, np.int64)])
    got = expand_ranges(starts, lens)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


finite = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(*[finite] * 7,
                          st.just(0.0) | st.floats(1e-3, 1e3)),
                min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_magnitude_is_the_stacked_form(rows):
    cols = [np.array(c) for c in zip(*rows)]
    xs, ys, zs, ts, xe, ye, ze, dt = cols
    seg = SegmentArray(xs, ys, zs, ts, xe, ye, ze, ts + dt,
                       np.zeros(len(rows), dtype=np.int64))
    coord = float(np.abs([seg.xs, seg.ys, seg.zs,
                          seg.xe, seg.ye, seg.ze]).max())
    speed = float(np.abs(seg.velocities()).max())
    t = float(np.abs([seg.ts, seg.te]).max())
    stacked = (coord + speed * t
               + 2.0 * distance._EPS ** 0.5 / distance._REJECT_MARGIN * t)
    assert magnitude(seg) == stacked


def test_magnitude_keeps_nan():
    xe = np.arange(8.0)
    xe[6] = np.nan
    seg = SegmentArray(np.arange(8.0), np.zeros(8), np.zeros(8),
                       np.arange(8.0), xe, np.zeros(8), np.zeros(8),
                       np.arange(8.0) + 1, np.zeros(8, dtype=np.int64))
    assert np.isnan(magnitude(seg))


# -- RTree.nbytes is the frozen tree's box and range bytes -----------------------


def _walk_nbytes(tree: RTree) -> int:
    """Node by node, what the boxes and leaf ranges hold."""
    total = 0
    for level in tree.levels:
        for first, last in zip(level.start[:-1], level.start[1:]):
            total += (level.lo[:, first:last].nbytes
                      + level.hi[:, first:last].nbytes)
            if level.ranges is not None:
                total += level.ranges[first:last].nbytes
    return total


@pytest.mark.parametrize("method", ["guttman", "str"])
@pytest.mark.parametrize("temporal_axis", [False, True])
def test_rtree_nbytes_is_the_walk(small_db, method, temporal_axis):
    tree = RTree.build(small_db, method=method,
                       temporal_axis=temporal_axis)
    assert tree.nbytes() == _walk_nbytes(tree) > 0


def test_rtree_search_does_not_walk(small_db, small_queries):
    """Queries far from every box stop at the root level, and the
    profile still charges the whole tree's bytes."""
    engine = CpuRTreeEngine(small_db)
    assert engine.index.depth() > 1
    q = small_queries
    far = SegmentArray(q.xs + 1e9, q.ys + 1e9, q.zs + 1e9, q.ts,
                       q.xe + 1e9, q.ye + 1e9, q.ze + 1e9, q.te,
                       q.traj_ids)
    result, profile = engine.search(far, 5.0)
    assert len(result) == 0
    assert profile.node_visits == len(far)
    assert profile.index_bytes == _walk_nbytes(engine.index)
