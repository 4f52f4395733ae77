"""MICRO — wall-clock micro-benchmarks of the simulator's primitives.

Unlike the figure benchmarks (which report *modeled* device seconds),
these measure the reproduction's own wall-clock throughput with
pytest-benchmark: the vectorized refinement kernel, index construction,
and schedule computation.  They guard the simulator against performance
regressions — at paper scale a 10x slower `compare_pairs` would make the
suite unusable.
"""

import time

import numpy as np
import pytest

from repro.core.distance import compare_pairs
from repro.core.types import SegmentArray
from repro.indexes import (FlatGrid, RTree, SpatioTemporalIndex,
                           TemporalIndex)
from tests.conftest import make_walk_trajectories


@pytest.fixture(scope="module")
def db():
    return SegmentArray.from_trajectories(
        make_walk_trajectories(400, 60, seed=1, box=60.0))


def test_compare_pairs_throughput(benchmark, db):
    """Vectorized refinement of 1M pairs (the simulator's hot loop)."""
    rng = np.random.default_rng(0)
    n = 1_000_000
    q_idx = rng.integers(0, len(db), n)
    e_idx = rng.integers(0, len(db), n)

    result = benchmark(compare_pairs, db, db, q_idx, e_idx, 2.0)
    assert result.num_hits > 0
    # Regression guard: at least 2M pairs/s on any modern CPU.  Under
    # --benchmark-disable the fixture runs once and keeps no stats, so
    # the call is timed here.
    if benchmark.stats is None:
        wall0 = time.perf_counter()
        compare_pairs(db, db, q_idx, e_idx, 2.0)
        mean = time.perf_counter() - wall0
    else:
        mean = benchmark.stats["mean"]
    assert mean < 0.5


def test_fsg_build(benchmark, db):
    grid = benchmark(FlatGrid.build, db, 50)
    assert grid.num_nonempty_cells > 0


def test_temporal_build(benchmark, db):
    index = benchmark(TemporalIndex.build, db, 10_000)
    assert index.num_bins == 10_000


def test_spatiotemporal_build(benchmark, db):
    index = benchmark(SpatioTemporalIndex.build, db, 1_000, 4,
                      strict=False)
    assert index.num_subbins == 4


def test_rtree_str_build(benchmark, db):
    tree = benchmark(RTree.build, db, 4, 16, "str")
    assert tree.num_leaf_mbbs > 0


def test_rtree_guttman_build(benchmark, db):
    def build():
        return RTree.build(db, 4, 16, "guttman")

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    assert tree.num_leaf_mbbs > 0


def test_temporal_schedule_computation(benchmark, db):
    """Host-side schedule: the paper claims it's negligible; it is."""
    index = TemporalIndex.build(db, 10_000)
    q = db.sorted_by_start_time()

    lo, hi = benchmark(index.candidate_rows, q.ts, q.te)
    assert lo.shape == (len(db),)


def test_spatiotemporal_schedule_computation(benchmark, db):
    index = SpatioTemporalIndex.build(db, 1_000, 4, strict=False)
    q = db.sorted_by_start_time()

    sched = benchmark(index.make_schedule, q, 2.0)
    assert len(sched) == len(db)
