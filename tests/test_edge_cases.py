"""Edge-case tests: degenerate geometries, extreme workloads, and
pathological datasets that indexes must survive."""

import numpy as np

from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray, Trajectory
from repro.engines import (CpuRTreeConfig, CpuRTreeEngine, CpuScanEngine,
                           GpuSpatialConfig, GpuSpatialEngine,
                           GpuSpatioTemporalConfig, GpuSpatioTemporalEngine,
                           GpuTemporalConfig, GpuTemporalEngine)

ALL_FACTORIES = [
    ("gpu_temporal",
     lambda db: GpuTemporalEngine(db, GpuTemporalConfig(num_bins=8))),
    ("gpu_spatial",
     lambda db: GpuSpatialEngine(db, GpuSpatialConfig(cells_per_dim=4))),
    ("gpu_spatiotemporal",
     lambda db: GpuSpatioTemporalEngine(db, GpuSpatioTemporalConfig(
         num_bins=8, num_subbins=2, strict_subbins=False))),
    ("cpu_rtree",
     lambda db: CpuRTreeEngine(db, CpuRTreeConfig(segments_per_mbb=2))),
    ("cpu_scan", lambda db: CpuScanEngine(db)),
]


def check_all(db: SegmentArray, queries: SegmentArray, d: float) -> None:
    truth = brute_force_search(queries, db, d)
    for name, factory in ALL_FACTORIES:
        res, _ = factory(db).search(queries, d)
        assert res.equivalent_to(truth), name


def line_traj(tid, k, origin, step, t0=0.0):
    times = t0 + np.arange(k, dtype=float)
    pos = np.asarray(origin, dtype=float) \
        + np.outer(np.arange(k), np.asarray(step, dtype=float))
    return Trajectory(tid, times, pos)


class TestDegenerateGeometry:
    def test_coplanar_dataset(self):
        """All motion in the z=0 plane: one grid/subbin dimension is
        degenerate."""
        db = SegmentArray.from_trajectories([
            line_traj(i, 6, [i * 2.0, 0.0, 0.0], [0.5, 1.0, 0.0])
            for i in range(8)])
        q = db.take(np.arange(5))
        check_all(db, q, 1.5)

    def test_collinear_dataset(self):
        """Everything on the x axis: two degenerate dimensions."""
        db = SegmentArray.from_trajectories([
            line_traj(i, 5, [i * 3.0, 0.0, 0.0], [1.0, 0.0, 0.0])
            for i in range(6)])
        check_all(db, db.take(np.arange(4)), 2.0)

    def test_stationary_objects(self):
        """Zero-velocity segments (points that persist in time)."""
        db = SegmentArray.from_trajectories([
            line_traj(i, 4, [float(i), float(i), 0.0], [0.0, 0.0, 0.0])
            for i in range(6)])
        check_all(db, db.take(np.arange(3)), 1.5)

    def test_single_point_in_space(self):
        """Every object at the same position: max duplicates, d=0."""
        db = SegmentArray.from_trajectories([
            line_traj(i, 3, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                      t0=float(i) * 0.5) for i in range(5)])
        check_all(db, db.take(np.arange(2)), 0.0)


class TestExtremeWorkloads:
    def test_single_segment_database(self):
        db = SegmentArray.from_trajectories(
            [line_traj(0, 2, [0, 0, 0], [1, 1, 1])])
        q = SegmentArray.from_trajectories(
            [line_traj(1, 2, [0.5, 0, 0], [1, 1, 1])])
        check_all(db, q, 1.0)

    def test_single_query(self, small_db):
        q = small_db.take(np.array([7]))
        check_all(small_db, q, 2.0)

    def test_queries_after_database_ends(self, small_db):
        t_max = small_db.te.max()
        q = SegmentArray.from_trajectories(
            [line_traj(999, 4, [5, 5, 5], [1, 0, 0], t0=t_max + 10.0)])
        for name, factory in ALL_FACTORIES:
            res, _ = factory(small_db).search(q, 100.0)
            assert len(res) == 0, name

    def test_queries_far_outside_space(self, small_db):
        q = SegmentArray.from_trajectories(
            [line_traj(999, 4, [1e7, 1e7, 1e7], [1, 0, 0], t0=5.0)])
        for name, factory in ALL_FACTORIES:
            res, _ = factory(small_db).search(q, 10.0)
            assert len(res) == 0, name

    def test_huge_d_returns_all_overlapping(self, small_db):
        q = small_db.take(np.arange(10))
        check_all(small_db, q, 1e6)

    def test_very_long_segments_spill(self):
        """One trajectory with segments 100x longer than the others:
        worst-case temporal spill for the bin index."""
        trajs = [line_traj(i, 8, [i * 1.0, 0, 0], [0.2, 0.2, 0.0])
                 for i in range(5)]
        slow = Trajectory(99, np.array([0.0, 50.0, 100.0]),
                          np.array([[0, 0, 0], [2, 2, 0], [4, 4, 0]],
                                   dtype=float))
        db = SegmentArray.from_trajectories([*trajs, slow])
        check_all(db, db.take(np.arange(len(db))), 1.0)


class TestPathologicalDistributions:
    def test_heavily_skewed_cluster(self):
        """99 % of segments inside a tiny ball, 1 % far away."""
        rng = np.random.default_rng(5)
        trajs = []
        for i in range(20):
            base = (np.array([500.0, 500.0, 500.0]) if i == 0
                    else np.zeros(3))
            pos = base + np.cumsum(rng.normal(0, 0.1, (6, 3)), axis=0)
            trajs.append(Trajectory(i, np.arange(6, dtype=float), pos))
        db = SegmentArray.from_trajectories(trajs)
        check_all(db, db.take(np.arange(10)), 0.5)

    def test_identical_start_times(self):
        """All trajectories share the exact snapshot grid (Merger-like):
        bin assignment piles into shared bins."""
        rng = np.random.default_rng(6)
        db = SegmentArray.from_trajectories([
            Trajectory(i, np.arange(5, dtype=float),
                       rng.uniform(0, 5, (5, 3))) for i in range(10)])
        check_all(db, db.take(np.arange(8)), 2.0)

    def test_temporal_gap(self):
        """Two eras with a long dead gap between them: many empty bins."""
        a = [line_traj(i, 4, [i * 1.0, 0, 0], [0.3, 0.3, 0], t0=0.0)
             for i in range(4)]
        b = [line_traj(10 + i, 4, [i * 1.0, 0, 0], [0.3, 0.3, 0],
                       t0=1000.0) for i in range(4)]
        db = SegmentArray.from_trajectories([*a, *b])
        check_all(db, db.take(np.arange(len(db))), 1.0)

    def test_anisotropic_extent(self):
        """Space 1000x wider in x than in y/z (road-like)."""
        rng = np.random.default_rng(7)
        trajs = [Trajectory(i, np.arange(5, dtype=float),
                            np.column_stack([
                                rng.uniform(0, 1000, 5),
                                rng.uniform(0, 1, 5),
                                rng.uniform(0, 1, 5)]))
                 for i in range(8)]
        db = SegmentArray.from_trajectories(trajs)
        check_all(db, db.take(np.arange(6)), 5.0)


class TestProfileCoherence:
    """Counter invariants that keep the cost model honest."""

    def test_temporal_comparisons_equal_schedule_mass(self, small_db,
                                                      small_queries):
        engine = GpuTemporalEngine(small_db, GpuTemporalConfig(
            num_bins=16, result_buffer_items=100_000))
        _, prof = engine.search(small_queries, 1.0)
        q = small_queries.sorted_by_start_time()
        lo, hi = engine.index.candidate_rows(q.ts, q.te)
        assert prof.total_comparisons == int(np.maximum(
            hi - lo + 1, 0).sum())

    def test_atomics_equal_raw_results(self, small_db, small_queries):
        engine = GpuTemporalEngine(small_db, GpuTemporalConfig(
            num_bins=16, result_buffer_items=100_000))
        _, prof = engine.search(small_queries, 2.5)
        # Single invocation: every produced item attempted one atomic.
        assert prof.num_kernel_invocations == 1
        assert sum(s.atomic_ops for s in prof.kernel_stats) \
            == prof.raw_result_items

    def test_transfers_scale_with_queries(self, small_db,
                                          small_queries):
        engine = GpuTemporalEngine(small_db, GpuTemporalConfig(num_bins=16))
        _, p_all = engine.search(small_queries, 1.0)
        _, p_half = engine.search(
            small_queries.take(np.arange(len(small_queries) // 2)), 1.0)
        assert p_half.h2d_bytes < p_all.h2d_bytes

    def test_device_memory_holds_db_and_index(self, small_db):
        engine = GpuSpatioTemporalEngine(small_db, GpuSpatioTemporalConfig(
            num_bins=8, num_subbins=2, strict_subbins=False))
        allocs = engine.gpu.memory.allocations()
        assert any("coords" in k for k in allocs)
        assert any(k.startswith("subbin_") for k in allocs)
        assert "result_buffer" in allocs
