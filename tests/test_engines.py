"""Engine tests: exactness vs brute force, incremental processing,
overflow/redo, and per-engine behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray
from repro.engines import (CpuRTreeConfig, CpuRTreeEngine, CpuScanEngine,
                           GpuSpatialConfig, GpuSpatialEngine,
                           GpuSpatioTemporalConfig, GpuSpatioTemporalEngine,
                           GpuTemporalConfig, GpuTemporalEngine)
from repro.engines.base import first_fit_accept
from tests.conftest import make_walk_trajectories

ENGINE_FACTORIES = {
    "gpu_temporal": lambda db, **kw: GpuTemporalEngine(
        db, GpuTemporalConfig(num_bins=40, **kw)),
    "gpu_spatial": lambda db, **kw: GpuSpatialEngine(
        db, GpuSpatialConfig(cells_per_dim=8, **kw)),
    "gpu_spatiotemporal": lambda db, **kw: GpuSpatioTemporalEngine(
        db, GpuSpatioTemporalConfig(num_bins=40, num_subbins=2,
                                    strict_subbins=False, **kw)),
    "cpu_rtree": lambda db, **kw: CpuRTreeEngine(db, CpuRTreeConfig(**kw)),
}


@pytest.fixture(scope="module", params=sorted(ENGINE_FACTORIES))
def engine_name(request):
    return request.param


class TestExactness:
    def test_matches_brute_force(self, engine_name, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        engine = ENGINE_FACTORIES[engine_name](db)
        res, _ = engine.search(queries, d)
        assert res.equivalent_to(truth), engine_name

    @pytest.mark.parametrize("d", [0.0, 0.1, 7.5, 100.0])
    def test_matches_across_distances(self, engine_name, small_db,
                                      small_queries, d):
        truth = brute_force_search(small_queries, small_db, d)
        engine = ENGINE_FACTORIES[engine_name](small_db)
        res, _ = engine.search(small_queries, d)
        assert res.equivalent_to(truth)

    def test_self_join_excluding_own_trajectory(self, engine_name,
                                                small_db):
        truth = brute_force_search(small_db, small_db, 1.0,
                                   exclude_same_trajectory=True)
        engine = ENGINE_FACTORIES[engine_name](small_db)
        res, _ = engine.search(small_db, 1.0,
                               exclude_same_trajectory=True)
        assert res.equivalent_to(truth)

    def test_empty_database_rejected(self, engine_name):
        with pytest.raises(ValueError):
            ENGINE_FACTORIES[engine_name](SegmentArray.empty())

    def test_repeated_searches_reuse_index(self, engine_name, small_db,
                                           small_queries):
        """A second search on the same engine gives identical results
        (counters reset cleanly between searches)."""
        engine = ENGINE_FACTORIES[engine_name](small_db)
        r1, p1 = engine.search(small_queries, 2.5)
        r2, p2 = engine.search(small_queries, 2.5)
        assert r1.equivalent_to(r2)
        if engine_name != "cpu_rtree":
            assert (p1.num_kernel_invocations
                    == p2.num_kernel_invocations)


class TestIncrementalProcessing:
    """Failure injection: tiny result buffers force the §V-D/§V-E
    incremental path; results must stay exact."""

    @pytest.mark.parametrize("name", ["gpu_temporal",
                                      "gpu_spatiotemporal",
                                      "gpu_spatial"])
    def test_tiny_result_buffer_still_exact(self, name,
                                            db_queries_truth):
        db, queries, d, truth = db_queries_truth
        engine = ENGINE_FACTORIES[name](db, result_buffer_items=23)
        res, prof = engine.search(queries, d)
        assert res.equivalent_to(truth)
        assert prof.num_kernel_invocations > 1
        assert prof.redo_queries > 0

    def test_impossible_buffer_raises(self, db_queries_truth):
        """A query whose own output exceeds the whole buffer is a
        configuration error, reported as such (retry disabled; with the
        default policy the engine grows the buffer instead — see
        test_overflow_retry.py)."""
        from repro.engines.base import NO_RETRY
        db, queries, d, truth = db_queries_truth
        per_query = np.bincount(truth.q_ids)
        if per_query.max() < 2:
            pytest.skip("no query with >1 result in this dataset")
        engine = GpuTemporalEngine(
            db, GpuTemporalConfig(num_bins=40, result_buffer_items=1),
            retry=NO_RETRY)
        with pytest.raises(RuntimeError, match="result buffer too small"):
            engine.search(queries, d)

    def test_more_invocations_means_more_transfers(self,
                                                   db_queries_truth):
        db, queries, d, _ = db_queries_truth
        big = GpuTemporalEngine(db, GpuTemporalConfig(
            num_bins=40, result_buffer_items=10_000))
        small = GpuTemporalEngine(db, GpuTemporalConfig(
            num_bins=40, result_buffer_items=29))
        _, p_big = big.search(queries, d)
        _, p_small = small.search(queries, d)
        assert p_small.num_kernel_invocations \
            > p_big.num_kernel_invocations
        assert p_small.num_transfers > p_big.num_transfers
        # Re-done comparisons: incremental processing wastes work.
        assert p_small.total_comparisons >= p_big.total_comparisons


class TestGpuSpatialOverflow:
    def test_candidate_overflow_triggers_redo(self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        # ~9 slots per query in the first invocation: most overflow.
        engine = GpuSpatialEngine(db, GpuSpatialConfig(
            cells_per_dim=8, candidate_buffer_items=9 * len(queries)))
        res, prof = engine.search(queries, d)
        assert res.equivalent_to(truth)
        assert prof.num_kernel_invocations > 1
        assert prof.redo_queries > 0

    def test_single_query_candidate_overflow_raises(self, small_db,
                                                    small_queries):
        engine = GpuSpatialEngine(small_db, GpuSpatialConfig(
            cells_per_dim=8, candidate_buffer_items=2))
        with pytest.raises(RuntimeError, match="candidate buffer"):
            engine.search(small_queries, 5.0)

    def test_invalid_buffer_rejected(self, small_db):
        with pytest.raises(ValueError):
            GpuSpatialEngine(small_db,
                             GpuSpatialConfig(candidate_buffer_items=0))

    def test_duplicate_candidates_filtered_on_host(self, small_db,
                                                   small_queries):
        """Raw GPU results may contain duplicates (ids occur once per
        overlapped cell); host output must not."""
        engine = GpuSpatialEngine(small_db,
                                  GpuSpatialConfig(cells_per_dim=10))
        res, prof = engine.search(small_queries, 3.0)
        assert prof.raw_result_items >= len(res)
        assert len(res.deduplicated()) == len(res)


class TestGpuTemporalBehaviour:
    def test_comparisons_independent_of_d(self, small_db,
                                          small_queries):
        """The scheme's signature (§V-C): candidates depend on time, not
        on d."""
        engine = GpuTemporalEngine(small_db, GpuTemporalConfig(
            num_bins=40, result_buffer_items=100_000))
        _, p1 = engine.search(small_queries, 0.01)
        _, p2 = engine.search(small_queries, 50.0)
        assert p1.total_comparisons == p2.total_comparisons

    def test_schedule_transferred(self, small_db, small_queries):
        engine = GpuTemporalEngine(small_db, GpuTemporalConfig(num_bins=40))
        _, prof = engine.search(small_queries, 1.0)
        assert prof.schedule_items == len(small_queries)
        assert prof.h2d_bytes > 0 and prof.d2h_bytes >= 0


class TestGpuSpatioTemporalBehaviour:
    def test_fewer_comparisons_than_temporal(self, small_db,
                                             small_queries):
        """Spatial subbins must add selectivity over pure temporal."""
        t = GpuTemporalEngine(small_db, GpuTemporalConfig(num_bins=40))
        st_ = GpuSpatioTemporalEngine(small_db, GpuSpatioTemporalConfig(
            num_bins=40, num_subbins=2, strict_subbins=False))
        _, pt = t.search(small_queries, 0.5)
        _, pst = st_.search(small_queries, 0.5)
        assert pst.total_comparisons < pt.total_comparisons

    def test_v1_equals_temporal_candidates_plus_indirection(
            self, small_db, small_queries):
        """v=1: same candidate set as GPUTemporal, one extra indirection
        (the §V-C +12.4 % experiment)."""
        t = GpuTemporalEngine(small_db, GpuTemporalConfig(num_bins=40))
        st1 = GpuSpatioTemporalEngine(small_db, GpuSpatioTemporalConfig(
            num_bins=40, num_subbins=1))
        _, pt = t.search(small_queries, 2.0)
        _, pst = st1.search(small_queries, 2.0)
        assert pst.total_comparisons == pt.total_comparisons
        def gathers(p):
            return sum(int(s.gather_work.sum()) for s in p.kernel_stats)

        assert gathers(pst) > 0 and gathers(pt) == 0

    def test_defaulted_counted(self, small_db, small_queries):
        engine = GpuSpatioTemporalEngine(small_db, GpuSpatioTemporalConfig(
            num_bins=40, num_subbins=2, strict_subbins=False))
        _, p_small = engine.search(small_queries, 0.1)
        _, p_big = engine.search(small_queries, 30.0)
        assert p_big.defaulted_queries >= p_small.defaulted_queries


class TestCpuRTree:
    def test_profile_counts(self, small_db, small_queries):
        engine = CpuRTreeEngine(small_db)
        res, prof = engine.search(small_queries, 2.0)
        assert prof.node_visits > 0
        assert prof.comparisons >= len(res)
        assert prof.result_items == len(res)

    def test_tune_segments_per_mbb(self, small_db, small_queries):
        from repro.engines.cpu_rtree import tune_segments_per_mbb
        best, times = tune_segments_per_mbb(small_db, small_queries, 2.0,
                                            r_values=(1, 4, 16))
        assert best in times
        assert times[best] == min(times.values())
        assert len(times) == 3


class TestCpuScan:
    def test_matches_brute_force(self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        res, prof = CpuScanEngine(db).search(queries, d)
        assert res.equivalent_to(truth)
        assert prof.comparisons >= len(truth)
        assert prof.index_bytes == 0 and prof.node_visits == 0

    def test_scan_window_is_superset_not_cross_product(self, small_db,
                                                       small_queries):
        _, prof = CpuScanEngine(small_db).search(small_queries, 1.0)
        assert prof.comparisons < len(small_db) * len(small_queries)

    def test_exclude_same_trajectory(self, small_db):
        res, _ = CpuScanEngine(small_db).search(
            small_db, 0.5, exclude_same_trajectory=True)
        truth = brute_force_search(small_db, small_db, 0.5,
                                   exclude_same_trajectory=True)
        assert res.equivalent_to(truth)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            CpuScanEngine(SegmentArray.empty())

    def test_facade_integration(self, db_queries_truth):
        from repro.core.search import DistanceThresholdSearch
        db, queries, d, truth = db_queries_truth
        outcome = DistanceThresholdSearch(db, method="cpu_scan").run(
            queries, d)
        assert outcome.results.equivalent_to(truth)
        assert outcome.modeled_seconds > 0


class TestFirstFitAccept:
    def test_all_fit(self):
        acc = first_fit_accept(np.array([3, 4, 2]), 100)
        assert acc.all()

    def test_prefix_fit(self):
        acc = first_fit_accept(np.array([3, 4, 2]), 7)
        assert list(acc) == [True, True, False]

    def test_zero_hit_threads_always_complete(self):
        acc = first_fit_accept(np.array([5, 0, 5, 0]), 4)
        assert list(acc) == [False, True, False, True]

    def test_exact_capacity(self):
        acc = first_fit_accept(np.array([2, 2]), 4)
        assert acc.all()


@given(seed=st.integers(0, 50), d=st.floats(0.1, 15.0))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_property(seed, d):
    """Randomized cross-engine agreement: all four engines and brute
    force produce identical result sets."""
    db = SegmentArray.from_trajectories(
        make_walk_trajectories(8, 8, seed=seed, box=10.0))
    queries = SegmentArray.from_trajectories(
        [t for t in make_walk_trajectories(3, 6, seed=seed + 1000,
                                           box=10.0)])
    truth = brute_force_search(queries, db, d)
    for name, factory in ENGINE_FACTORIES.items():
        res, _ = factory(db).search(queries, d)
        assert res.equivalent_to(truth), f"{name} diverged (seed={seed})"
