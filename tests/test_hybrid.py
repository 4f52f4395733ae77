"""Tests for the hybrid CPU+GPU engine (the paper's future-work §VI)."""

import numpy as np
import pytest

from repro.engines import CpuRTreeEngine, GpuTemporalEngine, HybridEngine
from repro.gpu.costmodel import price


@pytest.fixture()
def engines(small_db):
    return (GpuTemporalEngine(small_db, num_bins=40),
            CpuRTreeEngine(small_db))


class TestHybridEngine:
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.5, 1.0])
    def test_exact_at_any_split(self, engines, db_queries_truth, frac):
        db, queries, d, truth = db_queries_truth
        gpu, cpu = engines
        hybrid = HybridEngine(gpu, cpu, gpu_fraction=frac)
        res, prof = hybrid.search(queries, d)
        assert res.equivalent_to(truth)
        assert prof.gpu_profile.num_queries \
            + prof.cpu_profile.num_queries == len(queries)

    def test_split_sizes(self, engines, small_queries):
        gpu, cpu = engines
        hybrid = HybridEngine(gpu, cpu, gpu_fraction=0.25)
        g_idx, c_idx = hybrid._split(small_queries, 0.25)
        assert g_idx.size == round(0.25 * len(small_queries))
        assert g_idx.size + c_idx.size == len(small_queries)
        assert np.intersect1d(g_idx, c_idx).size == 0

    def test_invalid_fraction(self, engines):
        gpu, cpu = engines
        with pytest.raises(ValueError):
            HybridEngine(gpu, cpu, gpu_fraction=1.5)

    def test_modeled_time_is_max_of_sides(self, engines,
                                          db_queries_truth):
        db, queries, d, _ = db_queries_truth
        gpu, cpu = engines
        hybrid = HybridEngine(gpu, cpu, gpu_fraction=0.5)
        _, prof = hybrid.search(queries, d)
        t = prof.modeled_time().total
        assert t == pytest.approx(max(
            price(prof.gpu_profile).total,
            price(prof.cpu_profile).total))

    def test_balanced_split_in_range(self, engines, db_queries_truth):
        db, queries, d, _ = db_queries_truth
        gpu, cpu = engines
        f = HybridEngine.balanced_split(gpu, cpu, queries, d)
        assert 0.0 <= f <= 1.0

    def test_balanced_split_beats_extreme_splits(self, engines,
                                                 db_queries_truth):
        """The equalizing split should not be worse than both extremes."""
        db, queries, d, _ = db_queries_truth
        gpu, cpu = engines
        f = HybridEngine.balanced_split(gpu, cpu, queries, d)
        times = {}
        for frac in (0.0, f, 1.0):
            hybrid = HybridEngine(gpu, cpu, gpu_fraction=frac)
            _, prof = hybrid.search(queries, d)
            times[frac] = prof.modeled_time().total
        assert times[f] <= max(times[0.0], times[1.0]) + 1e-9
