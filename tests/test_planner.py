"""Tests for the cost-based query planner."""

import numpy as np
import pytest

from repro.core.planner import DatabaseProfile, PlanEstimate, plan_search
from repro.experiments import (ExperimentRunner, scenario_s2_merger,
                               scenario_s3_random_dense)


def _coexisting_entries(s):
    """Entries alive at a random instant."""
    return s.num_entries * s.mean_entry_extent_t / s.total_time


class TestWorkloadStats:
    def test_measure(self, small_db, small_queries):
        s = DatabaseProfile.build(small_db).stats(small_queries)
        assert s.num_entries == len(small_db)
        assert s.num_queries == len(small_queries)
        assert s.volume > 0 and s.total_time > 0
        assert _coexisting_entries(s) <= s.num_entries
        assert np.all(s.mean_entry_extent_s <= s.max_entry_extent_s)

    def test_coexistence(self, small_db):
        s = DatabaseProfile.build(small_db).stats(small_db)
        # Walk segments last 1 of ~24 total time units: a small slice of
        # the database coexists at any instant.
        assert _coexisting_entries(s) < 0.2 * s.num_entries


class TestPlanSearch:
    def test_returns_ranked_estimates(self, small_db, small_queries):
        plans = plan_search(small_db, small_queries, 2.0, num_bins=40)
        assert len(plans) == 4
        assert all(isinstance(p, PlanEstimate) for p in plans)
        times = [p.est_seconds for p in plans]
        assert times == sorted(times)
        assert all(p.est_candidates_per_query >= 0 for p in plans)

    def test_candidates_monotone_in_d(self, small_db, small_queries):
        by_engine = {}
        for d in (0.5, 5.0, 20.0):
            for p in plan_search(small_db, small_queries, d,
                                 num_bins=40):
                by_engine.setdefault(p.engine, []).append(
                    p.est_candidates_per_query)
        # Temporal is d-independent; the others grow.
        t = by_engine["gpu_temporal"]
        assert t[0] == t[1] == t[2]
        for eng in ("gpu_spatial", "cpu_rtree"):
            assert by_engine[eng] == sorted(by_engine[eng])

    @pytest.mark.parametrize("scenario_fn,d,config", [
        (scenario_s2_merger, 0.01,
         dict(num_bins=1000, num_subbins=16)),
        (scenario_s2_merger, 5.0,
         dict(num_bins=1000, num_subbins=16)),
        (scenario_s3_random_dense, 0.09,
         dict(num_bins=1000, num_subbins=4)),
    ])
    def test_bounded_regret(self, scenario_fn, d, config):
        """Choosing the planner's pick never costs more than 4x the
        true best (first-order estimates; the point is avoiding the
        many-times-worse engines, which it does)."""
        runner = ExperimentRunner(scenario_fn(0.005))
        plans = plan_search(runner.database, runner.queries, d, **config)
        measured = {}
        for eng in ("gpu_temporal", "gpu_spatiotemporal", "cpu_rtree"):
            rec, _ = runner.run_one(eng, d)
            measured[eng] = rec.modeled_seconds
        best_measured = min(measured.values())
        worst_measured = max(measured.values())
        predicted_best = next(p.engine for p in plans
                              if p.engine in measured)
        assert measured[predicted_best] <= 4.0 * best_measured
        # And strictly avoids the worst engine when spreads are wide.
        if worst_measured > 3.0 * best_measured:
            assert measured[predicted_best] < worst_measured

    def test_candidate_estimates_track_measured_counts(self):
        """Sampled candidate counts land within 2x of the engines'
        actual per-query comparison counts."""
        runner = ExperimentRunner(scenario_s2_merger(0.005))
        plans = {p.engine: p for p in plan_search(
            runner.database, runner.queries, 0.1,
            num_bins=1000, num_subbins=16)}
        rec, _ = runner.run_one("gpu_temporal", 0.1)
        measured = rec.comparisons / len(runner.queries)
        est = plans["gpu_temporal"].est_candidates_per_query
        assert est == pytest.approx(measured, rel=1.0)

    def test_sparse_small_prefers_cpu_over_blind_gpu(self, small_db,
                                                     small_queries):
        """The paper's decision rule: on sparse/small data the CPU beats
        the spatially- or temporally-blind GPU schemes."""
        plans = plan_search(small_db, small_queries, 0.5, num_bins=40)
        order = [p.engine for p in plans]
        assert order.index("cpu_rtree") < order.index("gpu_temporal")


class TestRefusals:
    """Each bad argument is refused by name, before any work."""

    @pytest.mark.parametrize("d", [float("inf"), -float("inf"),
                                   float("nan"), -1e9, -0.5])
    def test_threshold(self, small_db, small_queries, d):
        with pytest.raises(ValueError,
                           match=r"planner: d must be finite and >= 0"):
            plan_search(small_db, small_queries, d)

    @pytest.mark.parametrize("value", [-3, 0, 2.5, True, "4", None])
    @pytest.mark.parametrize("name", ["num_bins", "num_subbins",
                                      "cells_per_dim", "segments_per_mbb",
                                      "sample"])
    def test_hint(self, small_db, small_queries, name, value):
        with pytest.raises(ValueError,
                           match=f"planner: {name} must be a positive int"):
            plan_search(small_db, small_queries, 1.0, **{name: value})

    def test_numpy_integers_are_ints(self, small_db, small_queries):
        plain = plan_search(small_db, small_queries, 1.0, num_bins=40,
                            sample=8)
        numpy = plan_search(small_db, small_queries, np.float64(1.0),
                            num_bins=np.int64(40), sample=np.int32(8))
        assert [(p.engine, p.est_seconds) for p in numpy] == \
            [(p.engine, p.est_seconds) for p in plain]

