"""Tests for scenarios, the experiment harness and reporting.

These run at a tiny scale (0.004-0.008) so the whole file stays fast while
still executing the real figure pipelines end to end.
"""

import numpy as np
import pytest

from repro.engines import ConfigError
from repro.experiments import (ExperimentRunner, RunRecord,
                               records_to_series, scenario_s1_random,
                               scenario_s2_merger, scenario_s3_random_dense,
                               series_table)

TINY = 0.004


@pytest.fixture(scope="module")
def s1_runner():
    return ExperimentRunner(scenario_s1_random(TINY))


class TestScenarios:
    def test_env_scale(self, monkeypatch):
        from repro.experiments.scenarios import default_scale
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            default_scale()

    def test_s1_sizes(self):
        s = scenario_s1_random(0.01)
        db = s.make_database()
        q = s.make_queries(db)
        assert db.num_trajectories == 25
        # Fresh queries: ids disjoint from the database's.
        assert not set(np.unique(q.traj_ids)) \
            & set(np.unique(db.traj_ids))

    def test_s2_s3_query_subsets(self):
        for scen in (scenario_s2_merger(0.004),
                     scenario_s3_random_dense(0.004)):
            db = scen.make_database()
            q = scen.make_queries(db)
            assert set(np.unique(q.traj_ids)) \
                <= set(np.unique(db.traj_ids))

    def test_d_values_match_paper(self):
        assert scenario_s1_random(TINY).d_values[0] == 5.0
        assert scenario_s1_random(TINY).d_values[-1] == 50.0
        assert scenario_s2_merger(TINY).d_values[0] == 0.001
        assert scenario_s3_random_dense(TINY).d_values[-1] == 0.09


class TestRunner:
    def test_run_one_produces_record(self, s1_runner):
        rec, results = s1_runner.run_one("gpu_temporal", 10.0)
        assert isinstance(rec, RunRecord)
        assert rec.engine == "gpu_temporal"
        assert rec.modeled_seconds > 0
        assert rec.result_items == len(results)
        assert rec.comparisons > 0

    def test_engine_cache(self, s1_runner):
        a = s1_runner.engine("gpu_temporal")
        b = s1_runner.engine("gpu_temporal")
        assert a is b
        c = s1_runner.engine("gpu_temporal", num_bins=17)
        assert c is not a

    def test_engine_cache_keys_on_the_validated_config(self, s1_runner):
        """A NumPy spelling of the scenario's value is the same
        configuration, so the same engine."""
        bins = s1_runner.scenario.engine_configs["gpu_temporal"]["num_bins"]
        assert s1_runner.engine("gpu_temporal", num_bins=np.int64(bins)) \
            is s1_runner.engine("gpu_temporal")

    def test_misspelled_override_is_a_config_error(self, s1_runner):
        with pytest.raises(ConfigError, match="did you mean 'num_bins'"):
            s1_runner.engine("gpu_temporal", num_bin=5)

    def test_invalid_override_is_a_config_error(self, s1_runner):
        with pytest.raises(ConfigError, match="candidate_buffer_items"):
            s1_runner.engine("gpu_spatial", candidate_buffer_items=0)

    def test_sweep_covers_grid(self, s1_runner):
        recs = s1_runner.sweep(["cpu_rtree", "gpu_temporal"],
                               d_values=(5.0, 25.0))
        assert len(recs) == 4
        assert {(r.engine, r.d) for r in recs} == {
            ("cpu_rtree", 5.0), ("cpu_rtree", 25.0),
            ("gpu_temporal", 5.0), ("gpu_temporal", 25.0)}

    def test_optimistic_never_exceeds_modeled(self, s1_runner):
        recs = s1_runner.sweep(["gpu_spatial"], d_values=(5.0, 40.0))
        for r in recs:
            assert r.optimistic_seconds <= r.modeled_seconds + 1e-12

    def test_engines_exact_inside_harness(self, s1_runner):
        """The harness path produces the same results as brute force."""
        from repro.core.bruteforce import brute_force_search
        _, res = s1_runner.run_one("gpu_spatiotemporal", 15.0)
        truth = brute_force_search(s1_runner.queries,
                                   s1_runner.database, 15.0)
        assert res.equivalent_to(truth)



class TestReport:
    @pytest.fixture()
    def records(self, s1_runner):
        return s1_runner.sweep(["cpu_rtree", "gpu_temporal"],
                               d_values=(5.0, 25.0))

    def test_records_to_series(self, records):
        d, series = records_to_series(records)
        assert d == [5.0, 25.0]
        assert set(series) == {"cpu_rtree", "gpu_temporal"}
        assert all(len(v) == 2 for v in series.values())

    def test_series_table_renders(self, records):
        d, series = records_to_series(records)
        text = series_table("My title", d, series)
        assert "My title" in text
        assert "cpu_rtree" in text and "gpu_temporal" in text

    def test_missing_point_rendered_as_dash(self):
        text = series_table("t", [1.0, 2.0],
                            {"e": [1.0, float("nan")]})
        assert "-" in text.splitlines()[-1]
