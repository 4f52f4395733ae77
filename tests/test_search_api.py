"""Tests for the DistanceThresholdSearch facade."""

import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.search import DistanceThresholdSearch, SearchOutcome
from repro.engines import available


class TestFacade:
    def test_unknown_method(self, small_db):
        with pytest.raises(ValueError, match="unknown method"):
            DistanceThresholdSearch(small_db, method="quantum")

    @pytest.mark.parametrize("method", available())
    def test_all_methods_exact(self, method, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        params = {}
        if method == "gpu_temporal":
            params = {"num_bins": 40}
        elif method == "gpu_spatiotemporal":
            params = {"num_bins": 40, "num_subbins": 2,
                      "strict_subbins": False}
        elif method == "gpu_spatial":
            params = {"cells_per_dim": 8}
        search = DistanceThresholdSearch(db, method=method, **params)
        outcome = search.run(queries, d)
        assert isinstance(outcome, SearchOutcome)
        assert outcome.results.equivalent_to(truth)
        assert outcome.modeled_seconds > 0
        assert outcome.modeled.total == outcome.modeled_seconds

    def test_engine_reused_across_runs(self, small_db, small_queries):
        search = DistanceThresholdSearch(small_db, method="gpu_temporal",
                                         num_bins=40)
        first_engine = search.engine
        search.run(small_queries, 1.0)
        search.run(small_queries, 2.0)
        assert search.engine is first_engine

    def test_default_method_is_spatiotemporal(self, small_db):
        search = DistanceThresholdSearch(small_db, num_bins=8,
                                         num_subbins=2,
                                         strict_subbins=False)
        assert search.method == "gpu_spatiotemporal"

    def test_exclude_same_trajectory_passthrough(self, small_db):
        search = DistanceThresholdSearch(small_db, method="cpu_rtree")
        with_self = search.run(small_db, 0.5)
        without = search.run(small_db, 0.5, exclude_same_trajectory=True)
        assert len(without.results) < len(with_self.results)
        truth = brute_force_search(small_db, small_db, 0.5,
                                   exclude_same_trajectory=True)
        assert without.results.equivalent_to(truth)

    def test_cpu_method_uses_cpu_model(self, small_db, small_queries,
                                       monkeypatch):
        """A CPU engine's search is priced on the host model alone."""
        from repro.gpu import costmodel
        search = DistanceThresholdSearch(small_db, method="cpu_rtree")

        def seconds():
            return search.run(small_queries, 1.0).modeled_seconds

        base = seconds()
        monkeypatch.setattr(costmodel, "GPU_MODEL", costmodel.GpuCostModel(
            cycles_per_comparison=1e6))
        assert seconds() == base
        monkeypatch.setattr(costmodel, "CPU_MODEL", costmodel.CpuCostModel(
            cycles_per_comparison=1e6))
        assert seconds() > base
