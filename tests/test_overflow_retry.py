"""Bounded-retry policy around the incremental overflow loop.

The safety-valve redesign: a result buffer smaller than a single query's
output is a clear, immediate error when retry is disabled, and a
self-healing condition under the default policy (the engine grows the
buffer and retries instead of burning kernel invocations)."""

import numpy as np
import pytest

from repro.engines import (GpuSpatialEngine, GpuSpatioTemporalEngine,
                           GpuTemporalEngine, NO_RETRY, RetryPolicy)
from repro.engines import base
from repro.engines.base import (KernelInvocationLimitError,
                                ResultBufferOverflowError)

RETRYABLE_FACTORIES = {
    "gpu_temporal": lambda db, **kw: GpuTemporalEngine(
        db, num_bins=40, **kw),
    "gpu_spatiotemporal": lambda db, **kw: GpuSpatioTemporalEngine(
        db, num_bins=40, num_subbins=2, strict_subbins=False, **kw),
    "gpu_spatial": lambda db, **kw: GpuSpatialEngine(
        db, cells_per_dim=8, **kw),
}


@pytest.fixture(params=sorted(RETRYABLE_FACTORIES))
def factory(request):
    return RETRYABLE_FACTORIES[request.param]


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


class TestWithoutRetry:
    def test_impossible_buffer_is_clear_error(self, factory,
                                              db_queries_truth):
        """Buffer smaller than one query's output, retry disabled:
        the engine reports the configuration error immediately."""
        db, queries, d, truth = db_queries_truth
        if np.bincount(truth.q_ids).max() < 2:
            pytest.skip("no query with >1 result in this dataset")
        engine = factory(db, result_buffer_items=1, retry=NO_RETRY)
        with pytest.raises((ResultBufferOverflowError,
                            KernelInvocationLimitError),
                           match="result buffer") as exc:
            engine.search(queries, d)
        # The error carries the capacity that would unblock the search.
        assert exc.value.required_items > 1


class TestWithRetry:
    def test_default_policy_grows_and_succeeds(self, factory,
                                               db_queries_truth):
        """Same impossible buffer, default policy: the engine grows the
        buffer and completes exactly."""
        db, queries, d, truth = db_queries_truth
        if np.bincount(truth.q_ids).max() < 2:
            pytest.skip("no query with >1 result in this dataset")
        engine = factory(db, result_buffer_items=1)
        res, prof = engine.search(queries, d)
        assert res.equivalent_to(truth)
        assert engine.result_buffer.capacity_items > 1
        # The grown device allocation matches the host-side buffer.
        grown = engine.gpu.memory.allocations()["result_buffer"]
        assert grown == engine.result_buffer.capacity_items * 4 * 8

    def test_generous_growth_needs_few_invocations(self, db_queries_truth,
                                                   monkeypatch):
        """A growth factor sized to the workload turns the sliver-buffer
        pathology into a near-single-invocation search."""
        db, queries, d, truth = db_queries_truth
        if np.bincount(truth.q_ids).max() < 2:
            pytest.skip("no query with >1 result in this dataset")
        monkeypatch.setattr(base, "RETRY_GROWTH_FACTOR", 4.0 * len(truth))
        engine = GpuTemporalEngine(db, num_bins=40, result_buffer_items=1)
        res, prof = engine.search(queries, d)
        assert res.equivalent_to(truth)
        # One failed sliver attempt, then a buffer that holds everything.
        assert prof.num_kernel_invocations <= 2

    def test_growth_respects_required_items(self, db_queries_truth,
                                            monkeypatch):
        """When a query needs more than growth factor x capacity, the
        buffer jumps straight to the required size."""
        db, queries, d, truth = db_queries_truth
        worst = int(np.bincount(truth.q_ids).max())
        if worst < 3:
            pytest.skip("needs a query with >=3 results")
        monkeypatch.setattr(base, "RETRY_GROWTH_FACTOR", 1.5)
        engine = GpuTemporalEngine(
            db, num_bins=40, result_buffer_items=1,
            retry=RetryPolicy(max_attempts=2))
        res, _ = engine.search(queries, d)
        assert res.equivalent_to(truth)
        assert engine.result_buffer.capacity_items >= worst

    def test_deadline_exhaustion_reraises(self, db_queries_truth,
                                          monkeypatch):
        """A deadline in the past disables growth after the first
        failure."""
        db, queries, d, truth = db_queries_truth
        if np.bincount(truth.q_ids).max() < 2:
            pytest.skip("no query with >1 result in this dataset")
        monkeypatch.setattr(base, "RETRY_DEADLINE_S", 1e-12)
        engine = GpuTemporalEngine(
            db, num_bins=40, result_buffer_items=1,
            retry=RetryPolicy(max_attempts=10))
        with pytest.raises((ResultBufferOverflowError,
                            KernelInvocationLimitError)):
            engine.search(queries, d)

    def test_results_identical_to_unconstrained(self, factory,
                                                db_queries_truth):
        """Retry is invisible in the results: grown-buffer output equals
        a comfortably-sized engine's output."""
        db, queries, d, truth = db_queries_truth
        roomy = factory(db, result_buffer_items=100_000)
        tight = factory(db, result_buffer_items=1)
        r1, _ = roomy.search(queries, d)
        r2, _ = tight.search(queries, d)
        assert r1.equivalent_to(r2)
        assert r1.equivalent_to(truth)
