"""Resilient serving: circuit breakers, lane health, deadlines,
verified failover, and retry backoff accounting."""

from __future__ import annotations

import pytest

from repro.engines.base import RetryPolicy
from repro.faults import FaultInjector, FaultSpec
from repro.service import (CircuitBreaker, LaneHealth, QueryService,
                           SearchRequest)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3)
        assert b.allow(0.0)
        assert not b.record_failure(0.0)
        assert not b.record_failure(0.0)
        assert b.record_failure(0.0)  # third strike trips it
        assert b.state == "open" and b.trips == 1
        assert not b.allow(0.0)

    def test_success_resets_the_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(0.0)
        assert b.state == "closed"

    def test_reset_window_admits_half_open_probe(self):
        b = CircuitBreaker(failure_threshold=1, reset_after_s=10.0)
        b.record_failure(5.0)
        assert not b.allow(5.0)
        assert b.allow(15.0)
        assert b.state == "half_open"
        assert b.record_success()  # the probe closed the breaker
        assert b.state == "closed"

    def test_failed_probe_reopens(self):
        b = CircuitBreaker(failure_threshold=1, reset_after_s=1.0)
        b.record_failure(0.0)
        assert b.allow(2.0)
        assert b.record_failure(2.0)  # failed probe re-opens
        assert b.state == "open" and b.trips == 2
        assert not b.allow(2.5)

    def test_interleaved_traffic_never_strands_the_breaker_open(self):
        # Regression: under a repeating failure/recovery pattern the
        # breaker must keep cycling open -> half_open -> closed; a
        # stale `skips` count or an unreset `opened_at` would
        # eventually leave it permanently open (engine stranded).
        b = CircuitBreaker(failure_threshold=2, reset_after_s=5.0,
                           probe_after_skips=100)
        now = 0.0
        for _ in range(25):
            # Trip it...
            while b.state != "open":
                b.record_failure(now)
            assert not b.allow(now + 1.0)
            # ...wait out the reset window; the probe is admitted.
            now += 6.0
            assert b.allow(now)
            assert b.state == "half_open"
            # A successful probe fully closes and resets the strike
            # count: a single later failure must not re-trip.
            assert b.record_success()
            assert b.state == "closed"
            assert not b.record_failure(now)
            b.record_success()
            assert b.state == "closed"
            now += 1.0
        # 25 full cycles, each one trip, none of them sticky.
        assert b.trips == 25
        assert b.allow(now)

    def test_skip_fallback_unwedges_a_stalled_clock(self):
        b = CircuitBreaker(failure_threshold=1, reset_after_s=1e9,
                           probe_after_skips=3)
        b.record_failure(0.0)
        # The modeled clock never advances, yet the breaker still
        # admits a probe after enough skipped requests.
        assert [b.allow(0.0) for _ in range(4)] \
            == [False, False, False, True]
        assert b.state == "half_open"

    def test_state_code_matches_the_gauge_help_text(self):
        # "0 closed / 1 half-open / 2 open": open and half-open must
        # not share a code.
        b = CircuitBreaker(failure_threshold=1, reset_after_s=10.0)
        assert b.state_code == 0
        b.record_failure(0.0)
        assert b.state_code == 2
        assert b.allow(10.0)
        assert b.state_code == 1
        b.record_success()
        assert b.state_code == 0


class TestLaneHealth:
    def test_quarantines_at_threshold(self):
        h = LaneHealth()
        assert not h.record_failure(0.0, threshold=2, quarantine_s=5.0)
        assert h.record_failure(1.0, threshold=2, quarantine_s=5.0)
        assert h.state == "quarantined" and not h.usable
        assert h.quarantined_until == 6.0

    def test_window_expiry_enters_probation(self):
        h = LaneHealth()
        h.record_failure(0.0, threshold=1, quarantine_s=5.0)
        assert not h.refresh(4.0)
        assert h.refresh(5.0)
        assert h.state == "probation" and h.usable

    def test_probation_failure_requarantines_with_doubled_window(self):
        h = LaneHealth()
        h.record_failure(0.0, threshold=1, quarantine_s=5.0)
        h.refresh(5.0)
        assert h.record_failure(10.0, threshold=3, quarantine_s=5.0)
        assert h.quarantined_until == 20.0  # 10 + 5 * 2**1
        assert h.quarantine_count == 2

    def test_probation_success_readmits(self):
        h = LaneHealth()
        h.record_failure(0.0, threshold=1, quarantine_s=5.0)
        h.refresh(5.0)
        assert h.record_success()
        assert h.state == "healthy" and h.quarantine_count == 0


@pytest.fixture()
def gpu_request(small_queries):
    return SearchRequest(queries=small_queries, d=2.5,
                         method="gpu_temporal", request_id="r0")


class TestTypedRejections:
    def test_deadline_exceeded_is_a_typed_response(self, small_db,
                                                   gpu_request):
        svc = QueryService(small_db)
        gpu_request.deadline_s = 1e-12
        resp = svc.submit(gpu_request)
        assert not resp.ok
        assert resp.status == "deadline_exceeded"
        assert resp.outcome is None
        assert "budget" in resp.reason or "deadline" in resp.reason
        reg = svc.telemetry.metrics
        assert reg.counter("repro_rejections_total").total() == 1
        # Rejections round-trip through the JSON surface too.
        assert resp.to_dict()["outcome"] is None


class TestFailover:
    def test_midbatch_engine_failure_still_answers_complete(
            self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        # The first kernel launch succeeds; every later one aborts, so
        # the failure lands mid-batch, after request r0 already ran.
        inj = FaultInjector(
            [FaultSpec(kind="kernel_abort", after=1)], seed=0)
        svc = QueryService(db, faults=inj)
        r0, r1 = svc.submit_batch([
            SearchRequest(queries=queries, d=d, method="gpu_temporal",
                          request_id=f"r{i}") for i in range(2)])
        assert r0.ok and not r0.metrics.degraded
        assert r1.ok and r1.metrics.degraded
        assert r1.metrics.failovers == 3  # 2 GPU rungs, then cpu_rtree
        assert r1.metrics.engine == "cpu_rtree"
        assert "KernelAbortError" in r1.metrics.degradation_reason
        # Degraded means slower, never incomplete or wrong.
        assert r1.outcome.results.equivalent_to(truth)

    def test_failed_builds_are_never_usable_cache_entries(
            self, small_db, gpu_request):
        inj = FaultInjector([FaultSpec(kind="oom")], seed=0)
        svc = QueryService(small_db, faults=inj)
        resp = svc.submit(gpu_request)
        assert resp.ok and resp.metrics.degraded
        assert resp.metrics.engine == "cpu_rtree"
        stats = svc.cache.stats
        assert stats.failed_builds == 3  # every GPU rung's build OOMed
        assert len(svc.cache) == 1      # only cpu_rtree was cached
        # The next request must rebuild/fail over again, not "hit" a
        # phantom GPU entry.
        gpu_request.request_id = "r1"
        resp2 = svc.submit(gpu_request)
        assert resp2.ok and resp2.metrics.engine == "cpu_rtree"
        assert len(svc.cache) == 1

    def test_no_lane_available_carries_no_breaker_penalty(
            self, small_db, gpu_request):
        inj = FaultInjector([FaultSpec(kind="oom")], seed=0)
        svc = QueryService(small_db, faults=inj,
                           lane_failure_threshold=1,
                           lane_quarantine_s=1e9)
        svc.submit(gpu_request)  # quarantines the only lane
        assert svc.stats()["lane_health"]["0"]["state"] == "quarantined"
        gpu_request.request_id = "r1"
        resp = svc.submit(gpu_request)  # GPU rungs raise NoUsableLane
        assert resp.ok and resp.metrics.engine == "cpu_rtree"
        # Skipping for lack of a lane is not the engine's fault: the
        # gpu_temporal breaker holds at one strike from the OOM build.
        breaker = svc.stats()["breakers"]["gpu_temporal"]
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 1

    def test_breaker_opens_then_skips_the_rung(self, small_db,
                                               gpu_request):
        inj = FaultInjector([FaultSpec(kind="kernel_abort")], seed=0)
        svc = QueryService(small_db, faults=inj, breaker_threshold=1,
                           breaker_reset_s=1e9, lane_quarantine_s=1e9)
        svc.submit(gpu_request)
        assert svc.stats()["breakers"]["gpu_temporal"]["state"] == "open"
        reg = svc.telemetry.metrics
        gauge = reg.gauge("repro_breaker_state")
        assert gauge.value(engine="gpu_temporal") == 2  # open
        gpu_request.request_id = "r1"
        resp = svc.submit(gpu_request)
        assert resp.ok and resp.metrics.degraded
        assert "circuit breaker open" in resp.metrics.degradation_reason
        assert reg.counter("repro_breaker_skips_total").total() > 0

    def test_breaker_probe_recloses_after_recovery(self, small_db,
                                                   gpu_request):
        # One abort, then the engine is healthy again.
        inj = FaultInjector(
            [FaultSpec(kind="kernel_abort", count=1)], seed=0)
        svc = QueryService(small_db, faults=inj, breaker_threshold=1,
                           breaker_reset_s=1e-12)
        assert svc.submit(gpu_request).metrics.degraded
        assert svc.stats()["breakers"]["gpu_temporal"]["state"] == "open"
        gpu_request.request_id = "r1"
        resp = svc.submit(gpu_request)  # half-open probe succeeds
        assert resp.ok and not resp.metrics.degraded
        assert resp.metrics.engine == "gpu_temporal"
        assert svc.stats()["breakers"]["gpu_temporal"]["state"] \
            == "closed"


class TestLaneLifecycle:
    def test_quarantine_invalidates_cached_engines_then_readmits(
            self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        req = SearchRequest(queries=queries, d=d,
                            method="gpu_temporal", request_id="r0")
        # Count the device operations of one clean request so the
        # blackout can be planted on its very last one — after the
        # build succeeded and the engine was cached.
        probe = FaultInjector([], seed=0)
        QueryService(db, faults=probe).submit(req)
        inj = FaultInjector(
            [FaultSpec(kind="lane_blackout",
                       after=probe.total_ops - 1, count=1)], seed=0)
        svc = QueryService(db, faults=inj, lane_failure_threshold=1,
                           lane_quarantine_s=1e-12)
        resp = svc.submit(req)
        assert resp.ok and resp.metrics.degraded
        assert resp.outcome.results.equivalent_to(truth)
        stats = svc.stats()
        assert stats["lane_health"]["0"]["state"] == "quarantined"
        assert svc.cache.stats.invalidations == 1
        assert len(svc.telemetry.events.of_kind("lane_quarantined")) == 1

        # Operator swaps the card; the quarantine window has lapsed on
        # the modeled clock, so the lane re-enters on probation and one
        # clean request readmits it.
        inj.revive(0)
        req.request_id = "r1"
        resp2 = svc.submit(req)
        assert resp2.ok and not resp2.metrics.degraded
        assert resp2.metrics.engine == "gpu_temporal"
        health = svc.stats()["lane_health"]["0"]
        assert health["state"] == "healthy"
        assert health["quarantine_count"] == 0
        assert len(svc.telemetry.events.of_kind("lane_readmitted")) == 1


class TestRetryBackoff:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_s=0.01, jitter=0.5)
        assert policy.backoff_for(1) == policy.backoff_for(1)
        assert policy.backoff_for(2) > policy.backoff_for(1)
        assert policy.backoff_for(3) > policy.backoff_for(2)
        assert RetryPolicy(backoff_s=0.0).backoff_for(5) == 0.0

    def test_attempts_and_backoff_surface_in_request_metrics(
            self, small_db, small_queries):
        svc = QueryService(
            small_db, retry=RetryPolicy(max_attempts=4, backoff_s=1e-3))
        resp = svc.submit(SearchRequest(
            queries=small_queries, d=2.5, method="gpu_temporal",
            params={"result_buffer_items": 1}, request_id="tiny"))
        assert resp.ok
        assert resp.metrics.attempts >= 2
        assert resp.metrics.backoff_s > 0.0
        # The modeled wait is charged to the response, not slept.
        assert resp.metrics.modeled_seconds >= resp.metrics.backoff_s


class TestCrosscheck:
    def test_sampled_failover_responses_match_ground_truth(
            self, small_db, small_queries):
        inj = FaultInjector([FaultSpec(kind="kernel_abort")], seed=0)
        svc = QueryService(small_db, faults=inj, crosscheck_every=1)
        for i in range(3):
            resp = svc.submit(SearchRequest(
                queries=small_queries, d=2.5, method="gpu_temporal",
                request_id=f"r{i}"))
            assert resp.ok and resp.metrics.degraded
        stats = svc.stats()
        assert stats["failover_serves"] == 3
        assert stats["crosschecks"] == 3
        assert stats["crosscheck_mismatches"] == []
        reg = svc.telemetry.metrics
        assert reg.counter(
            "repro_crosschecks_total").total() == 3

    def test_crosscheck_sampling_rate(self, small_db, small_queries):
        inj = FaultInjector([FaultSpec(kind="kernel_abort")], seed=0)
        svc = QueryService(small_db, faults=inj, crosscheck_every=2)
        for i in range(4):
            svc.submit(SearchRequest(
                queries=small_queries, d=2.5, method="gpu_temporal",
                request_id=f"r{i}"))
        assert svc.stats()["crosschecks"] == 2
