"""The batched query service: caching, auto selection, degradation,
pool scheduling, sharding, serialization."""

import json
import warnings

import numpy as np
import pytest

from repro.engines.config import ConfigError
from repro.gpu.device import DeviceSpec
from repro.service import (EngineCache, QueryService, SearchRequest,
                           SearchResponse, canonical_params,
                           database_fingerprint)
from tests.conftest import BAD_PLANNER_HINTS


@pytest.fixture
def service(small_db):
    return QueryService(small_db, num_devices=2)


def _request(queries, d=2.5, **kw):
    return SearchRequest(queries=queries, d=d, **kw)


class TestRequestValidation:
    def test_empty_queries_rejected(self, small_db):
        from repro.core.types import SegmentArray
        with pytest.raises(ValueError):
            SearchRequest(queries=SegmentArray.empty(), d=1.0)

    def test_negative_d_rejected(self, small_queries):
        with pytest.raises(ValueError):
            SearchRequest(queries=small_queries, d=-1.0)

    def test_zero_shards_rejected(self, small_queries):
        payload = _request(small_queries).to_dict()
        with pytest.raises(ValueError, match="ShardedService"):
            SearchRequest.from_dict({**payload, "shards": 0})

    def test_from_dict_accepts_only_one_shard(self, small_queries):
        """Per-request partitioning is gone: ``"shards": 1`` (which
        pre-removal ``to_dict`` output carries) still loads, anything
        else is refused by name."""
        payload = _request(small_queries).to_dict()
        assert "shards" not in payload
        old = {**payload, "shards": 1,
               "partition_strategy": "round_robin"}
        assert SearchRequest.from_dict(old).to_dict() == payload
        for bad in (2, 200, "2", None):
            with pytest.raises(ValueError, match="ShardedService"):
                SearchRequest.from_dict({**payload, "shards": bad})

    def test_unknown_method_rejected(self, service, small_queries):
        with pytest.raises(ValueError, match="unknown method"):
            service.submit(_request(small_queries, method="warp_drive"))

    def test_bad_params_raise_config_error(self, service, small_queries):
        """Misspelled parameters are a caller error, not a degradation."""
        with pytest.raises(ConfigError, match="did you mean"):
            service.submit(_request(small_queries, method="gpu_temporal",
                                    params={"num_bin": 40}))
        assert not service.telemetry.events.of_kind("degradation")

    @pytest.mark.parametrize("hints", BAD_PLANNER_HINTS)
    def test_bad_planner_hints_raise_config_error(self, service,
                                                  small_queries, hints):
        """With ``method="auto"`` the same values used to be served by
        ``cpu_scan`` as a degradation (or ranked from NaNs)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="positive integer"):
                service.submit(_request(small_queries, method="auto",
                                        params=hints))
        assert not service.telemetry.events.of_kind("degradation")
        assert service.stats()["degradations"] == 0

    def test_planner_failure_still_degrades(self, service, small_queries):
        """Not a caller error: the planner cannot window d = inf."""
        resp = service.submit(_request(small_queries, d=float("inf"),
                                       method="auto"))
        assert resp.ok and resp.metrics.degraded
        assert resp.metrics.engine == QueryService.FALLBACK_METHOD


class TestCorrectness:
    @pytest.mark.parametrize("method", ["auto", "gpu_temporal",
                                        "gpu_spatiotemporal",
                                        "gpu_spatial", "cpu_rtree",
                                        "cpu_scan"])
    def test_matches_brute_force(self, service, db_queries_truth, method):
        db, queries, d, truth = db_queries_truth
        resp = service.submit(_request(queries, d, method=method))
        assert resp.outcome.results.equivalent_to(truth), method
        assert resp.metrics.engine in ("cpu_scan", "cpu_rtree",
                                       "gpu_temporal", "gpu_spatial",
                                       "gpu_spatiotemporal")
        assert resp.metrics.modeled_seconds > 0


class TestCaching:
    def test_repeat_hits_cache(self, service, small_queries):
        r1 = service.submit(_request(small_queries,
                                     method="gpu_temporal",
                                     params={"num_bins": 40}))
        r2 = service.submit(_request(small_queries,
                                     method="gpu_temporal",
                                     params={"num_bins": 40}))
        assert not r1.metrics.cache_hit and r2.metrics.cache_hit
        assert r1.metrics.engine_build_s > 0
        assert r2.metrics.engine_build_s == 0
        assert service.cache.stats.hits == 1
        assert service.cache.stats.misses == 1
        assert service.cache.stats.hit_ratio == pytest.approx(0.5)
        assert service.stats()["cache"]["hit_ratio"] \
            == pytest.approx(0.5)

    def test_default_filling_makes_keys_stable(self, service,
                                               small_queries):
        """Explicit defaults and omitted defaults share one cache
        entry."""
        service.submit(_request(small_queries, method="cpu_rtree"))
        r2 = service.submit(_request(small_queries, method="cpu_rtree",
                                     params={"segments_per_mbb": 4}))
        assert r2.metrics.cache_hit

    def test_different_params_are_distinct_entries(self, service,
                                                   small_queries):
        service.submit(_request(small_queries, method="gpu_temporal",
                                params={"num_bins": 40}))
        r2 = service.submit(_request(small_queries, method="gpu_temporal",
                                     params={"num_bins": 80}))
        assert not r2.metrics.cache_hit
        assert len(service.cache) == 2

    def test_lru_eviction_under_byte_budget(self, small_db,
                                            small_queries):
        svc = QueryService(small_db, num_devices=1)
        one = svc.submit(_request(small_queries, method="gpu_temporal",
                                  params={"num_bins": 40}))
        entry_bytes = svc.cache.entries()[0].nbytes
        # Budget fits exactly one engine of this size.
        svc2 = QueryService(small_db, num_devices=1,
                            cache_bytes=int(entry_bytes * 1.5))
        svc2.submit(_request(small_queries, method="gpu_temporal",
                             params={"num_bins": 40}))
        svc2.submit(_request(small_queries, method="gpu_temporal",
                             params={"num_bins": 80}))
        assert svc2.cache.stats.evictions == 1
        assert len(svc2.cache) == 1
        # The evicted engine's bytes were released from its lane.
        lane_bytes = sum(l.resident_bytes for l in svc2.pool.lanes)
        assert lane_bytes == svc2.cache.resident_bytes
        assert svc2.telemetry.events.of_kind("eviction")
        assert one.outcome.results is not None

    def test_hit_ratio_defined_before_first_lookup(self):
        cache = EngineCache(budget_bytes=10)
        assert cache.stats.hit_ratio == 0.0
        assert cache.stats.to_dict()["hit_ratio"] == 0.0

    def test_oversized_engine_rejected_by_cache(self):
        cache = EngineCache(budget_bytes=10)
        from repro.service.cache import CacheEntry
        with pytest.raises(ValueError):
            cache.put(CacheEntry(key=("k",), engine=None, gpu=None,
                                 lane=0, nbytes=100, build_wall_s=0.0))

    def test_fingerprint_tracks_content(self, small_db, small_queries):
        assert (database_fingerprint(small_db)
                == database_fingerprint(small_db))
        assert (database_fingerprint(small_db)
                != database_fingerprint(small_queries))

    def test_canonical_params_order_independent(self):
        assert canonical_params({"a": 1, "b": [2, 3]}) \
            == canonical_params({"b": (2, 3), "a": 1})

    def test_canonical_params_numpy_scalars_collapse(self):
        """np.int64(40) and 40 must produce the same key, or a config
        that round-trips through NumPy silently rebuilds the engine."""
        assert canonical_params({"num_bins": np.int64(40),
                                 "d": np.float64(2.5)}) \
            == canonical_params({"num_bins": 40, "d": 2.5})
        key = canonical_params({"num_bins": np.int64(40)})
        assert all(type(v) is not np.int64 for _, v in key)

    def test_canonical_params_nested_dicts_canonicalize(self):
        """Nested dicts flatten to sorted item tuples — logically equal
        nests hash and compare equal regardless of insertion order."""
        a = canonical_params(
            {"opts": {"x": 1, "y": np.int32(2)}, "m": "t"})
        b = canonical_params(
            {"m": "t", "opts": {"y": 2, "x": np.int64(1)}})
        assert a == b
        assert hash(a) == hash(b)
        assert canonical_params({"opts": {"x": 1}}) \
            != canonical_params({"opts": {"x": 2}})

    def test_canonical_params_same_cache_entry(self, small_db,
                                               small_queries):
        """The end-to-end consequence: requests whose params differ
        only in NumPy-ness hit one cache entry."""
        svc = QueryService(small_db)
        r1 = svc.submit(_request(small_queries, method="gpu_temporal",
                                 params={"num_bins": 16}))
        r2 = svc.submit(_request(small_queries, method="gpu_temporal",
                                 params={"num_bins": np.int64(16)}))
        assert not r1.metrics.cache_hit
        assert r2.metrics.cache_hit
        assert len(svc.cache) == 1


class TestAutoSelection:
    def test_auto_picks_planner_winner(self, service, db_queries_truth):
        from repro.core.planner import plan_search
        db, queries, d, truth = db_queries_truth
        plans = plan_search(db, queries, d,
                            sample=service.PLANNER_SAMPLE,
                            gpu_model=service.gpu_model,
                            cpu_model=service.cpu_model)
        resp = service.submit(_request(queries, d, method="auto"))
        assert resp.metrics.engine == plans[0].engine
        assert not resp.metrics.degraded

    def test_auto_applies_hint_params(self, service, small_queries):
        resp = service.submit(_request(
            small_queries, method="auto",
            params={"num_bins": 13, "segments_per_mbb": 3,
                    "cells_per_dim": 9}))
        # Whatever engine won, the matching hint must appear in its
        # cache key (which is built from the filled config).
        entry = service.cache.entries()[-1]
        key_params = dict(entry.key[2])
        hints = {"num_bins": 13, "segments_per_mbb": 3,
                 "cells_per_dim": 9}
        overlap = {k: v for k, v in hints.items() if k in key_params}
        assert overlap  # the winner understands at least one hint
        for k, v in overlap.items():
            assert key_params[k] == v


class TestDegradation:
    def test_index_too_big_fails_over_down_the_ladder(self,
                                                      db_queries_truth):
        """Build OOM walks the failover ladder: the other GPU engines
        also OOM on the tiny device, so the first CPU rung serves."""
        db, queries, d, truth = db_queries_truth
        tiny = DeviceSpec(name="tiny", num_cores=64, num_sms=2,
                          warp_size=32, clock_hz=1e9,
                          global_mem_bytes=2048,
                          pcie_bandwidth=6e9, pcie_latency_s=1e-5,
                          kernel_launch_s=1e-5)
        svc = QueryService(db, num_devices=1, spec=tiny)
        resp = svc.submit(_request(queries, d, method="gpu_temporal",
                                   params={"num_bins": 40},
                                   request_id="r1"))
        assert resp.metrics.degraded
        assert resp.metrics.engine == "cpu_rtree"
        assert resp.metrics.failovers == 3
        assert "DeviceOutOfMemoryError" in resp.metrics.degradation_reason
        assert resp.outcome.results.equivalent_to(truth)
        [event] = svc.telemetry.events.of_kind("degradation")
        assert event.fields["request_id"] == "r1"
        assert event.fields["fallback"] == "cpu_rtree"
        assert svc.stats()["degradations"] == 1
        assert svc.cache.stats.failed_builds == 3

    def test_degraded_engine_cached_for_next_batch(self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        tiny = DeviceSpec(name="tiny", num_cores=64, num_sms=2,
                          warp_size=32, clock_hz=1e9,
                          global_mem_bytes=2048,
                          pcie_bandwidth=6e9, pcie_latency_s=1e-5,
                          kernel_launch_s=1e-5)
        svc = QueryService(db, num_devices=1, spec=tiny)
        svc.submit(_request(queries, d))
        r2 = svc.submit(_request(queries, d))
        assert r2.metrics.cache_hit  # the cpu_scan fallback is cached


class TestScheduling:
    def test_same_engine_contends_same_lane(self, service,
                                            small_queries):
        """Two batches in one submission against one cached engine
        serialize on its lane: the second waits."""
        reqs = [_request(small_queries, method="gpu_temporal",
                         params={"num_bins": 40}, request_id=f"r{i}")
                for i in range(3)]
        # Warm the cache so all three contend for one resident engine.
        service.submit(reqs[0])
        responses = service.submit_batch(reqs[1:])
        waits = [r.metrics.queue_wait_s for r in responses]
        assert waits[0] == 0.0
        assert waits[1] > 0.0
        assert waits[1] == pytest.approx(
            responses[0].metrics.modeled_seconds)

    def test_different_engines_overlap_on_pool(self, service,
                                               small_queries):
        """Engines homed on different lanes do not queue behind each
        other."""
        a = _request(small_queries, method="gpu_temporal",
                     params={"num_bins": 40})
        b = _request(small_queries, method="gpu_spatial",
                     params={"cells_per_dim": 8})
        service.submit(a)
        service.submit(b)
        lanes = {e.lane for e in service.cache.entries()}
        assert lanes == {0, 1}
        responses = service.submit_batch([
            _request(small_queries, method="gpu_temporal",
                     params={"num_bins": 40}),
            _request(small_queries, method="gpu_spatial",
                     params={"cells_per_dim": 8})])
        assert all(r.metrics.queue_wait_s == 0.0 for r in responses)

    def test_clock_advances_monotonically(self, service, small_queries):
        t0 = service.stats()["clock_s"]
        service.submit(_request(small_queries))
        t1 = service.stats()["clock_s"]
        service.submit(_request(small_queries))
        t2 = service.stats()["clock_s"]
        assert t0 <= t1 <= t2
        assert t2 > 0

    def test_build_time_not_charged_to_modeled_clock(self, service,
                                                     small_queries):
        """The index build is offline (§V-B): wall seconds of the build
        appear in metrics, never in the modeled clock."""
        resp = service.submit(_request(small_queries,
                                       method="gpu_temporal",
                                       params={"num_bins": 40}))
        assert resp.metrics.engine_build_s > 0
        assert service.stats()["clock_s"] == pytest.approx(
            resp.metrics.queue_wait_s + resp.metrics.modeled_seconds)


class TestSerialization:
    def test_request_round_trip(self, small_queries):
        req = _request(small_queries, d=1.5, method="gpu_temporal",
                       params={"num_bins": 40}, request_id="rt-1")
        back = SearchRequest.from_dict(json.loads(json.dumps(
            req.to_dict())))
        assert back.queries == small_queries
        assert back.d == 1.5 and back.method == "gpu_temporal"
        assert back.params == {"num_bins": 40}
        assert back.request_id == "rt-1"

    @pytest.mark.parametrize("method", ["gpu_spatiotemporal", "cpu_rtree"])
    def test_response_round_trip(self, service, db_queries_truth, method):
        """GPU and CPU profiles both survive the JSON round-trip via the
        'kind' discriminator."""
        db, queries, d, truth = db_queries_truth
        resp = service.submit(_request(queries, d, method=method))
        back = SearchResponse.from_dict(json.loads(json.dumps(
            resp.to_dict())))
        assert back.request_id == resp.request_id
        assert back.outcome.results.equivalent_to(resp.outcome.results)
        assert back.metrics.to_dict() == resp.metrics.to_dict()
        assert back.outcome.modeled_seconds == pytest.approx(
            resp.outcome.modeled_seconds)
        assert type(back.outcome.profile) is type(resp.outcome.profile)

    def test_outcome_kernel_stats_survive(self, service,
                                          db_queries_truth):
        db, queries, d, _ = db_queries_truth
        resp = service.submit(_request(queries, d, method="gpu_temporal",
                                       params={"num_bins": 40}))
        back = SearchResponse.from_dict(json.loads(json.dumps(
            resp.to_dict())))
        prof, orig = back.outcome.profile, resp.outcome.profile
        assert prof.num_kernel_invocations == orig.num_kernel_invocations
        assert prof.total_comparisons == orig.total_comparisons
        assert prof.kernel_stats[0].thread_work.dtype == np.int64


class TestIdempotentMutations:
    def _fresh(self, seed, offset=4000):
        from repro.core.types import Trajectory
        from tests.conftest import make_walk_trajectories
        from repro.core.types import SegmentArray
        trajs = [Trajectory(t.traj_id + offset, t.times, t.positions)
                 for t in make_walk_trajectories(1, 5, seed=seed)]
        return SegmentArray.from_trajectories(trajs)

    def test_keyed_ingest_applies_exactly_once(self, small_db):
        svc = QueryService(small_db, num_devices=1)
        fresh = self._fresh(21)
        first = svc.ingest(fresh, idempotency_key="put-1")
        assert not first.deduplicated
        again = svc.ingest(fresh, idempotency_key="put-1")
        assert again.deduplicated
        assert again.epoch == first.epoch
        assert again.seg_ids == first.seg_ids
        assert svc.versioned.epoch == first.epoch  # nothing re-applied
        assert svc.telemetry.metrics.counter(
            "repro_idempotent_dedups_total").value(op="append") == 1
        svc.shutdown()

    def test_keyed_delete_replays_the_receipt(self, small_db):
        svc = QueryService(small_db, num_devices=1)
        first = svc.delete_trajectory(0, idempotency_key="del-0")
        assert first > 0
        # An unkeyed retry sees an already-hidden trajectory (0); the
        # keyed retry replays the original receipt instead.
        assert svc.delete_trajectory(0, idempotency_key="del-0") == \
            first
        assert svc.telemetry.metrics.counter(
            "repro_idempotent_dedups_total").value(op="delete") == 1
        svc.shutdown()

    def test_key_cannot_cross_operation_kinds(self, small_db):
        from repro.ingest import IngestError
        svc = QueryService(small_db, num_devices=1)
        svc.ingest(self._fresh(22, offset=4100),
                   idempotency_key="mut-1")
        with pytest.raises(IngestError, match="named a"):
            svc.delete_trajectory(1, idempotency_key="mut-1")
        svc.shutdown()


class TestTransitionMetrics:
    def test_breaker_transitions_are_labeled_counters(self, small_db,
                                                      small_queries):
        from repro.faults import FaultInjector, FaultSpec
        inj = FaultInjector(
            [FaultSpec(kind="kernel_abort", count=1)], seed=0)
        svc = QueryService(small_db, faults=inj, breaker_threshold=1,
                           breaker_reset_s=1e-12)
        req = _request(small_queries, method="gpu_temporal")
        svc.submit(req)  # abort: closed -> open
        req.request_id = "r1"
        # The reopened probe succeeds; the next gauge sample sees the
        # breaker back at closed (half_open is transient within the
        # submit, so the observed transition is open -> closed).
        svc.submit(req)
        counter = svc.telemetry.metrics.counter(
            "repro_breaker_transitions_total")
        assert counter.value(engine="gpu_temporal",
                             from_state="closed",
                             to_state="open") == 1
        assert counter.value(engine="gpu_temporal",
                             from_state="open",
                             to_state="closed") == 1
        kinds = [e.fields for e in
                 svc.telemetry.events.of_kind("breaker_transition")]
        assert {"engine": "gpu_temporal", "from_state": "closed",
                "to_state": "open"} in kinds
        svc.shutdown()

    def test_lane_transitions_are_labeled_counters(self, small_db,
                                                   small_queries):
        from repro.faults import FaultInjector, FaultSpec
        inj = FaultInjector([FaultSpec(kind="oom", count=1)], seed=0)
        svc = QueryService(small_db, faults=inj,
                           lane_failure_threshold=1,
                           lane_quarantine_s=1e9)
        svc.submit(_request(small_queries, method="gpu_temporal"))
        counter = svc.telemetry.metrics.counter(
            "repro_lane_transitions_total")
        assert counter.value(lane="0", from_state="healthy",
                             to_state="quarantined") == 1
        assert svc.telemetry.events.of_kind("lane_transition")
        svc.shutdown()
