"""Integration tests: the telemetry layer wired through the service.

One ``submit_batch`` call must yield a span tree covering
service → engine → kernel, a Prometheus snapshot with request-latency
buckets and cache counters, a multi-lane Chrome trace, and a JSON-lines
event log — and all of it must disappear when telemetry is disabled.
"""

import json

import pytest

from repro.gpu.profiler import CpuSearchProfile, SearchProfile
from repro.obs import Telemetry, service_batch_trace
from repro.obs.chrome import HOST_TID, PCIE_TID, _lane_tid
from repro.service import QueryService, SearchRequest
from tests.conftest import BAD_PLANNER_HINTS


@pytest.fixture
def service(small_db):
    return QueryService(small_db, num_devices=2)


def _request(queries, d=2.5, **kw):
    return SearchRequest(queries=queries, d=d, **kw)


def _find(span, name):
    """The first span named ``name`` in ``span``'s subtree, or None."""
    return next((s for s in span.walk() if s.name == name), None)


class TestSpanTree:
    def test_batch_produces_service_engine_kernel_tree(self, service,
                                                       small_queries):
        service.submit_batch([_request(small_queries,
                                       method="gpu_temporal",
                                       params={"num_bins": 40},
                                       request_id="t1")])
        roots = service.telemetry.tracer.roots
        assert len(roots) == 1
        batch = roots[0]
        assert batch.name == "service.batch"
        assert batch.attributes["batch_size"] == 1

        request = _find(batch, "service.request")
        assert request in batch.children
        assert request.attributes["request_id"] == "t1"
        assert request.attributes["engine"] == "gpu_temporal"

        execute = _find(request, "service.execute")
        assert execute in request.children
        search = _find(execute, "engine.search")
        assert search in execute.children
        assert search.attributes["engine"] == "gpu_temporal"
        assert search.attributes["result_items"] >= 0

        kernels = [s for s in search.children
                   if s.name.startswith("kernel:")]
        assert len(kernels) == search.attributes["invocations"]
        assert all(k.wall_dur_s >= 0 for k in kernels)
        assert kernels[0].attributes["invocation"] == 0

    def test_modeled_clocks_pinned_on_spans(self, service,
                                            small_queries):
        resp = service.submit(_request(small_queries,
                                       method="gpu_temporal",
                                       params={"num_bins": 40}))
        batch = service.telemetry.tracer.roots[-1]
        request = _find(batch, "service.request")
        assert request.modeled_dur_s == pytest.approx(
            resp.metrics.queue_wait_s + resp.metrics.modeled_seconds)
        search = _find(batch, "engine.search")
        assert search.modeled_dur_s == pytest.approx(
            resp.metrics.modeled_seconds)
        assert search.modeled_start_s == pytest.approx(
            resp.metrics.lane_spans[0]["start_s"])

    def test_index_build_span_recorded_on_miss(self, service,
                                               small_queries):
        service.submit(_request(small_queries, method="cpu_rtree"))
        batch = service.telemetry.tracer.roots[0]
        build = _find(batch, "engine.build")
        assert build is not None
        assert _find(build, "index.build") is not None

    def test_span_tree_json_round_trip(self, service, small_queries):
        service.submit(_request(small_queries, method="cpu_scan"))
        root = service.telemetry.tracer.roots[0]
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload == root.to_dict()

        def names(node):
            return [node["name"]] + [n for c in node["children"]
                                     for n in names(c)]
        assert names(payload) == [s.name for s in root.walk()]


class TestMetrics:
    def test_prometheus_snapshot_after_batch(self, service,
                                             small_queries):
        req = _request(small_queries, method="gpu_temporal",
                       params={"num_bins": 40})
        service.submit(req)
        service.submit(req)  # second submit hits the cache
        text = service.telemetry.metrics.to_prometheus_text()
        assert "repro_request_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert 'repro_cache_hits_total{engine="gpu_temporal"} 1' in text
        assert ('repro_cache_misses_total{engine="gpu_temporal"} 1'
                in text)
        assert "repro_requests_total" in text
        assert "repro_kernel_invocations_total" in text

    def test_stats_reads_registry(self, service, small_queries):
        service.submit(_request(small_queries))
        stats = service.stats()
        assert stats["num_requests"] == 1
        assert stats["cache"]["hit_ratio"] == 0.0
        service.submit(_request(small_queries))
        stats = service.stats()
        assert stats["num_requests"] == 2
        assert stats["cache"]["hit_ratio"] == pytest.approx(0.5)
        assert stats["slow_queries"] == 0

    def test_registry_snapshot_round_trips(self, service,
                                           small_queries):
        service.submit(_request(small_queries))
        reg = service.telemetry.metrics
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload == reg.snapshot()
        requests = payload["repro_requests_total"]
        assert requests["type"] == "counter"
        assert sum(s["value"] for s in requests["series"]) == 1


class TestChromeTrace:
    def test_multi_lane_trace_structure(self, service, small_queries):
        responses = service.submit_batch([
            _request(small_queries, method="gpu_temporal",
                     params={"num_bins": 40}, request_id="a"),
            _request(small_queries, method="gpu_spatial",
                     params={"cells_per_dim": 8}, request_id="b"),
        ])
        events = service_batch_trace(responses)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        # Both engines homed on distinct lanes -> both lane tracks
        # named, plus the shared pcie and host tracks.
        assert {"gpu lane 0 (modeled)", "gpu lane 1 (modeled)",
                "pcie (modeled)", "host (modeled)"} <= names

        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
        lanes_used = {e["tid"] for e in slices}
        assert _lane_tid(0) in lanes_used
        assert _lane_tid(1) in lanes_used
        assert PCIE_TID in lanes_used

        # One summary occupancy slice per request on its lane.
        summaries = [e for e in slices
                     if e["name"].startswith(("a [", "b ["))]
        assert len(summaries) == 2
        for resp, tag in zip(responses, ("a", "b")):
            span = resp.metrics.lane_spans[0]
            match = [e for e in summaries
                     if e["name"].startswith(f"{tag} [")][0]
            assert match["tid"] == _lane_tid(span["lane"])
            # Trace timestamps are rounded to 3 decimals (ns grain).
            assert match["dur"] == pytest.approx(
                span["dur_s"] * 1e6, abs=1e-3)

    def test_write_service_trace_file(self, service, small_queries,
                                      tmp_path):
        from repro.obs import write_service_trace
        responses = service.submit_batch(
            [_request(small_queries, method="gpu_temporal",
                      params={"num_bins": 40})])
        path = write_service_trace(responses, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_cpu_request_lands_on_host_track(self, service,
                                             small_queries):
        responses = service.submit_batch(
            [_request(small_queries, method="cpu_scan")])
        events = service_batch_trace(responses)
        slices = [e for e in events if e["ph"] == "X"]
        assert all(e["tid"] == HOST_TID for e in slices)


class TestEventLog:
    def test_request_events_round_trip_jsonl(self, service,
                                             small_queries, tmp_path):
        service.submit_batch([
            _request(small_queries, request_id="e1"),
            _request(small_queries, request_id="e2"),
        ])
        log = service.telemetry.events
        reqs = log.of_kind("request")
        assert [e.fields["request_id"] for e in reqs] == ["e1", "e2"]
        assert all(e.fields["engine"] for e in reqs)

        path = log.write_jsonl(tmp_path / "events.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines == [e.to_dict() for e in log]

    def test_clean_request_logs_no_degradation_or_eviction(
            self, service, small_queries):
        service.submit(_request(small_queries))
        log = service.telemetry.events
        assert log.of_kind("request") and log.of_kind("engine_build")
        assert not log.of_kind("degradation")
        assert not log.of_kind("eviction")


class TestSerializationRoundTrips:
    def test_gpu_profile_and_metrics_round_trip(self, service,
                                                small_queries):
        resp = service.submit(_request(small_queries,
                                       method="gpu_temporal",
                                       params={"num_bins": 40},
                                       request_id="rt"))
        payload = json.loads(json.dumps(resp.to_dict()))
        assert payload == resp.to_dict()
        assert isinstance(resp.outcome.profile, SearchProfile)
        assert payload["outcome"]["profile"]["kind"] == "gpu"
        metrics = payload["metrics"]
        assert metrics == resp.metrics.to_dict()
        assert metrics["lane_spans"] == resp.metrics.lane_spans
        assert metrics["arrival_s"] == resp.metrics.arrival_s
        assert len(metrics["lane_spans"]) == 1

    def test_cpu_profile_and_metrics_round_trip(self, service,
                                                small_queries):
        resp = service.submit(_request(small_queries,
                                       method="cpu_rtree"))
        payload = json.loads(json.dumps(resp.to_dict()))
        assert payload == resp.to_dict()
        assert isinstance(resp.outcome.profile, CpuSearchProfile)
        assert payload["outcome"]["profile"]["kind"] == "cpu"
        assert payload["metrics"] == resp.metrics.to_dict()
        assert payload["metrics"]["lane_spans"][0]["lane"] == -1


class TestDisabledTelemetry:
    def test_disabled_service_records_nothing(self, small_db,
                                              small_queries):
        svc = QueryService(small_db, num_devices=1,
                           telemetry=Telemetry(enabled=False))
        resp = svc.submit(_request(small_queries,
                                   method="gpu_temporal",
                                   params={"num_bins": 40}))
        assert resp.outcome.results is not None
        assert list(svc.telemetry.tracer.roots) == []
        assert len(svc.telemetry.events) == 0
        assert svc.telemetry.metrics.to_prometheus_text() == ""
        assert svc.stats()["num_requests"] == 1
        assert svc.stats()["degradations"] == 0

    def test_stats_do_not_depend_on_the_telemetry_switch(
            self, small_db, small_queries):
        """One counting path: two requests refused by a raised error
        (unknown method, bad planner hint) count the same with
        telemetry on and off."""
        def run(enabled):
            svc = QueryService(small_db, num_devices=1,
                               telemetry=Telemetry(enabled=enabled))
            svc.submit(_request(small_queries, method="cpu_scan"))
            for kw in ({"method": "nope"},
                       {"params": BAD_PLANNER_HINTS[0]}):
                with pytest.raises(ValueError):
                    svc.submit(_request(small_queries, **kw))
            return svc.stats()

        on, off = run(True), run(False)
        assert on["num_requests"] == off["num_requests"] == 3
        assert on == off

    def test_trace_still_renders_without_telemetry(self, small_db,
                                                   small_queries):
        """The Chrome exporter reads responses, not the hub — lane
        spans travel on the metrics either way."""
        svc = QueryService(small_db, num_devices=1,
                           telemetry=Telemetry(enabled=False))
        responses = svc.submit_batch(
            [_request(small_queries, method="gpu_temporal",
                      params={"num_bins": 40})])
        events = service_batch_trace(responses)
        assert any(e["ph"] == "X" for e in events)
