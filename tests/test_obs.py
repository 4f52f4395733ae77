"""Unit tests for the repro.obs telemetry layer: metrics registry,
span tracer, structured events, slow-query log, and the disabled
no-op behavior."""

import json

import pytest

from repro.obs import (DEFAULT_LATENCY_BUCKETS, Event, EventLog,
                       MetricsRegistry, SlowQueryLog, Telemetry, Tracer)
from repro.obs.telemetry import DISABLED, current
from tests.conftest import series_value


class TestCounter:
    def test_inc_and_total(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "served requests")
        c.inc()
        c.inc(2.0)
        assert c.total() == 3.0

    def test_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc(engine="gpu_temporal")
        c.inc(engine="gpu_temporal")
        c.inc(engine="cpu_scan")
        assert series_value(reg, "hits", engine="gpu_temporal") == 2.0
        assert series_value(reg, "hits", engine="cpu_scan") == 1.0
        assert c.total() == 3.0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            c.inc(-1.0)


class TestGauge:
    def test_set_overwrites_per_label_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("resident_bytes")
        g.set(100.0)
        g.set(75.0)
        g.set(10.0, lane="0")
        assert series_value(reg, "resident_bytes") == 75.0
        assert series_value(reg, "resident_bytes", lane="0") == 10.0


class TestHistogram:
    def test_buckets_are_exponential_and_increasing(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        ratios = [b / a for a, b in zip(DEFAULT_LATENCY_BUCKETS,
                                        DEFAULT_LATENCY_BUCKETS[1:])]
        assert all(r == pytest.approx(4.0) for r in ratios)

    def test_observe_counts_and_sum(self):
        h = MetricsRegistry().histogram("latency")
        h.observe(2e-6)
        h.observe(3e-6)
        h.observe(100.0)  # beyond the last bound -> +Inf bucket
        assert h.sum() == pytest.approx(2e-6 + 3e-6 + 100.0)
        cum = h.cumulative_counts()
        assert cum[-1] == 3              # +Inf sees everything
        assert cum[-2] == 2              # finite bounds miss the 100 s

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs", "requests served").inc(3, engine="cpu_scan")
        reg.gauge("bytes").set(42.0)
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.to_prometheus_text()
        assert "# HELP reqs requests served" in text
        assert "# TYPE reqs counter" in text
        assert 'reqs{engine="cpu_scan"} 3' in text
        assert "# TYPE bytes gauge" in text
        assert "bytes 42" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c", "help c").inc(5, k="v")
        reg.gauge("g").set(-1.5)
        h = reg.histogram("h", buckets=(0.5, 2.0))
        h.observe(0.1, engine="e")
        h.observe(10.0, engine="e")
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload == reg.snapshot()
        assert payload["c"] == {"type": "counter", "help": "help c",
                                "series": [{"labels": [["k", "v"]],
                                            "value": 5.0}]}
        assert payload["g"]["series"] == [{"labels": [], "value": -1.5}]
        assert payload["h"]["buckets"] == [0.5, 2.0]
        assert payload["h"]["series"] == [
            {"labels": [["engine", "e"]], "counts": [1, 0, 1],
             "sum": 10.1, "count": 2}]

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(99)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(1.0)
        assert reg.counter("c").total() == 0.0
        assert reg.histogram("h").sum() == 0.0
        assert reg.snapshot() == {}


class TestTracer:
    def test_nesting_builds_parent_child_links(self):
        tr = Tracer()
        with tr.start_span("root", a=1) as root:
            with tr.start_span("child") as child:
                tr.record("leaf", 0.0, 0.5, k=2)
        assert tr.roots == [root]
        assert root.children == [child]
        assert child.children[0].name == "leaf"
        assert child.children[0].wall_dur_s == 0.5
        assert root.wall_dur_s >= child.wall_dur_s

    def test_walk(self):
        tr = Tracer()
        with tr.start_span("a"):
            with tr.start_span("b"):
                pass
            with tr.start_span("c"):
                pass
        root = tr.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c"]

    def test_span_dict_round_trip(self):
        tr = Tracer()
        with tr.start_span("root", engine="gpu_temporal") as root:
            with tr.start_span("inner") as inner:
                inner.set_modeled(0.25, 1.5)
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload == root.to_dict()
        assert payload["name"] == "root"
        assert payload["children"][0]["name"] == "inner"
        assert payload["children"][0]["modeled_start_s"] == 0.25
        assert payload["children"][0]["modeled_dur_s"] == 1.5
        assert "modeled_start_s" not in payload
        assert payload["attributes"] == {"engine": "gpu_temporal"}

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.start_span("root") as span:
            span.set_attribute("k", "v")
            span.set_modeled(0.0, 1.0)
            tr.record("leaf", 0.0, 1.0)
        assert tr.roots == []
        assert span.attributes == {}
        assert span.modeled_start_s is None


class TestEvents:
    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit("degradation", request_id="r1", fallback="cpu_scan")
        log.emit("eviction", nbytes=1024)
        text = log.to_jsonl()
        assert len(text.splitlines()) == 2
        lines = [json.loads(line) for line in text.splitlines()]
        assert lines == [e.to_dict() for e in log]
        assert [e["kind"] for e in lines] == ["degradation", "eviction"]
        assert lines[1]["fields"] == {"nbytes": 1024}

    def test_write_jsonl(self, tmp_path):
        log = EventLog()
        log.emit("request", engine="cpu_scan")
        path = log.write_jsonl(tmp_path / "events.jsonl")
        assert path.read_text() == log.to_jsonl()
        assert len(path.read_text().splitlines()) == 1

    def test_bounded(self):
        log = EventLog(maxlen=3)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 3
        assert [e.fields["i"] for e in log] == [2, 3, 4]

    def test_ring_counts_every_drop(self):
        """The bound is a ring, and evictions are observable: a long
        campaign can report how much history it shed."""
        log = EventLog(maxlen=2)
        assert log.dropped_events == 0
        for i in range(7):
            log.emit("e", i=i)
        assert log.dropped_events == 5
        assert [e.fields["i"] for e in log] == [5, 6]

    def test_unbounded_log_never_drops(self):
        log = EventLog(maxlen=None)
        for i in range(50):
            log.emit("e", i=i)
        assert len(log) == 50 and log.dropped_events == 0

    def test_maxlen_validated(self):
        with pytest.raises(ValueError, match="maxlen"):
            EventLog(maxlen=0)

    def test_event_dict_round_trip(self):
        ev = Event(kind="retry", ts=12.5, fields={"attempt": 2})
        assert json.loads(json.dumps(ev.to_dict())) == ev.to_dict() \
            == {"kind": "retry", "ts": 12.5, "fields": {"attempt": 2}}

    def test_disabled_log_emits_nothing(self):
        log = EventLog(enabled=False)
        assert log.emit("x") is None
        assert len(log) == 0


class TestSlowQueryLog:
    def test_threshold_gates_entries(self):
        log = SlowQueryLog(threshold_s=1.0)
        assert log.observe(request_id="fast", engine="gpu_temporal",
                           modeled_seconds=0.5) is None
        entry = log.observe(request_id="slow", engine="cpu_scan",
                            modeled_seconds=2.0, queue_wait_s=0.1,
                            degraded=True)
        assert entry is not None
        assert len(log) == 1
        assert [e.request_id for e in log] == ["slow"]

    def test_render_mentions_entries(self):
        log = SlowQueryLog(threshold_s=0.0)
        log.observe(request_id="r9", engine="cpu_rtree",
                    modeled_seconds=3.0, cache_hit=True)
        text = log.render()
        assert "r9" in text and "cpu_rtree" in text
        assert "cache-hit" in text

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1.0)

    def test_jsonl_round_trip(self, tmp_path):
        log = SlowQueryLog(threshold_s=0.0)
        log.observe(request_id="r1", engine="cpu_scan",
                    modeled_seconds=2.0, queue_wait_s=0.25,
                    degraded=True)
        path = log.write_jsonl(tmp_path / "slow.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines == [e.to_dict() for e in log]
        assert lines[0]["request_id"] == "r1"
        assert lines[0]["queue_wait_s"] == 0.25
        assert lines[0]["degraded"] is True


class TestTelemetryHub:
    def test_ambient_activation(self):
        hub = Telemetry()
        assert current() is DISABLED
        with hub.activate():
            assert current() is hub
            with hub.span("work") as span:
                current().metrics.counter("c").inc()
                current().events.emit("e")
            assert span.name == "work"
        assert current() is DISABLED
        assert hub.metrics.counter("c").total() == 1.0
        assert len(hub.events) == 1
        assert hub.tracer.roots[0].name == "work"

    def test_disabled_hub_is_inert(self):
        hub = Telemetry(enabled=False)
        with hub.activate():
            with hub.span("work"):
                current().metrics.counter("c").inc()
                current().events.emit("e")
                current().slow_log.observe(
                    request_id="r", engine="e", modeled_seconds=99.0)
        assert hub.metrics.counter("c").total() == 0.0
        assert len(hub.events) == 0
        assert len(hub.slow_log) == 0
        assert hub.tracer.roots == []
