"""The admission-controlled front door: tenants, rate limits,
priority queues, brownout, idempotent retries, the HTTP surface, and
the seeded overload campaign."""

import asyncio
import json
import logging

import pytest

from repro.core.result import ResultSet
from repro.core.types import SegmentArray
from repro.engines.cpu_scan import CpuScanEngine
from repro.campaigns import overload
from repro.campaigns.harness import result_bytes
from repro.campaigns.overload import OverloadConfig, SimClock
from repro.gateway import (BROWNOUT_LEVELS, BrownoutLadder,
                           GATEWAY_STATUSES, Gateway,
                           GatewayHTTPServer, GatewayResponse,
                           TenantConfig, TenantRegistry, TokenBucket,
                           retry_with_backoff)
from repro.gateway import http as gateway_http
from repro.gateway.brownout import (BROWNOUT_HYSTERESIS,
                                    BROWNOUT_THRESHOLDS)
from repro.service import QueryService, SearchRequest
from tests.conftest import (BAD_PLANNER_HINTS, NON_FINITE,
                            make_walk_trajectories, poisoned,
                            series_value)

D = 2.5


def _fresh_walk(seed, offset=500):
    trajs = make_walk_trajectories(1, 5, seed=seed)
    shifted = [t.__class__(t.traj_id + offset, t.times, t.positions)
               for t in trajs]
    return SegmentArray.from_trajectories(shifted)


def _tenants():
    return [
        TenantConfig("alpha", "key-alpha", rate=1000.0, burst=1000.0),
        TenantConfig("bravo", "key-bravo", rate=1000.0, burst=1000.0,
                     priority="batch"),
        TenantConfig("tight", "key-tight", rate=0.5, burst=1.0),
        TenantConfig("capped", "key-capped", rate=1000.0,
                     burst=1000.0, daily_quota=2),
    ]


def _gateway(db, **kw):
    service = QueryService(db, num_devices=2)
    kw.setdefault("queue_depth", 8)
    return Gateway(service, _tenants(), **kw)


def _request(queries, rid="g0", **kw):
    return SearchRequest(queries=queries, d=D, request_id=rid, **kw)


class TestTokenBucket:
    def test_spend_until_empty_then_hint(self):
        clock = SimClock()
        bucket = TokenBucket(2.0, 3.0, clock=clock.now)
        assert [bucket.try_acquire() for _ in range(3)] == [None] * 3
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2 tokens/s

    def test_refill_is_clocked(self):
        clock = SimClock()
        bucket = TokenBucket(2.0, 2.0, clock=clock.now)
        bucket.try_acquire(2.0)
        assert bucket.try_acquire() is not None
        clock.advance(0.5)  # exactly one token back
        assert bucket.try_acquire() is None
        assert bucket.tokens == pytest.approx(0.0)

    def test_burst_caps_the_refill(self):
        clock = SimClock()
        bucket = TokenBucket(10.0, 3.0, clock=clock.now)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 2.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0.5)


class TestTenantRegistry:
    def _registry(self, clock):
        return TenantRegistry(_tenants(), clock=clock.now)

    def test_unknown_key_is_unauthenticated(self):
        reg = self._registry(SimClock())
        tenant, verdict, hint = reg.admit("who-dis")
        assert tenant is None and verdict == "unauthenticated"
        assert hint is None

    def test_rate_limit_hints_the_next_token(self):
        clock = SimClock()
        reg = self._registry(clock)
        assert reg.admit("key-tight")[1] == "ok"  # burst of 1
        tenant, verdict, hint = reg.admit("key-tight")
        assert tenant.tenant_id == "tight"
        assert verdict == "rate_limited"
        assert hint == pytest.approx(2.0)  # 1 token at 0.5/s
        clock.advance(2.0)
        assert reg.admit("key-tight")[1] == "ok"

    def test_quota_checked_before_rate(self):
        clock = SimClock()
        reg = TenantRegistry(
            [TenantConfig("t", "k", rate=0.1, burst=1.0,
                          daily_quota=1)], clock=clock.now)
        assert reg.admit("k")[1] == "ok"
        # Both budgets are now empty; the refusal names the quota.
        _, verdict, hint = reg.admit("k")
        assert verdict == "quota_exceeded"
        assert hint is not None and hint > 0

    def test_quota_window_resets(self):
        from repro.gateway import QUOTA_WINDOW_S
        clock = SimClock()
        reg = self._registry(clock)
        for _ in range(2):
            assert reg.admit("key-capped")[1] == "ok"
        assert reg.admit("key-capped")[1] == "quota_exceeded"
        clock.advance(QUOTA_WINDOW_S)
        assert reg.admit("key-capped")[1] == "ok"

    def test_duplicate_api_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate api_key"):
            TenantRegistry([TenantConfig("a", "k"),
                            TenantConfig("b", "k")])

    def test_stats_count_admissions(self):
        clock = SimClock()
        reg = self._registry(clock)
        reg.admit("key-alpha")
        reg.admit("key-tight")
        reg.admit("key-tight")
        stats = reg.stats()
        assert stats["alpha"]["admitted"] == 1
        assert stats["tight"] == {
            "admitted": 1, "rejected": 1, "window_used": 0,
            "tokens": 0.0}


class TestBrownoutLadder:
    def test_escalation_and_effects(self):
        ladder = BrownoutLadder()
        assert ladder.update(0.4) == 0 and not ladder.sheds_batch
        assert ladder.update(0.6) == 1 and ladder.sheds_batch
        assert ladder.update(0.8) == 2 and ladder.degrades_engine
        assert ladder.update(1.0) == 3 and ladder.refuses_writes
        assert ladder.name == BROWNOUT_LEVELS[3]
        assert [(a, b) for a, b, _ in ladder.transitions] == \
            [(0, 1), (1, 2), (2, 3)]

    def test_jumps_straight_to_the_binding_level(self):
        ladder = BrownoutLadder()
        assert ladder.update(0.95) == 3
        assert ladder.transitions == [(0, 3, 0.95)]

    def test_hysteresis_blocks_flapping(self):
        ladder = BrownoutLadder()
        ladder.update(0.5)
        # Inside the hysteresis band: holds at 1.
        assert ladder.update(0.45) == 1
        # Clears threshold - hysteresis: drops.
        assert ladder.update(0.39) == 0

    def test_transitions_are_labeled_counters(self):
        ladder = BrownoutLadder()
        ladder.update(0.95)
        ladder.update(0.0)
        reg = ladder.telemetry.metrics
        name = "repro_gateway_brownout_transitions_total"
        assert series_value(reg, name, from_level="0", to_level="3") == 1
        assert series_value(reg, name, from_level="3", to_level="0") == 1
        assert series_value(reg, "repro_gateway_brownout_level") == 0

    def test_validation(self):
        # The ladder is not tunable: its thresholds are module
        # constants, one entry pressure per level above 0, increasing.
        assert len(BROWNOUT_THRESHOLDS) == len(BROWNOUT_LEVELS) - 1
        assert list(BROWNOUT_THRESHOLDS) == sorted(BROWNOUT_THRESHOLDS)
        assert BROWNOUT_HYSTERESIS >= 0


class TestGatewayResponse:
    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown gateway status"):
            GatewayResponse(kind="search", request_id="r", tenant="t",
                            priority="interactive", status="teapot")

    def test_retryable_refusal_requires_a_hint(self):
        with pytest.raises(ValueError, match="retry_after_s"):
            GatewayResponse(kind="search", request_id="r", tenant="t",
                            priority="interactive",
                            status="overloaded")

    def test_properties_and_json(self):
        resp = GatewayResponse(kind="search", request_id="r",
                               tenant="t", priority="batch",
                               status="rate_limited", reason="slow",
                               retry_after_s=1.5)
        assert resp.rejected and resp.retryable and not resp.ok
        assert json.loads(json.dumps(resp.to_dict()))["status"] == \
            "rate_limited"
        assert set(GATEWAY_STATUSES) >= {"ok", "partial", "invalid"}


class TestGatewayAdmission:
    def test_search_answers_through_the_front_door(self, small_db,
                                                   small_queries):
        gw = _gateway(small_db)
        resp = asyncio.run(gw.search(
            "key-alpha", _request(small_queries, method="cpu_scan")))
        assert resp.ok and resp.status == "ok"
        assert resp.kind == "search" and resp.tenant == "alpha"
        assert resp.response is not None
        assert result_bytes(resp.response.outcome.results) == \
            result_bytes(CpuScanEngine(small_db)
                          .search(small_queries, D)[0])
        gw.backend.shutdown()

    def test_bad_key_and_bad_priority_are_typed(self, small_db,
                                                small_queries):
        gw = _gateway(small_db)
        resp = asyncio.run(gw.search("nope",
                                     _request(small_queries)))
        assert resp.status == "unauthenticated"
        resp = asyncio.run(gw.search("key-alpha",
                                     _request(small_queries),
                                     priority="urgent"))
        assert resp.status == "invalid"
        assert "unknown priority" in resp.reason
        gw.backend.shutdown()

    def test_flood_sheds_typed_never_silently(self, small_db,
                                              small_queries):
        """One burst past saturation: every arrival gets exactly one
        typed response; overflow is overloaded-with-hint."""
        gw = _gateway(small_db, queue_depth=3)

        async def storm():
            calls = [gw.search("key-alpha",
                               _request(small_queries, rid=f"i{j}",
                                        method="cpu_scan"))
                     for j in range(6)]
            calls.append(gw.search(
                "key-bravo", _request(small_queries, rid="b0",
                                      method="cpu_scan")))
            return await asyncio.gather(*calls)

        responses = asyncio.run(storm())
        by_status = {}
        for resp in responses:
            by_status.setdefault(resp.status, []).append(resp)
        # 3 queued and answered; 3 interactive shed on a full queue.
        assert len(by_status["ok"]) == 3
        assert len(by_status["overloaded"]) == 4
        for resp in by_status["overloaded"]:
            assert resp.retry_after_s is not None
        # The batch arrival saw a saturated queue -> brownout shed.
        batch = [r for r in responses if r.priority == "batch"]
        assert batch[0].status == "overloaded"
        assert "batch tier is shed" in batch[0].reason
        assert gw.brownout.transitions  # the storm moved the ladder
        gw.backend.shutdown()

    def test_infeasible_deadline_rejected_on_arrival(self, small_db,
                                                     small_queries):
        gw = _gateway(small_db)

        async def run():
            backlog = [gw.search("key-alpha",
                                 _request(small_queries, rid=f"q{j}",
                                          method="cpu_scan"))
                       for j in range(3)]
            doomed = gw.search("key-alpha",
                               _request(small_queries, rid="late",
                                        method="cpu_scan",
                                        deadline_s=1e-9))
            return await asyncio.gather(*backlog, doomed)

        *_, late = asyncio.run(run())
        assert late.status == "deadline_exceeded"
        assert "rejected on arrival" in late.reason
        gw.backend.shutdown()

    def test_deadline_expires_in_queue(self, small_db, small_queries):
        """A feasible-on-arrival budget that dies while queued is a
        typed answer at dequeue, not a dispatch."""
        clock = SimClock()
        service = QueryService(small_db, num_devices=2)

        class Ticking:
            def submit(self, request):
                clock.advance(0.01)
                return service.submit(request)

            def __getattr__(self, name):
                return getattr(service, name)

        gw = Gateway(Ticking(), _tenants(), queue_depth=8,
                     est_service_s=1e-9, clock=clock.now)

        async def run():
            first = gw.search("key-alpha",
                              _request(small_queries, rid="f",
                                       method="cpu_scan"))
            # Half a tick of budget: alive on arrival, dead after the
            # first dispatch advances the clock.
            second = gw.search("key-alpha",
                               _request(small_queries, rid="s",
                                        method="cpu_scan",
                                        deadline_s=0.005))
            return await asyncio.gather(first, second)

        first, second = asyncio.run(run())
        assert first.status == "ok"
        assert second.status == "deadline_exceeded"
        assert "never dispatched" in second.reason
        assert gw.telemetry.metrics.counter(
            "repro_gateway_expired_in_queue_total").total() == 1
        service.shutdown()

    def test_brownout_degrades_auto_to_exact_cpu_scan(self, small_db,
                                                      small_queries):
        gw = _gateway(small_db)
        gw._backend_pressure = lambda: 0.8  # force level 2
        resp = asyncio.run(gw.search(
            "key-alpha", _request(small_queries, method="auto")))
        assert resp.ok
        assert resp.response.metrics.engine == "cpu_scan"
        assert result_bytes(resp.response.outcome.results) == \
            result_bytes(CpuScanEngine(small_db)
                          .search(small_queries, D)[0])
        assert gw.telemetry.metrics.counter(
            "repro_gateway_brownout_degrades_total").total() == 1
        gw.backend.shutdown()

    def test_brownout_refuses_writes_reads_still_serve(self, small_db,
                                                       small_queries):
        gw = _gateway(small_db)
        gw._backend_pressure = lambda: 0.95  # force level 3
        denied = asyncio.run(gw.ingest("key-alpha", _fresh_walk(7)))
        assert denied.status == "writes_disabled"
        assert denied.retry_after_s is not None
        served = asyncio.run(gw.search(
            "key-alpha", _request(small_queries, method="cpu_scan")))
        assert served.ok
        gw.backend.shutdown()

    def test_keyed_ingest_applies_exactly_once(self, small_db):
        gw = _gateway(small_db)
        fresh = _fresh_walk(11)

        async def twice():
            one = await gw.ingest("key-alpha", fresh,
                                  idempotency_key="put-1")
            two = await gw.ingest("key-alpha", fresh,
                                  idempotency_key="put-1")
            return one, two

        one, two = asyncio.run(twice())
        assert one.status == "ok" and not one.receipt["deduplicated"]
        assert two.status == "ok" and two.receipt["deduplicated"]
        assert two.receipt["epoch"] == one.receipt["epoch"]
        assert gw.backend.versioned.epoch == one.receipt["epoch"]
        gw.backend.shutdown()

    def test_delete_and_invalid_mutation(self, small_db):
        gw = _gateway(small_db)
        resp = asyncio.run(gw.delete("key-alpha", 0))
        assert resp.status == "ok" and resp.receipt["hidden"] > 0
        resp = asyncio.run(gw.ingest("key-alpha",
                                     SegmentArray.empty()))
        assert resp.status == "invalid"
        gw.backend.shutdown()

    def test_metrics_merge_gateway_and_backend(self, small_db,
                                               small_queries):
        gw = _gateway(small_db)
        asyncio.run(gw.search("key-alpha",
                              _request(small_queries,
                                       method="cpu_scan")))
        text = gw.metrics_text()
        assert 'repro_gateway_requests_total' in text
        assert 'component="gateway"' in text
        assert 'component="service"' in text
        stats = gw.stats()
        assert stats["served"] == 1
        assert set(stats["queues"]) == {"interactive", "batch"}
        assert stats["tenants"]["alpha"]["admitted"] == 1
        gw.backend.shutdown()


class TestRetryWithBackoff:
    def _refusal(self, status, hint=1.0):
        return GatewayResponse(kind="ingest", request_id="r",
                               tenant="t", priority="interactive",
                               status=status, retry_after_s=hint)

    def _ok(self):
        return GatewayResponse(kind="ingest", request_id="r",
                               tenant="t", priority="interactive",
                               status="ok", receipt={})

    def test_retries_until_ok_honoring_the_hint(self):
        script = [self._refusal("overloaded", hint=2.0), self._ok()]
        slept = []
        outcome = retry_with_backoff(lambda: script.pop(0),
                                     sleep=slept.append)
        assert outcome.response.ok and outcome.attempts == 2
        assert outcome.backoffs[0] >= 2.0  # server hint is a floor
        assert slept == outcome.backoffs

    def test_non_retryable_stops_immediately(self):
        script = [GatewayResponse(kind="search", request_id="r",
                                  tenant="t", priority="interactive",
                                  status="invalid"), self._ok()]
        outcome = retry_with_backoff(lambda: script.pop(0))
        assert not outcome.response.ok and outcome.attempts == 1

    def test_attempt_budget_is_finite(self):
        outcome = retry_with_backoff(
            lambda: self._refusal("rate_limited", hint=0.01),
            max_attempts=3)
        assert not outcome.response.ok and outcome.attempts == 3
        assert len(outcome.backoffs) == 2
        with pytest.raises(ValueError):
            retry_with_backoff(self._ok, max_attempts=0)


async def _http(host, port, method, path, body=b"", headers=None,
                content_length=None):
    reader, writer = await asyncio.open_connection(host, port)
    if content_length is None:
        content_length = len(body)
    head = [f"{method} {path} HTTP/1.1", f"host: {host}",
            f"content-length: {content_length}", "connection: close"]
    head += [f"{k}: {v}" for k, v in (headers or {}).items()]
    writer.write(("\r\n".join(head) + "\r\n\r\n")
                 .encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_raw, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    hdrs = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        hdrs[name.strip().lower()] = value.strip()
    return status, hdrs, payload


class TestHTTPSurface:
    def test_wire_round_trips(self, small_db, small_queries):
        gw = _gateway(small_db)
        query = json.dumps(
            _request(small_queries, method="cpu_scan").to_dict()
        ).encode()

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                host, port = server.host, server.port
                out = {}
                out["search"] = await _http(
                    host, port, "POST", "/v1/search", query,
                    {"x-api-key": "key-alpha",
                     "content-type": "application/json"})
                out["bad_key"] = await _http(
                    host, port, "POST", "/v1/search", query,
                    {"x-api-key": "intruder"})
                # The tight tenant has a one-token burst: the second
                # call must carry Retry-After on a 429.
                await _http(host, port, "POST", "/v1/search", query,
                            {"x-api-key": "key-tight"})
                out["limited"] = await _http(
                    host, port, "POST", "/v1/search", query,
                    {"x-api-key": "key-tight"})
                out["metrics"] = await _http(host, port, "GET",
                                             "/metrics")
                out["stats"] = await _http(host, port, "GET",
                                           "/stats")
                out["lost"] = await _http(host, port, "GET",
                                          "/nowhere")
                out["verb"] = await _http(host, port, "GET",
                                          "/v1/search")
                out["garbled"] = await _http(
                    host, port, "POST", "/v1/search", b"{nope",
                    {"x-api-key": "key-alpha"})
                # Regression: either used to escape _read_request as an
                # unhandled exception — the client read b"".
                for length in ("abc", "-5"):
                    out[f"length {length}"] = await _http(
                        host, port, "POST", "/v1/search", query,
                        {"x-api-key": "key-alpha"},
                        content_length=length)
                return out

        out = asyncio.run(drive())
        status, _, payload = out["search"]
        assert status == 200
        assert json.loads(payload)["status"] == "ok"
        assert out["bad_key"][0] == 401
        status, hdrs, payload = out["limited"]
        assert status == 429
        assert int(hdrs["retry-after"]) >= 1
        assert json.loads(payload)["status"] == "rate_limited"
        status, hdrs, payload = out["metrics"]
        assert status == 200
        assert hdrs["content-type"].startswith("text/plain")
        assert b"repro_gateway_requests_total" in payload
        assert json.loads(out["stats"][2])["served"] >= 1
        assert out["lost"][0] == 404
        assert out["verb"][0] == 405
        assert out["garbled"][0] == 400
        for length in ("abc", "-5"):
            status, _, payload = out[f"length {length}"]
            assert status == 400
            assert "Content-Length" in json.loads(payload)["error"]
        gw.backend.shutdown()

    def test_shards_on_the_wire_cannot_poison_the_breakers(
            self, small_db, small_queries):
        """Regression: ``"shards": 2`` with a bogus strategy used to
        raise inside every ladder rung, so three such bodies opened
        all five engine breakers and the next well-formed request was
        refused ``overloaded``.  The field is now refused at decode —
        400, before admission — and the breakers never see it."""
        gw = _gateway(small_db)
        good = _request(small_queries, method="gpu_temporal",
                        params={"num_bins": 40}).to_dict()
        poison = json.dumps({**good, "shards": 2,
                             "partition_strategy": "bogus"}).encode()
        headers = {"x-api-key": "key-alpha"}

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                host, port = server.host, server.port
                refused = [await _http(host, port, "POST", "/v1/search",
                                       poison, headers)
                           for _ in range(3)]
                served = await _http(host, port, "POST", "/v1/search",
                                     json.dumps(good).encode(), headers)
                return refused, served

        # Bounded: before the fix the first poisoned body never got a
        # reply at all.
        refused, served = asyncio.run(asyncio.wait_for(drive(), 60))
        for status, _, payload in refused:
            assert status == 400
            assert "ShardedService" in json.loads(payload)["error"]
        breakers = gw.backend.stats()["breakers"]
        assert breakers and all(b["state"] == "closed"
                                for b in breakers.values())
        status, _, payload = served
        assert status == 200
        answer = ResultSet.from_dict(
            json.loads(payload)["response"]["outcome"]["results"])
        truth, _ = CpuScanEngine(small_db).search(small_queries, D)
        assert result_bytes(answer) == result_bytes(truth)
        gw.backend.shutdown()

    def test_bad_planner_hint_is_refused_not_degraded(
            self, small_db, small_queries):
        """A bad hint on ``method="auto"`` is the caller's error like a
        bad engine parameter: ``invalid`` / 400, not ``200 ok`` from
        ``cpu_scan`` with a degradation nobody asked for."""
        gw = _gateway(small_db)
        bodies = [json.dumps(_request(
            small_queries, rid=f"hint-{i}", method="auto",
            params=params).to_dict()).encode()
            for i, params in enumerate(BAD_PLANNER_HINTS)]
        direct = asyncio.run(gw.search("key-alpha", _request(
            small_queries, method="auto", params=BAD_PLANNER_HINTS[0])))
        assert direct.status == "invalid"
        assert "num_bins must be a positive integer" in direct.reason

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return [await _http(server.host, server.port, "POST",
                                    "/v1/search", body,
                                    {"x-api-key": "key-alpha"})
                        for body in bodies]

        for status, _, payload in asyncio.run(
                asyncio.wait_for(drive(), 30)):
            assert status == 400
            assert json.loads(payload)["status"] == "invalid"
        events = gw.backend.telemetry.events
        assert not events.of_kind("degradation")
        assert all(b["state"] == "closed"
                   for b in gw.backend.stats()["breakers"].values())
        gw.backend.shutdown()

    def test_backend_exception_does_not_silence_the_gateway(
            self, small_db, small_queries):
        """Regression: a request that passes decode but makes the
        backend raise (a misspelled engine param -> ``ConfigError``)
        used to kill the drain worker — its caller never got a reply
        and everything queued behind it hung.  Now it is a typed 400
        and the worker keeps draining."""
        gw = _gateway(small_db)
        bad = json.dumps(_request(
            small_queries, rid="bad", method="gpu_temporal",
            params={"num_binz": 5}).to_dict()).encode()
        good = json.dumps(_request(
            small_queries, rid="good", method="cpu_scan"
        ).to_dict()).encode()
        headers = {"x-api-key": "key-alpha"}

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                host, port = server.host, server.port
                # Both in flight at once: the good one queues behind
                # the bad one.
                return await asyncio.gather(
                    _http(host, port, "POST", "/v1/search", bad,
                          headers),
                    _http(host, port, "POST", "/v1/search", good,
                          headers))

        refused, served = asyncio.run(asyncio.wait_for(drive(), 10))
        status, _, payload = refused
        assert status == 400
        body = json.loads(payload)
        assert body["status"] == "invalid" and "num_binz" in body["reason"]
        status, _, payload = served
        assert status == 200
        answer = ResultSet.from_dict(
            json.loads(payload)["response"]["outcome"]["results"])
        truth, _ = CpuScanEngine(small_db).search(small_queries, D)
        assert result_bytes(answer) == result_bytes(truth)
        breakers = gw.backend.stats()["breakers"]
        assert all(b["state"] == "closed" for b in breakers.values())
        gw.backend.shutdown()

    def test_backend_crash_is_a_typed_internal_500(
            self, small_db, small_queries):
        """Any other backend exception is answered ``internal`` (HTTP
        500, not retryable), counted, and the next request is served."""
        gw = _gateway(small_db)
        real_submit = gw.backend.submit

        def flaky(request):
            if request.request_id == "boom":
                raise RuntimeError("backend fell over")
            return real_submit(request)

        gw.backend.submit = flaky

        async def drive():
            return await asyncio.gather(
                gw.search("key-alpha", _request(small_queries, "boom")),
                gw.search("key-alpha", _request(small_queries, "next",
                                                method="cpu_scan")))

        boom, served = asyncio.run(asyncio.wait_for(drive(), 10))
        assert boom.status == "internal" and not boom.retryable
        assert "backend fell over" in boom.reason
        assert GatewayHTTPServer._encode(boom)[0] == 500
        assert served.ok
        assert gw.telemetry.metrics.counter(
            "repro_gateway_backend_errors_total").total() == 1
        gw.backend.shutdown()


    def test_mutation_backend_crash_gets_a_reply(self, small_db,
                                                 small_queries):
        """Regression: ``_mutate`` caught ``IngestError`` only, so any
        other backend exception on a mutation escaped the connection
        handler — the client read ``b""``.  Now it mirrors the search
        path over the real server: 500 ``internal`` (400 ``invalid``
        for a ``ValueError``), counted, and the same gateway serves
        the next request."""
        gw = _gateway(small_db)
        real_delete = gw.backend.delete_trajectory

        def flaky(traj_id, **kwargs):
            if traj_id == 1:
                raise RuntimeError("disk fell off")
            if traj_id == 2:
                raise ValueError("not like that")
            return real_delete(traj_id, **kwargs)

        gw.backend.delete_trajectory = flaky
        headers = {"x-api-key": "key-alpha"}

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return [await _http(
                    server.host, server.port, "POST", "/v1/delete",
                    json.dumps({"traj_id": tid}).encode(), headers)
                    for tid in (1, 2, 0)]

        boom, refused, served = asyncio.run(
            asyncio.wait_for(drive(), 10))
        status, _, payload = boom
        assert status == 500
        body = json.loads(payload)
        assert body["status"] == "internal"
        assert "disk fell off" in body["reason"]
        status, _, payload = refused
        assert status == 400
        assert json.loads(payload)["status"] == "invalid"
        status, _, payload = served
        assert status == 200
        assert json.loads(payload)["receipt"]["hidden"] > 0
        assert gw.telemetry.metrics.counter(
            "repro_gateway_backend_errors_total").total() == 1
        assert any(e.kind == "gateway_backend_error"
                   for e in gw.telemetry.events)
        gw.backend.shutdown()

    def test_over_long_header_is_a_400(self, small_db, caplog):
        """Regression: a header line over asyncio's 64 KiB stream limit
        raised ``ValueError`` out of the header loop — asyncio logged
        "Unhandled exception in client_connected_cb" and the client
        read ``b""``.  It is unreadable framing: 400, then hang up."""
        gw = _gateway(small_db)

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return await _http(server.host, server.port, "GET",
                                   "/stats", b"",
                                   {"x-padding": "a" * (70 * 1024)})

        with caplog.at_level(logging.ERROR):
            status, _, payload = asyncio.run(
                asyncio.wait_for(drive(), 10))
        assert status == 400
        assert "header line too long" in json.loads(payload)["error"]
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR]
        gw.backend.shutdown()

    @pytest.mark.parametrize("trickle", [False, True],
                             ids=["half_request_line", "trickled_headers"])
    def test_slow_request_is_a_408(self, small_db, caplog, monkeypatch,
                                   trickle):
        """Regression: the request read had no timeout, so a client
        that sent part of a request and went idle (or sent its headers
        one byte at a time) parked its handler for as long as the
        server ran.  A request not whole in ``READ_TIMEOUT_S`` is
        answered 408 and its connection closed."""
        monkeypatch.setattr(gateway_http, "READ_TIMEOUT_S", 0.3)
        gw = _gateway(small_db)

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                raw = b""
                if trickle:
                    writer.write(b"GET /stats HTTP/1.1\r\n")
                    for byte in b"x-slow: " + b"a" * 40:
                        writer.write(bytes([byte]))
                        try:  # one byte per 50 ms until answered
                            raw = await asyncio.wait_for(reader.read(1),
                                                         0.05)
                            break
                        except asyncio.TimeoutError:
                            pass
                else:
                    writer.write(b"GET /stats HTT")
                raw += await reader.read()
                writer.close()
                return raw

        with caplog.at_level(logging.ERROR):
            raw = asyncio.run(asyncio.wait_for(drive(), 10))
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 Request Timeout")
        assert "request not received within 0.3 s" in \
            json.loads(payload)["error"]
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR]
        gw.backend.shutdown()

    def test_idle_connection_is_closed_without_a_reply(self, small_db,
                                                       monkeypatch):
        """A keep-alive connection that sends nothing for
        ``READ_TIMEOUT_S`` is closed; no 408, since no request began."""
        monkeypatch.setattr(gateway_http, "READ_TIMEOUT_S", 0.3)
        gw = _gateway(small_db)

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                raw = await reader.read()
                writer.close()
                return raw

        assert asyncio.run(asyncio.wait_for(drive(), 10)) == b""
        gw.backend.shutdown()

    def test_stop_hangs_up_on_an_idle_connection(self, small_db, caplog):
        """An idle keep-alive client neither keeps ``stop()`` waiting
        (on Python >= 3.12 ``wait_closed`` waits for every connection)
        nor leaves a parked handler to be cancelled at loop teardown:
        ``stop()`` closes a connection with no request in flight."""
        gw = _gateway(small_db)

        async def drive():
            server = GatewayHTTPServer(gw)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            writer.write(b"GET /stats HTTP/1.1\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")  # answered; now idle
            t0 = asyncio.get_running_loop().time()
            await server.stop()
            stopped_s = asyncio.get_running_loop().time() - t0
            await reader.read()  # the rest of the answer, then EOF
            writer.close()
            return stopped_s, reader.at_eof()

        with caplog.at_level(logging.ERROR):
            stopped_s, eof = asyncio.run(asyncio.wait_for(drive(), 10))
        assert stopped_s < 1.0 and eof
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR]
        gw.backend.shutdown()

    @pytest.mark.parametrize("traj_id", [b"0.9", b"true", b'"0"'])
    def test_non_integer_traj_id_deletes_nothing(self, small_db,
                                                 traj_id):
        """Regression: ``int()`` turned 0.9 into trajectory 0 and
        ``true`` into trajectory 1 — a 200 that tombstoned the wrong
        trajectory.  The ``Mutation`` refuses it: 400, nothing hidden."""
        gw = _gateway(small_db)

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return await _http(server.host, server.port, "POST",
                                   "/v1/delete",
                                   b'{"traj_id": ' + traj_id + b"}",
                                   {"x-api-key": "key-alpha"})

        status, _, payload = asyncio.run(asyncio.wait_for(drive(), 10))
        assert status == 400
        body = json.loads(payload)
        assert body["status"] == "invalid"
        assert "traj_id must be an integer" in body["reason"]
        assert gw.backend.versioned.epoch == 0
        assert gw.backend.stats()["ingest"]["deletes"] == 0
        gw.backend.shutdown()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_coordinates_are_a_400(self, small_db,
                                              small_queries, value):
        """A NaN/inf append used to be WAL-logged and bump the epoch
        (its rows can never match); a NaN/inf query got an empty ok
        answer.  Both are refused with a 400."""
        gw = _gateway(small_db)
        headers = {"x-api-key": "key-alpha"}
        search = _request(small_queries, method="cpu_scan").to_dict()
        search["queries"] = poisoned(small_queries, value).to_dict()
        ingest = {"segments": poisoned(_fresh_walk(7), value,
                                       column="ys").to_dict()}

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return [await _http(server.host, server.port, "POST",
                                    path, json.dumps(body).encode(),
                                    headers)
                        for path, body in (("/v1/search", search),
                                           ("/v1/ingest", ingest))]

        for status, _, payload in asyncio.run(
                asyncio.wait_for(drive(), 10)):
            assert status == 400
            assert "NaN or infinite" in payload.decode()
        assert gw.backend.versioned.epoch == 0
        gw.backend.shutdown()

    @pytest.mark.parametrize("body", [b"[]", b"1", b'"x"'])
    @pytest.mark.parametrize("path", ["/v1/search", "/v1/ingest",
                                      "/v1/delete"])
    def test_non_object_json_body_is_a_400(self, small_db, path, body):
        """Regression: a body that parses but is not a JSON object made
        ``SearchRequest.from_dict`` raise ``AttributeError`` inside the
        connection handler — the client read ``b""``.  Every POST route
        now refuses it before decoding the fields."""
        gw = _gateway(small_db)

        async def drive():
            async with GatewayHTTPServer(gw) as server:
                return await _http(server.host, server.port, "POST",
                                   path, body,
                                   {"x-api-key": "key-alpha"})

        status, _, payload = asyncio.run(asyncio.wait_for(drive(), 10))
        assert status == 400
        assert "bad JSON body" in json.loads(payload)["error"]
        assert gw.backend.versioned.epoch == 0
        gw.backend.shutdown()


class TestOverloadCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return overload.run(OverloadConfig(seed=1))

    def test_campaign_stays_civilized(self, report):
        assert report.ok, report.render()
        assert not report.mismatches and not report.missing_hints
        assert report.verified == report.search_answered > 0

    def test_every_overload_regime_occurred(self, report):
        assert report.sheds >= 1 and report.queue_full >= 1
        assert report.expired_in_queue >= 1
        assert report.brownout_transitions >= 1
        assert report.outcomes["rate_limited"] >= 1
        assert report.outcomes["quota_exceeded"] >= 1
        assert report.outcomes["deadline_exceeded"] >= 1

    def test_exactly_once_held_across_the_crash(self, report):
        assert report.recoveries == 1
        assert report.dedups >= 1
        assert report.post_recovery_dedup

    def test_latency_covers_both_priorities(self, report):
        assert set(report.latency) == {"interactive", "batch"}
        for pct in report.latency.values():
            assert pct["count"] > 0
            assert 0 < pct["p50_ms"] <= pct["p99_ms"]

    def test_report_round_trips_and_renders(self, report):
        back = json.loads(json.dumps(report.to_dict()))
        assert back["ok"] is True
        assert back["answered"] == report.answered
        entry = json.loads(json.dumps(report.bench_entry()))
        assert set(entry) == {"seed", "requests", "answered",
                              "latency", "outcomes"}
        text = report.render()
        assert "overload campaign report" in text
        assert ["post_recovery_dedup", "True"] in [
            line.split() for line in text.splitlines()]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="saturate"):
            OverloadConfig(queue_depth=9)
        with pytest.raises(ValueError, match="inside the campaign"):
            OverloadConfig(num_bursts=4, crash_at_burst=4)
