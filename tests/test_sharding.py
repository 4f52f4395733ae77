"""Tests for the sharded serving layer: exact scatter-gather, replica
failover, partial answers, op-log recovery, and divergence detection."""

import json

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory
from repro.engines import CpuScanEngine
from repro.campaigns.harness import result_bytes
from repro.campaigns.shards import (SHARD_FAULT_KINDS, ShardsConfig,
                                    ShardsReport,
                                    run as run_shard_campaign)
from repro.ingest import IngestError
from repro.obs import Telemetry
from repro.service import SearchRequest
from repro.sharding import (PARTITION_STRATEGIES, MergeInvariantError,
                            ShardMap, ShardedService)
from tests.conftest import (NON_FINITE, make_walk_trajectories, poisoned,
                            series_value)

D = 4.0


def _db(num_traj=10, steps=6, seed=3, offset=0):
    trajs = make_walk_trajectories(num_traj, steps, seed=seed)
    if offset:
        trajs = [Trajectory(t.traj_id + offset, t.times, t.positions)
                 for t in trajs]
    return SegmentArray.from_trajectories(trajs)


@pytest.fixture(scope="module")
def queries():
    """Query walks chosen so the whole-database truth is non-empty —
    exactness assertions must never be vacuous (empty == empty)."""
    return _db(5, 8, seed=80, offset=9000)


def _truth_bytes(db, queries, keep_seg_ids=None):
    logical = db
    if keep_seg_ids is not None:
        mask = np.isin(db.seg_ids, keep_seg_ids)
        logical = db.take(np.flatnonzero(mask))
    return result_bytes(CpuScanEngine(logical).search(queries, D)[0])


def _request(queries, method="cpu_scan", rid="r0"):
    return SearchRequest(queries=queries, d=D, method=method,
                         request_id=rid)


def _whole(db, *appends, deletes=()):
    """Whole-database referee: same global seg_id stamping the router
    applies (a plain VersionedDatabase restamps appends identically)."""
    from repro.ingest import VersionedDatabase
    ref = VersionedDatabase(db)
    for fresh in appends:
        ref.append(fresh)
    for tid in deletes:
        ref.delete_trajectory(tid)
    return ref.snapshot().logical()


class TestExactScatterGather:
    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_merged_answer_matches_whole_database(self, strategy,
                                                  queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3, strategy=strategy,
                            durability_root=tmp_path) as svc:
            resp = svc.submit(_request(queries))
            assert resp.ok
            assert len(resp.outcome.results) > 0, "vacuous truth"
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(db, queries)

    def test_gpu_methods_merge_exactly(self, queries):
        db = _db()
        with ShardedService(db, num_shards=3) as svc:
            for method in ("gpu_temporal", "cpu_rtree", "auto"):
                resp = svc.submit(_request(queries, method=method))
                assert resp.ok, resp.reason
                assert result_bytes(resp.outcome.results) == \
                    _truth_bytes(db, queries)

    def test_more_shards_than_trajectories(self, queries):
        db = _db(2, 4, seed=5)
        with ShardedService(db, num_shards=8) as svc:
            assert len([s for s in svc.shards if s.replicas]) <= 2
            resp = svc.submit(_request(queries))
            assert resp.ok
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(db, queries)

    def test_modeled_time_is_slowest_leg(self, queries):
        db = _db()
        with ShardedService(db, num_shards=3) as svc:
            resp = svc.submit(_request(queries, method="gpu_temporal"))
            assert resp.outcome.modeled.total > 0.0


class TestMutationRouting:
    def test_ingest_routes_and_stays_exact(self, queries, tmp_path):
        db = _db()
        fresh = _db(2, 5, seed=11, offset=500)
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            receipt = svc.ingest(fresh)
            assert receipt["segments"] == len(fresh)
            assert receipt["routed"]
            assert sum(receipt["routed"].values()) == len(fresh)
            resp = svc.submit(_request(queries))
            assert resp.ok
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(_whole(db, fresh), queries)

    def test_global_seg_ids_are_unique_across_shards(self, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.ingest(_db(2, 5, seed=11, offset=500))
            ids = np.concatenate([
                r.service.versioned.snapshot().logical().seg_ids
                for s in svc.shards for r in s.replicas
                if r.live and r.index == 0])
            assert ids.size == np.unique(ids).size

    def test_delete_fans_out_and_stays_exact(self, queries):
        db = _db()
        with ShardedService(db, num_shards=3) as svc:
            victim = int(db.traj_ids[0])
            hidden = svc.delete_trajectory(victim)
            assert hidden > 0
            keep = db.take(np.flatnonzero(db.traj_ids != victim))
            resp = svc.submit(_request(queries))
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(keep, queries)
            # Idempotent: a second delete is a no-op.
            assert svc.delete_trajectory(victim) == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_append_is_refused_before_stamping(
            self, queries, value):
        """The router builds its Mutation before it stamps or routes a
        row, so the refusal reaches no replica and marks none dead."""
        db = _db()
        with ShardedService(db, num_shards=3) as svc:
            bad = poisoned(_db(2, 5, seed=11, offset=500), value, row=2)
            with pytest.raises(IngestError, match="NaN or infinite"):
                svc.ingest(bad)
            assert all(r.live and r.service.versioned.epoch == 0
                       for s in svc.shards for r in s.replicas)
            assert [(s.epoch, s.oplog) for s in svc.shards] \
                == [(0, [])] * 3
            resp = svc.submit(_request(queries))
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(db, queries)

    def test_delete_refusals(self):
        db = _db()
        with ShardedService(db, num_shards=3) as svc:
            with pytest.raises(IngestError):
                svc.delete_trajectory(424242)
            victim = int(db.traj_ids[0])
            svc.delete_trajectory(victim)
            with pytest.raises(IngestError):
                # Re-using a deleted trajectory id is refused.
                svc.ingest(_db(1, 4, seed=9, offset=victim))

    def test_compaction_is_routed_and_exact(self, queries, tmp_path):
        from repro.ingest import CompactionPolicy
        db = _db()
        with ShardedService(
                db, num_shards=3, durability_root=tmp_path,
                service_kwargs={"compaction": CompactionPolicy(
                    max_delta_segments=4)}) as svc:
            appends = [_db(1, 5, seed=20 + k, offset=600 + 10 * k)
                       for k in range(3)]
            for fresh in appends:
                svc.ingest(fresh)
            assert any(mutation.op == "compact" for s in svc.shards
                       for _, mutation in s.oplog)
            resp = svc.submit(_request(queries))
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(_whole(db, *appends), queries)


class TestFailover:
    def test_kill_one_replica_keeps_exact_answers(self, queries,
                                                  tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            killed = svc.kill_replica(0)
            assert killed is not None and not killed.live
            for i in range(3):
                resp = svc.submit(_request(queries, rid=f"k{i}"))
                assert resp.ok
                assert result_bytes(resp.outcome.results) == \
                    _truth_bytes(db, queries)

    def test_blackout_answers_partial_over_survivors(self, queries,
                                                     tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            assert svc.blackout_shard(1) == 2
            resp = svc.submit(_request(queries))
            assert resp.status == "partial"
            assert resp.partial
            assert resp.missing_shards == (1,)
            surviving = np.concatenate(
                [svc.plan.seg_ids_of(s) for s in (0, 2)])
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(db, queries, keep_seg_ids=surviving)

    def test_partial_requires_both_replicas_down(self, queries,
                                                 tmp_path):
        """One live replica left => still a full, exact answer."""
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.kill_replica(1, 0)
            resp = svc.submit(_request(queries))
            assert resp.status == "ok"
            assert resp.missing_shards == ()

    def test_recover_replica_rejoins_exactly(self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.blackout_shard(0)
            fresh = _db(1, 5, seed=31, offset=700)
            svc.ingest(fresh)  # shard 0 dark: op-log only
            whole = _whole(db, fresh)
            for r in (0, 1):
                replica = svc.recover_replica(0, r)
                assert replica.live
                assert replica.service.versioned.epoch == \
                    svc.shards[0].epoch
            resp = svc.submit(_request(queries))
            assert resp.status == "ok"
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(whole, queries)

    def test_memory_only_recovery_replays_full_oplog(self, queries):
        db = _db()
        with ShardedService(db, num_shards=3) as svc:  # no durability
            shard = next(s.index for s in svc.shards if s.replicas)
            svc.ingest(_db(1, 4, seed=41, offset=800))
            svc.kill_replica(shard, 0)
            replica = svc.recover_replica(shard, 0)
            assert replica.live
            assert replica.service.versioned.epoch == \
                svc.shards[shard].epoch

    def test_recover_live_replica_is_an_error(self, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            with pytest.raises(ValueError):
                svc.recover_replica(0, 0)

    @pytest.mark.parametrize("hook, args, bound", [
        ("kill_replica", (3,), 3),
        ("kill_replica", (-1,), 3),
        ("kill_replica", (0, 2), 2),
        ("kill_replica", (0, -1), 2),
        ("blackout_shard", (99,), 3),
        ("blackout_shard", (-1,), 3),
        ("recover_replica", (3, 0), 3),
        ("recover_replica", (-1, 0), 3),
        ("recover_replica", (0, 2), 2),
    ])
    def test_chaos_hooks_refuse_indices_outside_the_layout(
            self, hook, args, bound):
        """A negative index must not wrap around to the last shard or
        replica, and one past the end is a ValueError naming the range,
        never an IndexError; nothing is killed either way."""
        with ShardedService(_db(), num_shards=3,
                            replicas_per_shard=2) as svc:
            if hook == "recover_replica":
                svc.blackout_shard(0)
            before = svc.live_map()
            with pytest.raises(ValueError,
                               match=rf"outside \[0, {bound}\)"):
                getattr(svc, hook)(*args)
            assert svc.live_map() == before

    def test_recovering_a_replica_of_an_empty_shard_is_refused(self):
        with ShardedService(_db(2, 4, seed=5), num_shards=8) as svc:
            empty = next(s.index for s in svc.shards if not s.replicas)
            with pytest.raises(ValueError, match="runs no replicas"):
                svc.recover_replica(empty, 0)


class TestDivergenceDetection:
    """Satellite: a stale (pre-ingest epoch) replica is detected via
    the epoch carried in its SearchResponse and re-fetched from a
    healthy replica — never silently merged."""

    def test_stale_replica_discarded_and_refetched(self, queries,
                                                   tmp_path):
        from repro.service import QueryService
        db = _db()
        telemetry = Telemetry(enabled=True)
        with ShardedService(db, num_shards=3, telemetry=telemetry,
                            durability_root=tmp_path) as svc:
            shard = svc.shards[0]
            svc.kill_replica(0, 1)          # dies before the ingest
            # Extend a trajectory shard 0 already owns, so the ingest
            # is guaranteed to route there and advance its epoch.
            tid = next(int(t) for t in np.unique(db.traj_ids)
                       if svc.plan.shards_of(int(t)) == (0,))
            fresh = _db(1, 5, seed=51, offset=tid)
            svc.ingest(fresh)               # shard 0's epoch advances
            assert shard.epoch == 1
            # Resurrect replica 1 *stale*: pristine base, no catch-up
            # (simulating a replica that lost the mutation).
            shard.replicas[1].service = QueryService(
                shard.base, telemetry=Telemetry(enabled=False),
                **svc.service_kwargs)
            shard.rr = 1                    # stale replica tried first
            resp = svc.submit(_request(queries))
            assert resp.status == "ok"
            assert result_bytes(resp.outcome.results) == \
                _truth_bytes(_whole(db, fresh), queries)
            assert telemetry.metrics.counter(
                "repro_router_epoch_mismatch_total").total() >= 1

    def test_merge_invariant_raises_on_overlap(self, queries,
                                               tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            # Pick a shard whose leg actually has matches so the
            # duplicated part really overlaps.
            shard, leg = next(
                (s, r) for s in svc.shards if s.replicas
                for r in [s.replicas[0].service.submit(
                    _request(queries))]
                if r.ok and len(r.outcome.results) > 0)
            with pytest.raises(MergeInvariantError):
                svc._merge_outcomes(_request(queries),
                                    [(shard, leg), (shard, leg)])


_MERGES = [
    pytest.param(strategy, n, id=f"router-{strategy}-{n}")
    for strategy in sorted(PARTITION_STRATEGIES) for n in (1, 2, 3, 8)
]


class TestOneMerge:
    """The one partition-and-merge path, the router, splits D and goes
    through ``repro.core.merge``: its answer is byte-identical to the
    whole-database referee, and it refuses overlapping parts
    (``test_merge_invariant_raises_on_overlap`` above)."""

    @pytest.mark.parametrize("strategy, n", _MERGES)
    def test_merge_matches_whole_database(self, strategy, n, queries):
        db = _db()
        with ShardedService(db, num_shards=n, replicas_per_shard=1,
                            strategy=strategy) as svc:
            resp = svc.submit(_request(queries))
        assert resp.ok, resp.reason
        merged = resp.outcome.results
        assert len(merged) > 0, "vacuous truth"
        assert result_bytes(merged) == _truth_bytes(db, queries)


class TestShardMap:
    def test_would_empty_and_shards_of(self):
        db = _db(3, 4, seed=8)
        plan = ShardMap(db, 3, "round_robin")
        for tid in np.unique(db.traj_ids).tolist():
            shards = plan.shards_of(int(tid))
            assert len(shards) == 1
            assert plan.would_empty(int(tid)) == list(shards)

    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_assign_append_routes_to_nonempty_shards(self, strategy):
        db = _db(4, 4, seed=8)
        plan = ShardMap(db, 6, strategy)
        fresh = _db(2, 4, seed=13, offset=300)
        routed = plan.assign_append(fresh)
        total = 0
        for shard, rows in routed:
            assert len(rows) > 0
            assert plan._seg_counts[shard] >= len(rows)
            total += len(rows)
        assert total == len(fresh)

    def test_known_trajectory_keeps_its_shard(self):
        db = _db(4, 4, seed=8)
        plan = ShardMap(db, 2, "round_robin")
        tid = int(db.traj_ids[0])
        home = plan.shards_of(tid)[0]
        more = _db(1, 3, seed=99, offset=tid)  # same trajectory id
        routed = plan.assign_append(more)
        assert [shard for shard, _ in routed] == [home]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(_db(), 2, "zigzag")


class TestObservability:
    def test_merged_metrics_carry_shard_labels(self, queries,
                                               tmp_path):
        db = _db()
        telemetry = Telemetry(enabled=True)
        with ShardedService(db, num_shards=3, telemetry=telemetry,
                            durability_root=tmp_path) as svc:
            svc.submit(_request(queries))
            text = svc.merged_metrics().to_prometheus_text()
            assert 'shard="0"' in text
            assert 'replica="0"' in text
            assert "repro_router_requests_total" in text

    def test_stats_shape(self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.submit(_request(queries))
            stats = svc.stats()
            assert stats["requests"] == 1
            assert len(stats["shards"]) == 3
            json.dumps(stats)  # JSON-friendly


class TestPartialResponseContract:
    def test_partial_round_trips(self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.blackout_shard(2)
            resp = svc.submit(_request(queries))
            assert resp.status == "partial"
            payload = json.loads(json.dumps(resp.to_dict()))
            assert payload == resp.to_dict()
            assert payload["status"] == "partial"
            assert payload["missing_shards"] == [2]
            assert payload["outcome"] is not None

    def test_partial_requires_missing_shards(self):
        from repro.gpu.profiler import RequestMetrics
        from repro.service import SearchResponse
        with pytest.raises(ValueError):
            SearchResponse(request_id="x", outcome=None,
                           metrics=RequestMetrics(engine="t"),
                           status="partial")

    def test_missing_shards_only_on_partial(self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            resp = svc.submit(_request(queries))
            assert resp.status == "ok"
            assert resp.missing_shards == ()


class TestShardCampaign:
    def test_small_campaign_survives(self, tmp_path):
        cfg = ShardsConfig(seed=0, num_requests=40,
                                  kill_every=7, recover_after=4,
                                  methods=("cpu_scan", "cpu_rtree"))
        report = run_shard_campaign(cfg, directory=tmp_path)
        assert report.ok, report.to_dict()
        assert report.total == 40
        assert all(report.fired_by_kind.get(k, 0) > 0
                   for k in SHARD_FAULT_KINDS)
        assert report.recoveries >= 1
        assert report.mismatches == []

    def test_report_round_trip_and_render(self, tmp_path):
        cfg = ShardsConfig(seed=1, num_requests=24,
                                  kill_every=5, recover_after=3,
                                  methods=("cpu_scan",))
        report = run_shard_campaign(cfg, directory=tmp_path)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] == report.ok
        assert payload["config"]["seed"] == 1
        text = report.render()
        assert "shards campaign report" in text
        assert "final_exact" in text

    def test_memory_only_campaign(self):
        cfg = ShardsConfig(seed=2, num_requests=24,
                                  kill_every=5, recover_after=3,
                                  durable=False,
                                  methods=("cpu_scan",))
        report = run_shard_campaign(cfg)
        assert report.ok, report.to_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardsConfig(num_requests=0)
        with pytest.raises(ValueError):
            ShardsConfig(recover_after=0)

    def test_ok_gate_demands_all_kinds(self):
        report = ShardsReport(config=ShardsConfig(num_requests=1))
        report.outcomes = {"ok": 1}
        report.verified = 1
        report.final_exact = True
        report.recoveries = 1
        report.fired_by_kind = {"shard_kill": 2}  # no blackout
        assert not report.ok
        report.fired_by_kind["shard_blackout"] = 1
        assert report.ok


class TestDeadlinePropagation:
    def test_exhausted_budget_is_typed_never_partial(self, queries,
                                                     tmp_path):
        """A budget that is gone before the scatter must come back as
        deadline_exceeded from the router itself — not as a vacuously
        'partial' answer over whichever shards happened to finish."""
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            req = SearchRequest(queries=queries, d=D,
                                method="cpu_scan", request_id="dl0",
                                deadline_s=1e-12)
            resp = svc.submit(req)
            assert resp.status == "deadline_exceeded"
            assert not resp.partial and resp.missing_shards == ()
            assert resp.metrics.engine == "router"
            assert "no replica was dispatched" in resp.reason
            reg = svc.telemetry.metrics
            assert reg.counter(
                "repro_router_deadline_rejects_total").total() >= 1

    def test_dead_budget_beats_partial_even_under_blackout(
            self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.blackout_shard(1)
            req = SearchRequest(queries=queries, d=D,
                                method="cpu_scan", request_id="dl1",
                                deadline_s=1e-12)
            resp = svc.submit(req)
            assert resp.status == "deadline_exceeded"
            assert not resp.partial

    def test_no_replica_ever_sees_a_nonpositive_budget(self, queries,
                                                       tmp_path):
        """Slow legs burn the scatter's shared budget; downstream
        shards must either get the positive remainder or a router-side
        rejection — never a dispatch with deadline_s <= 0."""
        import time as _time

        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            leg_budgets = []
            for shard in svc.shards:
                for replica in shard.replicas:
                    orig = replica.service.submit

                    def slow(request, _orig=orig):
                        leg_budgets.append(request.deadline_s)
                        _time.sleep(0.06)
                        return _orig(request)

                    replica.service.submit = slow
            req = SearchRequest(queries=queries, d=D,
                                method="cpu_scan", request_id="dl2",
                                deadline_s=0.1)
            resp = svc.submit(req)
            # Two 60ms legs exhaust the 100ms budget mid-scatter.
            assert resp.status == "deadline_exceeded"
            assert leg_budgets, "no shard leg was dispatched at all"
            assert all(b is not None and b > 0 for b in leg_budgets)
            assert len(leg_budgets) < 2 * len(svc.shards)

    def test_leg_budget_never_exceeds_the_remaining_budget(
            self, queries, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            leg_budgets = []
            for shard in svc.shards:
                for replica in shard.replicas:
                    orig = replica.service.submit

                    def spy(request, _orig=orig):
                        leg_budgets.append(request.deadline_s)
                        return _orig(request)

                    replica.service.submit = spy
            req = SearchRequest(queries=queries, d=D,
                                method="cpu_scan", request_id="dl3",
                                deadline_s=30.0)
            assert svc.submit(req).status == "ok"
            assert len(leg_budgets) == 3
            assert all(0 < b <= 30.0 for b in leg_budgets)


class TestRouterIdempotency:
    def test_keyed_ingest_applies_exactly_once(self, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            fresh = _db(1, 5, seed=33, offset=800)
            first = svc.ingest(fresh, idempotency_key="put-9")
            epochs = {s.index: s.epoch for s in svc.shards}
            again = svc.ingest(fresh, idempotency_key="put-9")
            assert again["deduplicated"] is True
            assert again["segments"] == first["segments"]
            assert again["routed"] == first["routed"]
            # Nothing re-applied: every shard epoch is unchanged.
            assert {s.index: s.epoch for s in svc.shards} == epochs
            assert series_value(svc.telemetry.metrics,
                                "repro_idempotent_dedups_total",
                                op="append") == 1

    def test_keyed_delete_replays_the_receipt(self, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            first = svc.delete_trajectory(3, idempotency_key="del-3")
            assert first > 0
            again = svc.delete_trajectory(3, idempotency_key="del-3")
            assert again == first  # unkeyed retry would return 0
            assert svc.delete_trajectory(3) == 0
            assert series_value(svc.telemetry.metrics,
                                "repro_idempotent_dedups_total",
                                op="delete") == 1

    def test_key_cannot_cross_operation_kinds(self, tmp_path):
        db = _db()
        with ShardedService(db, num_shards=3,
                            durability_root=tmp_path) as svc:
            svc.ingest(_db(1, 5, seed=34, offset=850),
                       idempotency_key="mut-1")
            with pytest.raises(IngestError, match="named a"):
                svc.delete_trajectory(2, idempotency_key="mut-1")
