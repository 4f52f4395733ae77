"""Standing queries under process death: no lost or duplicated events.

Two layers of proof:

* **Kill-point campaigns** — the full standing campaign (streaming
  fleet, subscriptions, compactions, exactness referee after every
  mutation) is run once per :data:`~repro.durability.KILL_POINTS`
  class; every run must crash, recover, resume, and stay byte-exact.
* **Event-stream parity** — the same schedule is driven through an
  uninterrupted in-memory service and through a durable service that
  crashes mid-stream and recovers; the full delta-event streams
  (seq, epoch, kind, sub, pair) must be *identical*, pinning the
  recovery contract exactly: acknowledged events are never lost, never
  re-emitted, and catch-up events carry the same epoch stamps an
  uninterrupted run would have produced.

Plus sidecar damage: a torn (half-written) standing event line must be
detected, counted, and dropped without losing anything durable.
"""

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory
from repro.durability import (DurabilityPolicy, KILL_POINTS,
                              KillSwitch, SimulatedCrash)
from repro.engines.cpu_scan import CpuScanEngine
from repro.campaigns.harness import result_bytes
from repro.campaigns.standing import (FLEET, POLICY, StandingConfig,
                                      _make_subscriptions, _materialize,
                                      run as run_standing_campaign)
from repro.obs import Telemetry
from repro.service import QueryService
from repro.standing import Subscription
from repro.data.moving import MovingObjectsWorkload
from tests.conftest import make_walk_trajectories


def _quiet():
    return Telemetry(enabled=False)


def _db(num_traj=10, steps=8, seed=0, id_offset=0):
    trajs = make_walk_trajectories(num_traj, steps, seed=seed)
    if id_offset:
        trajs = [Trajectory(t.traj_id + id_offset, t.times,
                            t.positions) for t in trajs]
    return SegmentArray.from_trajectories(trajs)


def _event_key(rec):
    return (rec["seq"], rec["epoch"], rec["kind"], rec["sub_id"],
            rec["q_id"], rec["e_id"])


def _exact(service, sub):
    results, _ = CpuScanEngine(
        service.current_snapshot().logical()).search(
        sub.queries, sub.d,
        exclude_same_trajectory=sub.exclude_same_trajectory)
    want = result_bytes(sub.apply_window(results))
    return want == result_bytes(service.standing.results(sub.sub_id))


class TestKillPointCampaigns:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_campaign_survives_kill_point(self, point):
        report = run_standing_campaign(StandingConfig(
            seed=4, kill_point=point))
        assert report.crash_fired, report.render()
        assert report.ok, report.render()
        assert report.mismatches == []
        assert report.event_violations == []
        assert report.stream_consistent


class TestEventStreamParity:
    """Crashed-and-recovered event stream == uninterrupted stream."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_streams_identical_across_crash(self, seed, tmp_path):
        cfg = StandingConfig(seed=seed)
        deltas = MovingObjectsWorkload(
            config=FLEET, seed=cfg.seed).epochs(cfg.stream_epochs)
        base, schedule = _materialize(cfg, deltas)
        subs = _make_subscriptions(cfg, deltas)

        # Uninterrupted reference: in-memory, same schedule.
        ref = QueryService(base, auto_compact=False,
                           telemetry=_quiet())
        for sub in subs:
            ref.register_subscription(sub)
        for op in schedule:
            ref.apply(op)
        ref_stream = [_event_key(r)
                      for r in ref.standing.events_since(0)]
        ref_final = {sub.sub_id: ref.standing.matches(sub.sub_id)
                     for sub in subs}

        # Durable run that dies mid-schedule and recovers.
        crash_op = max(2, len(schedule) // 2)
        svc = QueryService(
            base, durability_dir=tmp_path / "dur", durability=POLICY,
            durability_kill=KillSwitch("wal_post_append",
                                       occurrence=crash_op),
            auto_compact=False, telemetry=_quiet())
        for sub in subs:
            svc.register_subscription(sub)
        with pytest.raises(SimulatedCrash):
            for op in schedule:
                svc.apply(op)
        stream = [_event_key(r) for r in svc.standing.events_since(0)]
        pre_crash_seq = svc.standing.last_seq
        svc = QueryService.recover(tmp_path / "dur", policy=POLICY,
                                   auto_compact=False,
                                   telemetry=_quiet())
        # Replayed events keep their pre-crash seqs (already in
        # `stream`); everything new continues after them.
        for op in schedule[svc.last_recovery.epoch:]:
            svc.apply(op)
        stream += [_event_key(r) for r in
                   svc.standing.events_since(pre_crash_seq)]

        assert stream == ref_stream
        for sub in subs:
            assert svc.standing.matches(sub.sub_id) \
                == ref_final[sub.sub_id]
            assert _exact(svc, sub)


class TestStandingStateRecovery:
    def _sub(self):
        return Subscription(
            sub_id="sub-a",
            queries=_db(num_traj=2, steps=6, seed=77,
                        id_offset=9000),
            d=2.5)

    def test_clean_shutdown_then_recover(self, tmp_path):
        policy = DurabilityPolicy(sync="fsync", checkpoint_every=100)
        svc = QueryService(_db(seed=1), durability_dir=tmp_path / "d",
                           durability=policy, auto_compact=False,
                           telemetry=_quiet())
        sub = self._sub()
        svc.register_subscription(sub)
        svc.ingest(_db(num_traj=2, seed=5, id_offset=300))
        svc.shutdown()
        again = QueryService.recover(tmp_path / "d", policy=policy,
                                     auto_compact=False,
                                     telemetry=_quiet())
        assert sorted(again.standing.subscriptions) == ["sub-a"]
        # Shutdown checkpointed: nothing to replay, nothing to catch
        # up, and the restored answer is exact.
        assert again.standing.totals["replayed_events"] == 0
        assert again.standing.totals["caught_up_events"] == 0
        assert _exact(again, sub)
        # The stream keeps working post-recovery.
        again.ingest(_db(num_traj=2, seed=6, id_offset=400))
        assert _exact(again, sub)

    def test_torn_standing_event_is_dropped_not_fatal(self, tmp_path):
        policy = DurabilityPolicy(sync="fsync", checkpoint_every=100)
        svc = QueryService(_db(seed=1), durability_dir=tmp_path / "d",
                           durability=policy, auto_compact=False,
                           telemetry=_quiet())
        sub = self._sub()
        svc.register_subscription(sub)
        # Ingest a near-copy of the query geometry: guaranteed
        # matches, hence guaranteed durable match_added events.
        q = sub.queries
        near = SegmentArray(q.xs + 0.5, q.ys, q.zs, q.ts,
                            q.xe + 0.5, q.ye, q.ze, q.te,
                            np.full_like(q.traj_ids, 500), q.seg_ids)
        svc.ingest(near)
        assert svc.standing.store.events_appended > 0
        # Abandon the service as a dead process would and tear the
        # sidecar's final event line.
        events = tmp_path / "d" / "standing" / "events.jsonl"
        with events.open("a", encoding="utf-8") as fh:
            fh.write('{"seq": 9999, "epoch": 2, "kind": "match_ad')
        again = QueryService.recover(tmp_path / "d", policy=policy,
                                     auto_compact=False,
                                     telemetry=_quiet())
        assert again.standing.totals["torn_events"] == 1
        assert _exact(again, sub)
