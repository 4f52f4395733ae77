"""Standing queries: incremental answers == from-scratch, every epoch.

The contract under test (see ``src/repro/standing/``): a registered
subscription's maintained match set is **byte-identical** to a
from-scratch ``cpu_scan`` over ``Snapshot.logical()`` after *every*
mutation — the delta-aware skip decision (candidate envelopes on
appends, held-match membership on deletes, nobody on compactions) is
load-bearing correctness, not best-effort caching.  The campaign tests
additionally pin that the skipping genuinely happens (affected strictly
fewer than registered on delta epochs) and that exactness survives
compaction, a mid-stream crash + recovery, and injected device faults.
"""

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory
from repro.engines.cpu_scan import CpuScanEngine
from repro.campaigns.harness import result_bytes
from repro.campaigns.standing import (StandingConfig,
                                      run as run_standing_campaign)
from repro.ingest import Mutation, VersionedDatabase
from repro.service import QueryService
from repro.standing import StandingQueryManager, Subscription
from tests.conftest import make_walk_trajectories

D = 2.5


def _db(num_traj=10, steps=8, seed=0, id_offset=0):
    trajs = make_walk_trajectories(num_traj, steps, seed=seed)
    if id_offset:
        trajs = [Trajectory(t.traj_id + id_offset, t.times,
                            t.positions) for t in trajs]
    return SegmentArray.from_trajectories(trajs)


def _sub(sub_id="sub-a", *, seed=77, d=D, window=None,
         exclude_same_trajectory=False, num_traj=2):
    return Subscription(
        sub_id=sub_id,
        queries=_db(num_traj=num_traj, steps=6, seed=seed,
                    id_offset=9000),
        d=d, window=window,
        exclude_same_trajectory=exclude_same_trajectory)


def referee_bytes(sub, snapshot):
    """From-scratch cpu_scan over the logical database, window-clipped
    the same way the incremental path clips."""
    results, _ = CpuScanEngine(snapshot.logical()).search(
        sub.queries, sub.d,
        exclude_same_trajectory=sub.exclude_same_trajectory)
    return result_bytes(sub.apply_window(results))


def assert_exact(mgr, subs, snapshot):
    for sub in subs:
        assert (result_bytes(mgr.results(sub.sub_id))
                == referee_bytes(sub, snapshot)), sub.sub_id


def _entry_trajs(svc, sub_id):
    """Trajectory ids of a subscription's current entry matches."""
    logical = svc.current_snapshot().logical()
    by_seg = dict(zip(logical.seg_ids.tolist(),
                      logical.traj_ids.tolist()))
    return [by_seg[e] for e in svc.standing.results(sub_id).e_ids.tolist()
            if e in by_seg]


class TestManagerExactness:
    """Direct manager drive: every mutation kind, every epoch checked."""

    def drive(self, subs, *, seed=1):
        vdb = VersionedDatabase(_db(seed=seed))
        mgr = StandingQueryManager()
        for sub in subs:
            mgr.register(sub, vdb.snapshot())
        assert_exact(mgr, subs, vdb.snapshot())
        rng = np.random.default_rng(seed)
        offset = 500
        for i in range(10):
            kind = ("append", "append", "delete", "append",
                    "compact")[i % 5]
            if kind == "append":
                segs = _db(num_traj=2, steps=6,
                           seed=seed + 31 * i, id_offset=offset)
                offset += 100
                mutation = Mutation("append", segments=segs)
                vdb.apply(mutation)
                mgr.process_mutation(vdb, mutation)
            elif kind == "delete":
                snap = vdb.snapshot()
                live = sorted(
                    set(np.unique(snap.logical().traj_ids).tolist()))
                victim = int(live[int(rng.integers(len(live) - 1))])
                mutation = Mutation("delete", traj_id=victim)
                vdb.apply(mutation)
                mgr.process_mutation(vdb, mutation)
            else:
                vdb.compact()
                mgr.process_mutation(vdb, Mutation("compact"))
            assert_exact(mgr, subs, vdb.snapshot())
        return mgr, vdb

    def test_exact_across_mixed_mutations(self):
        subs = [_sub("sub-a", seed=77), _sub("sub-b", seed=78)]
        self.drive(subs)

    def test_windowed_subscription_stays_clipped(self):
        window = (2.0, 6.5)
        sub = _sub("sub-w", window=window)
        mgr, _vdb = self.drive([sub], seed=2)
        res = mgr.results("sub-w")
        assert np.all(res.t_lo >= window[0] - 1e-12)
        assert np.all(res.t_hi <= window[1] + 1e-12)

    def test_exclude_same_trajectory_flag_respected(self):
        # Query ids overlapping database ids: the flag changes answers.
        vdb = VersionedDatabase(_db(seed=3))
        queries = vdb.snapshot().base.take(np.arange(6))
        sub = Subscription(sub_id="sub-x", queries=queries, d=D,
                           exclude_same_trajectory=True)
        mgr = StandingQueryManager()
        mgr.register(sub, vdb.snapshot())
        assert_exact(mgr, [sub], vdb.snapshot())
        res = mgr.results("sub-x")
        logical = vdb.snapshot().logical()
        by_seg = dict(zip(logical.seg_ids.tolist(),
                          logical.traj_ids.tolist()))
        q_by_seg = dict(zip(queries.seg_ids.tolist(),
                            queries.traj_ids.tolist()))
        for q, e in zip(res.q_ids.tolist(), res.e_ids.tolist()):
            assert q_by_seg[q] != by_seg[e]

    def test_delete_compact_reinsert_same_id_stays_exact(self):
        """The tombstone edge end-to-end: a matched trajectory is
        deleted (match_removed events), the id is reborn with new
        geometry after compaction, and the maintained set tracks every
        step exactly.  Entry seg_ids are never reused, so the reborn
        id's matches are new pairs — no life-cycle violation."""
        svc = QueryService(_db(seed=20), auto_compact=False)
        sub = _sub("sub-a")
        # Shadow the queries so trajectory 500 definitely matches.
        q = sub.queries
        near = SegmentArray(q.xs + 0.5, q.ys, q.zs, q.ts,
                            q.xe + 0.5, q.ye, q.ze, q.te,
                            np.full_like(q.traj_ids, 500), q.seg_ids)
        svc.ingest(near)
        svc.register_subscription(sub)
        assert any(e == 500 for e in _entry_trajs(svc, "sub-a"))
        seq0 = svc.standing.last_seq
        svc.delete_trajectory(500)
        removed = [r for r in svc.standing.events_since(seq0)
                   if r["kind"] == "match_removed"]
        assert removed and all(r["sub_id"] == "sub-a"
                               for r in removed)
        assert not any(e == 500 for e in _entry_trajs(svc, "sub-a"))
        assert_exact(svc.standing, [sub], svc.current_snapshot())
        svc.compact()
        reborn = SegmentArray(q.xs - 0.5, q.ys, q.zs, q.ts,
                              q.xe - 0.5, q.ye, q.ze, q.te,
                              np.full_like(q.traj_ids, 500),
                              q.seg_ids)
        svc.ingest(reborn)
        added = [r for r in svc.standing.events_since(seq0)
                 if r["kind"] == "match_added"]
        assert added  # the reborn geometry matches again, as new pairs
        assert any(e == 500 for e in _entry_trajs(svc, "sub-a"))
        assert_exact(svc.standing, [sub], svc.current_snapshot())

    def test_compact_epoch_changes_nothing(self):
        subs = [_sub("sub-a")]
        vdb = VersionedDatabase(_db(seed=4))
        mgr = StandingQueryManager()
        mgr.register(subs[0], vdb.snapshot())
        segs = _db(num_traj=3, seed=9, id_offset=700)
        vdb.append(segs)
        mgr.process_mutation(vdb, Mutation("append", segments=segs))
        before = result_bytes(mgr.results("sub-a"))
        vdb.compact()
        report = mgr.process_mutation(vdb, Mutation("compact"))
        assert report.affected == [] and report.skipped == 1
        assert result_bytes(mgr.results("sub-a")) == before
        assert_exact(mgr, subs, vdb.snapshot())


class TestSkipWork:
    """Unaffected subscriptions are proven unchanged, not re-scanned."""

    def test_far_append_skips_everybody(self):
        vdb = VersionedDatabase(_db(seed=5))
        mgr = StandingQueryManager()
        sub = _sub("sub-a")
        mgr.register(sub, vdb.snapshot())
        far = _db(num_traj=2, seed=6, id_offset=300)
        far = SegmentArray(far.xs + 1e6, far.ys, far.zs, far.ts,
                           far.xe + 1e6, far.ye, far.ze, far.te,
                           far.traj_ids, far.seg_ids)
        vdb.append(far)
        report = mgr.process_mutation(
            vdb, Mutation("append", segments=far))
        assert report.affected == []
        assert report.skipped == 1
        assert report.events_added == report.events_removed == 0
        assert_exact(mgr, [sub], vdb.snapshot())

    def test_delete_of_unmatched_trajectory_skips(self):
        vdb = VersionedDatabase(_db(seed=7))
        mgr = StandingQueryManager()
        # A subscription matching nothing holds no e_ids, so any
        # delete must skip it.
        sub = _sub("sub-none", seed=99)
        far_q = SegmentArray(
            sub.queries.xs + 1e6, sub.queries.ys, sub.queries.zs,
            sub.queries.ts, sub.queries.xe + 1e6, sub.queries.ye,
            sub.queries.ze, sub.queries.te, sub.queries.traj_ids,
            sub.queries.seg_ids)
        sub = Subscription(sub_id="sub-none", queries=far_q, d=D)
        mgr.register(sub, vdb.snapshot())
        assert len(mgr.results("sub-none")) == 0
        vdb.delete_trajectory(0)
        report = mgr.process_mutation(vdb, Mutation("delete", traj_id=0))
        assert report.affected == [] and report.skipped == 1
        assert_exact(mgr, [sub], vdb.snapshot())


class TestServiceIntegration:
    def test_register_ingest_poll_unregister(self):
        svc = QueryService(_db(seed=10), auto_compact=False)
        sub = _sub("sub-a")
        receipt = svc.register_subscription(sub)
        assert receipt["sub_id"] == "sub-a"
        first = svc.poll_subscription("sub-a")
        svc.ingest(_db(num_traj=2, seed=14, id_offset=300))
        svc.delete_trajectory(0)
        svc.compact()
        assert_exact(svc.standing, [sub], svc.current_snapshot())
        poll = svc.poll_subscription("sub-a",
                                     since_seq=first["last_seq"])
        stats = svc.stats()["standing"]
        assert stats["subscriptions"] == 1
        assert stats["epochs"] >= 3
        assert poll["last_seq"] >= first["last_seq"]
        svc.unregister_subscription("sub-a")
        with pytest.raises(KeyError):
            svc.poll_subscription("sub-a")

    def test_duplicate_registration_rejected(self):
        svc = QueryService(_db(seed=10), auto_compact=False)
        svc.register_subscription(_sub("sub-a"))
        with pytest.raises(ValueError):
            svc.register_subscription(_sub("sub-a"))


class TestSubscriptionValidation:
    def test_rejects_bad_inputs(self):
        q = _db(num_traj=1, seed=0)
        with pytest.raises(ValueError):
            Subscription(sub_id="", queries=q, d=1.0)
        with pytest.raises(ValueError):
            Subscription(sub_id="s", queries=SegmentArray.empty(),
                         d=1.0)
        with pytest.raises(ValueError):
            Subscription(sub_id="s", queries=q, d=-1.0)
        with pytest.raises(ValueError):
            Subscription(sub_id="s", queries=q, d=1.0,
                         window=(5.0, 1.0))

    def test_roundtrips_through_dict(self):
        sub = _sub("sub-a", window=(1.0, 9.0),
                   exclude_same_trajectory=True)
        again = Subscription.from_dict(sub.to_dict())
        assert again.sub_id == sub.sub_id
        assert again.d == sub.d
        assert again.window == sub.window
        assert again.exclude_same_trajectory
        assert np.array_equal(again.queries.xs, sub.queries.xs)


class TestCampaign:
    """The headline harness: adversarial seeds, every epoch checked,
    compaction + crash + recovery mid-stream."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_seeded_campaign_is_exact(self, seed):
        report = run_standing_campaign(
            StandingConfig(seed=seed))
        assert report.ok, report.render()
        assert report.mismatches == []
        assert report.event_violations == []
        assert report.checks > report.num_ops
        assert report.compactions >= 1
        assert report.crash_fired
        assert report.standing["recoveries"] >= 1
        assert report.stream_consistent

    def test_maintenance_is_delta_aware(self):
        """Affected settles strictly fewer than registered
        subscriptions on delta epochs — the envelope skipping works."""
        report = run_standing_campaign(StandingConfig(seed=0))
        totals = report.standing
        assert totals["skipped"] > 0
        assert totals["affected"] < (totals["delta_epochs"]
                                     * report.config.num_subscriptions)
        assert totals["events_added"] > 0

    def test_campaign_with_device_faults_stays_exact(self):
        report = run_standing_campaign(StandingConfig(
            seed=5, faults=True, probe_every=2, fault_rate=0.3))
        assert report.ok, report.render()
        assert report.probes_sent > 0
        assert sum(report.faults_fired.values()) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StandingConfig(stream_epochs=3)
        with pytest.raises(ValueError):
            StandingConfig(kill_point="nonsense")
        with pytest.raises(ValueError):
            StandingConfig(num_subscriptions=0)
