"""Standing queries under process death: no lost or duplicated events.

Three layers of proof:

* **Kill-point campaigns** — the full standing campaign (streaming
  fleet, subscriptions, compactions, exactness referee after every
  mutation) is run once per :data:`~repro.durability.KILL_POINTS`
  class; every run must crash, recover, resume, and stay byte-exact.
* **Event-stream parity** — the same schedule is driven through an
  uninterrupted in-memory service and through a durable service that
  crashes mid-stream (at every kill point) and recovers; the full
  delta-event streams (seq, epoch, kind, sub, pair) must be
  *identical*: recovery replays the database WAL through the same
  standing pass the live mutations ran, so every event comes back with
  its original seq and epoch stamp.
* **Old directories** — a directory 63282b1 left behind mid-crash (its
  standing ``events.jsonl`` non-empty, ``state.json`` behind the
  database) recovers to the matches, ``last_seq`` and post-recovery
  stream that commit recovered to.

Plus the typed refusals: a standing state the database cannot be
replayed forward to is refused, never turned into a different stream.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.types import SegmentArray, Trajectory
from repro.durability import (DurabilityError, DurabilityPolicy,
                              KILL_POINTS, KillSwitch, SimulatedCrash)
from repro.engines.cpu_scan import CpuScanEngine
from repro.campaigns.harness import result_bytes
from repro.campaigns.standing import (FLEET, POLICY, StandingConfig,
                                      _crash_occurrence,
                                      _make_subscriptions, _materialize,
                                      run as run_standing_campaign)
from repro.ingest import Mutation
from repro.obs import Telemetry
from repro.service import QueryService, SearchRequest
from repro.standing import (EventsExpiredError, StandingStoreError,
                            Subscription)
from repro.data.moving import MovingObjectsWorkload
from tests.conftest import make_walk_trajectories
from tests.test_write_path import _sha256

DATA = Path(__file__).parent / "data"


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


#: every (seed, kill point); the wal_post_append cases keep the ids
#: they had when that was the only kill point covered.
PARITY_CASES = [
    pytest.param(seed, point, id=str(seed) if point == "wal_post_append"
                 else f"{seed}-{point}")
    for seed in (0, 11) for point in KILL_POINTS]


class TestEventStreamParity:
    """Crashed-and-recovered event stream == uninterrupted stream."""

    @pytest.mark.parametrize("seed,point", PARITY_CASES)
    def test_streams_identical_across_crash(self, seed, point,
                                            tmp_path):
        cfg = StandingConfig(seed=seed, kill_point=point)
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
        ref_final = {sub.sub_id: result_bytes(
                         ref.standing.results(sub.sub_id))
                     for sub in subs}

        # Durable run that dies mid-schedule and recovers.
        svc = QueryService(
            base, durability_dir=tmp_path / "dur", durability=POLICY,
            durability_kill=KillSwitch(
                point, occurrence=_crash_occurrence(cfg, len(schedule))),
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
        # Events re-derived by the replay keep their pre-crash seqs
        # (already in `stream`); everything new continues after them.
        for op in schedule[svc.last_recovery.epoch:]:
            svc.apply(op)
        stream += [_event_key(r) for r in
                   svc.standing.events_since(pre_crash_seq)]

        assert stream == ref_stream
        for sub in subs:
            assert result_bytes(svc.standing.results(sub.sub_id)) \
                == ref_final[sub.sub_id]
            assert _exact(svc, sub)


class TestStandingStateRecovery:
    POLICY = DurabilityPolicy(sync="fsync", checkpoint_every=100)

    def _sub(self):
        return Subscription(
            sub_id="sub-a",
            queries=_db(num_traj=2, steps=6, seed=77,
                        id_offset=9000),
            d=2.5)

    def _service(self, tmp_path):
        return QueryService(_db(seed=1), durability_dir=tmp_path / "d",
                            durability=self.POLICY, auto_compact=False,
                            telemetry=_quiet())

    def _recover(self, tmp_path):
        return QueryService.recover(tmp_path / "d", policy=self.POLICY,
                                    auto_compact=False,
                                    telemetry=_quiet())

    def _near(self, sub, traj_id, dx):
        """A near-copy of the query geometry: guaranteed matches."""
        q = sub.queries
        return SegmentArray(q.xs + dx, q.ys, q.zs, q.ts,
                            q.xe + dx, q.ye, q.ze, q.te,
                            np.full_like(q.traj_ids, traj_id), q.seg_ids)

    def test_clean_shutdown_then_recover(self, tmp_path):
        svc = self._service(tmp_path)
        sub = self._sub()
        svc.register_subscription(sub)
        svc.ingest(_db(num_traj=2, seed=5, id_offset=300))
        svc.shutdown()
        again = self._recover(tmp_path)
        assert sorted(again.standing.subscriptions) == ["sub-a"]
        # Shutdown saved the state at the final epoch: nothing to
        # re-derive, and the restored answer is exact.
        assert again.standing.totals["replayed_events"] == 0
        assert _exact(again, sub)
        # The stream keeps working post-recovery.
        again.ingest(_db(num_traj=2, seed=6, id_offset=400))
        assert _exact(again, sub)

    def test_crash_leaves_only_the_state_snapshot(self, tmp_path):
        svc = self._service(tmp_path)
        sub = self._sub()
        svc.register_subscription(sub)
        svc.ingest(self._near(sub, 500, 0.5))
        seq = svc.standing.last_seq
        assert seq > 0
        # Abandoned as a dead process leaves it: one append log.
        assert sorted(p.name for p in (tmp_path / "d" / "standing")
                      .iterdir()) == ["state.json"]
        again = self._recover(tmp_path)
        assert again.standing.last_seq == seq
        assert again.standing.totals["replayed_events"] == seq
        assert _exact(again, sub)

    def test_a_repeated_delete_settles_no_epoch(self, tmp_path):
        """Deleting a tombstoned trajectory hides nothing, logs nothing
        and makes no epoch, so the standing pass does not run for it:
        the live counters match the database's epoch and what recovery
        replays from the WAL (process-local counters aside)."""
        svc = self._service(tmp_path)
        svc.register_subscription(self._sub())
        assert svc.delete_trajectory(3) > 0
        assert svc.delete_trajectory(3) == 0
        live = svc.standing.stats()
        assert svc.versioned.epoch == 1
        assert live["epochs"] == live["delta_epochs"] \
            == live["skipped"] == svc.versioned.epoch
        again = self._recover(tmp_path)  # svc abandoned, as by a crash
        assert again.versioned.epoch == svc.versioned.epoch
        local = ("recoveries", "store_state_saves")
        assert ({k: v for k, v in again.standing.stats().items()
                 if k not in local}
                == {k: v for k, v in live.items() if k not in local})

    def test_events_lost_to_a_restart_are_refused(self, tmp_path):
        """A client behind the restored state cannot be caught up from
        the buffer: the poll refuses instead of answering nothing, and
        the client resyncs from ``matches``."""
        svc = self._service(tmp_path)
        sub = self._sub()
        svc.register_subscription(sub)
        cursor = svc.poll_subscription("sub-a", since_seq=0)["last_seq"]
        for k in range(4):
            svc.ingest(self._near(sub, 500 + k, 0.1 * (k + 1)))
        last = svc.standing.last_seq
        assert last > cursor
        svc.checkpoint()  # the state now holds the events' effect only
        again = self._recover(tmp_path)
        assert again.standing.last_seq == last
        with pytest.raises(EventsExpiredError,
                           match=f"after seq {cursor} .* none is held"):
            again.poll_subscription("sub-a", since_seq=cursor)
        poll = again.poll_subscription("sub-a", since_seq=-1)
        assert poll["events"] == [] and poll["last_seq"] == last
        assert again.poll_subscription(
            "sub-a", since_seq=last)["events"] == []
        assert _exact(again, sub)
        assert poll["matches"] == svc.poll_subscription("sub-a")["matches"]

    def test_state_ahead_of_the_database_is_refused(self, tmp_path):
        svc = self._service(tmp_path)
        sub = self._sub()
        svc.register_subscription(sub)
        svc.ingest(self._near(sub, 500, 0.5))
        svc.ingest(self._near(sub, 501, 0.25))
        svc.shutdown()
        # Lose the WAL's last record: the state (saved at shutdown,
        # epoch 2) is now ahead of anything the log can replay to.
        wal = tmp_path / "d" / "wal.jsonl"
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(StandingStoreError, match="ahead"):
            self._recover(tmp_path)

    def test_state_older_than_every_checkpoint_is_refused(self,
                                                          tmp_path):
        svc = self._service(tmp_path)
        sub = self._sub()
        svc.register_subscription(sub)
        state = tmp_path / "d" / "standing" / "state.json"
        stale = state.read_bytes()  # settled at epoch 0
        for traj_id in (500, 501):
            svc.ingest(self._near(sub, traj_id, 0.5))
            svc.checkpoint()  # keeps epochs 1 and 2 only
        svc.shutdown()
        state.write_bytes(stale)
        with pytest.raises(DurabilityError, match="at or below epoch 0"):
            self._recover(tmp_path)


class TestDirectoryWrittenBefore:
    def test_directory_written_by_63282b1_recovers(self, tmp_path):
        shutil.copytree(DATA / "durable_63282b1", tmp_path / "d")
        want = json.loads((tmp_path / "d" / "expected.json").read_text())
        # What the fixture exercises: journaled events the state does
        # not hold, and a state behind the database.
        events = tmp_path / "d" / "standing" / "events.jsonl"
        assert events.stat().st_size > 0
        state = json.loads(
            (tmp_path / "d" / "standing" / "state.json").read_text())
        assert state["epoch"] < want["recovered"]["epoch"]

        policy = DurabilityPolicy(**want["policy"])
        svc = QueryService.recover(tmp_path / "d", policy=policy,
                                   auto_compact=False,
                                   telemetry=_quiet())
        rec = want["recovered"]
        assert svc.versioned.epoch == rec["epoch"]
        assert svc.standing.last_seq == rec["last_seq"]
        for sub_id, digest in rec["standing_sha256"].items():
            assert _sha256(svc.standing.results(sub_id)) == digest
        ops = [Mutation.from_payload(o["op"], o["payload"])
               for o in want["ops"]]
        for op in ops[svc.versioned.epoch:]:
            svc.apply(op)
        stream = [[r["seq"], r["epoch"], r["kind"], r["sub_id"],
                   r["q_id"], r["e_id"], r["t_lo"], r["t_hi"]]
                  for r in svc.standing.events_since(-1)]
        assert stream == want["stream"]
        final = want["final"]
        assert svc.versioned.epoch == final["epoch"]
        assert svc.standing.last_seq == final["last_seq"]
        for sub_id, digest in final["standing_sha256"].items():
            assert _sha256(svc.standing.results(sub_id)) == digest
        queries = svc.standing.subscriptions["sub-a"].queries
        response = svc.submit(SearchRequest(queries=queries, d=2.5,
                                            method="cpu_scan"))
        assert _sha256(response.outcome.results) \
            == final["result_sha256"]
        svc.shutdown()
