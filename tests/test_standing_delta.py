"""The delta path against the full re-evaluation, epoch by epoch.

:class:`~repro.standing.StandingQueryManager` changes a held answer by
the epoch's delta alone: an append evaluates only the appended rows, a
delete drops the held items whose entry it hides.  The referee is the
path it replaced, kept in ``tests/oracles/standing_reference.py``: every
affected subscription re-run over the whole snapshot and diffed.  Both
are driven over one database through seeded random schedules — appends
(some with caller-stamped ``keep_seg_ids``, some extending a live
trajectory), deletes (some of a trajectory still in the delta),
compactions between them — with windowed and
``exclude_same_trajectory`` subscriptions, and after every epoch the
two ``(seq, epoch, kind, sub_id, q_id, e_id, t_lo, t_hi)`` streams, the
affected sets and the held answers must be byte-equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns.harness import result_bytes
from repro.core.types import SegmentArray, Trajectory
from repro.ingest import Mutation, VersionedDatabase
from repro.standing import (EventsExpiredError, StandingQueryManager,
                            Subscription)
from repro.standing import manager as manager_module
from tests.conftest import make_walk_trajectories
from tests.oracles.standing_reference import ReferenceStandingManager

OPS = ("append", "append_kept", "append_extend", "delete",
       "delete_delta", "compact")


def _walks(rng, num, steps, first_id):
    trajs = make_walk_trajectories(num, steps,
                                   seed=int(rng.integers(1 << 30)))
    return SegmentArray.from_trajectories(
        [Trajectory(first_id + t.traj_id, t.times, t.positions)
         for t in trajs])


def _subscriptions(rng, base, kinds):
    subs = []
    for i, kind in enumerate(kinds):
        d = float(rng.uniform(1.5, 4.0))
        if kind == "exclude":
            # Query rows taken from the database: query and entry
            # trajectory ids overlap, so the flag changes answers.
            rows = rng.choice(len(base), size=6, replace=False)
            subs.append(Subscription(
                sub_id=f"s{i}", queries=base.take(np.sort(rows)), d=d,
                exclude_same_trajectory=True))
            continue
        queries = _walks(rng, 2, 6, 9000 + 10 * i)
        window = None
        if kind == "window":
            t_lo, t_hi = queries.temporal_extent
            span = t_hi - t_lo
            window = (t_lo + 0.25 * span, t_lo + 0.6 * span)
        subs.append(Subscription(sub_id=f"s{i}", queries=queries, d=d,
                                 window=window))
    return subs


def _mutation(op, rng, vdb, next_traj):
    """The next mutation for ``op``, or None when the state cannot
    take it (a delete would leave fewer than two trajectories)."""
    snap = vdb.snapshot()
    live = np.unique(snap.logical().traj_ids)
    if op.startswith("append"):
        segs = _walks(rng, int(rng.integers(1, 3)), 5, next_traj)
        if op == "append_extend":
            # A near-copy of a live trajectory's own rows, under its
            # id: it meets that trajectory's query rows, which only
            # exclude_same_trajectory keeps out.
            logical = snap.logical()
            own = logical.take(np.flatnonzero(
                logical.traj_ids == int(rng.choice(live)))[:5])
            segs = SegmentArray(
                own.xs + 0.3, own.ys, own.zs, own.ts, own.xe + 0.3,
                own.ye, own.ze, own.te, own.traj_ids, own.seg_ids)
        if op == "append_kept":
            first = vdb.next_seg_id + int(rng.integers(0, 5))
            segs = SegmentArray(
                segs.xs, segs.ys, segs.zs, segs.ts, segs.xe, segs.ye,
                segs.ze, segs.te, segs.traj_ids,
                np.arange(first, first + len(segs), dtype=np.int64))
            return Mutation("append", segments=segs, keep_seg_ids=True)
        return Mutation("append", segments=segs)
    if op.startswith("delete"):
        if len(live) < 3:
            return None
        pool = live
        if op == "delete_delta":
            in_delta = np.unique(snap.live_delta().traj_ids)
            pool = in_delta if len(in_delta) else live
        return Mutation("delete", traj_id=int(rng.choice(pool)))
    return Mutation("compact")


def _stream(events):
    return [(r["seq"], r["epoch"], r["kind"], r["sub_id"], r["q_id"],
             r["e_id"], float(r["t_lo"]).hex(), float(r["t_hi"]).hex())
            for r in events]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16),
       kinds=st.lists(st.sampled_from(["plain", "window", "exclude"]),
                      min_size=1, max_size=3),
       ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=12))
def test_delta_path_equals_full_reevaluation(seed, kinds, ops):
    rng = np.random.default_rng(seed)
    vdb = VersionedDatabase(_walks(rng, 8, 8, 0))
    subs = _subscriptions(rng, vdb.base, kinds)
    mgr, ref = StandingQueryManager(), ReferenceStandingManager()
    for sub in subs:
        mgr.register(sub, vdb.snapshot())
        ref.register(sub, vdb.snapshot())
    next_traj = 100
    for op in ops:
        mutation = _mutation(op, rng, vdb, next_traj)
        if mutation is None:
            continue
        next_traj += 10
        vdb.apply(mutation)
        report = mgr.process_mutation(vdb, mutation)
        affected = ref.process_mutation(vdb, mutation)
        assert report.affected == affected, op
        assert _stream(mgr.events_since(-1)) == _stream(ref.events), op
        for sub in subs:
            assert result_bytes(mgr.results(sub.sub_id)) \
                == result_bytes(ref.results(sub.sub_id)), (op, sub.sub_id)


class TestEventBuffer:
    """``events_since(seq)`` answers completely or refuses."""

    def test_trimmed_events_are_refused_not_skipped(self, monkeypatch):
        monkeypatch.setattr(manager_module, "EVENTS_MAXLEN", 4)
        rng = np.random.default_rng(3)
        vdb = VersionedDatabase(_walks(rng, 8, 8, 0))
        sub = Subscription(sub_id="s", queries=_walks(rng, 1, 5, 9000),
                           d=2.0)
        mgr = StandingQueryManager()
        mgr.register(sub, vdb.snapshot())
        q = sub.queries
        for k in range(3):  # near-copies of the queries: matches
            mutation = Mutation("append", segments=SegmentArray(
                q.xs + 0.3, q.ys, q.zs, q.ts, q.xe + 0.3, q.ye, q.ze,
                q.te, np.full_like(q.traj_ids, 500 + k), q.seg_ids))
            vdb.apply(mutation)
            mgr.process_mutation(vdb, mutation)
        last = mgr.last_seq
        assert last > 4
        held = mgr.events_since(-1)
        assert [r["seq"] for r in held] == list(range(last - 3, last + 1))
        assert mgr.events_since(last - 4) == held
        with pytest.raises(EventsExpiredError,
                           match=f"the oldest held is seq {last - 3}"):
            mgr.events_since(last - 5)
        with pytest.raises(EventsExpiredError):
            mgr.poll("s", since_seq=0)
        assert mgr.events_since(last) == []
