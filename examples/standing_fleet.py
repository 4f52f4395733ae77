"""Standing queries: subscribe once, get pushed deltas forever.

A fleet of vehicles streams through a durable
:class:`~repro.service.QueryService` (``docs/ARCHITECTURE.md`` →
*Standing queries*).  Two clients register continuous
distance-threshold :class:`~repro.standing.Subscription`\\ s:

* ``tail-early`` and ``tail-late`` each shadow a real vehicle at a
  small offset during a chosen stretch of the stream — they accumulate
  ``match_added`` / ``match_removed`` events as the fleet moves (and
  as their vehicle departs),
* ``perimeter`` watches a fixed corridor far from all traffic — on
  epochs whose rows miss its candidate envelope it is **skipped**, not
  scanned.

Each ingest epoch scans only its own rows for the *affected*
subscriptions, and each delete drops the held matches it hides; clients
poll typed events stamped with the epoch that caused them.  Midway
through the stream the process "dies" (the service object is abandoned
without shutdown, exactly what a crashed process leaves on disk) and
:meth:`QueryService.recover` restores the standing state from its
snapshot and replays the WAL past it: replayed events keep their seqs,
so these clients, whose cursors are never behind the saved state, miss
none and see none twice.  Every answer along the way
is checked byte-exact against a from-scratch ``cpu_scan``.

Run:  python examples/standing_fleet.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.types import SegmentArray
from repro.data.moving import FleetConfig, MovingObjectsWorkload
from repro.engines import CpuScanEngine
from repro.service import QueryService
from repro.standing import Subscription

D = 3.0
EPOCHS = 10


def tracking_queries(delta, vid, *, traj_id):
    """A query trajectory shadowing vehicle ``vid`` at a small offset
    (well inside ``D``), built from its segments in ``delta``."""
    rows = delta.segments.take(
        np.flatnonzero(delta.segments.traj_ids == vid))
    return SegmentArray(
        rows.xs + 0.6, rows.ys, rows.zs, rows.ts,
        rows.xe + 0.6, rows.ye, rows.ze, rows.te,
        np.full_like(rows.traj_ids, traj_id), rows.seg_ids)


def corridor_queries(*, traj_id):
    """A static corridor far outside the fleet's box (the skip case)."""
    n = 6
    xs = np.full(n, 500.0)
    ys = 500.0 + np.arange(n, dtype=float)
    zs = np.zeros(n)
    ts = np.arange(n, dtype=float)
    return SegmentArray(xs, ys, zs, ts, xs, ys + 1.0, zs, ts + 1.0,
                        np.full(n, traj_id, dtype=np.int64),
                        np.arange(n, dtype=np.int64))


def check_exact(service, sub):
    results, _ = CpuScanEngine(
        service.current_snapshot().logical()).search(sub.queries, sub.d)
    want = sub.apply_window(results).canonical()
    got = service.standing.results(sub.sub_id).canonical()
    assert want.equivalent_to(got), sub.sub_id


def apply_epoch(service, delta, ingested):
    for vid in delta.departures:
        if vid in ingested:
            service.delete_trajectory(vid)
    service.ingest(delta.segments)
    ingested.update(int(t) for t in np.unique(delta.segments.traj_ids))


def drain(service, subs, cursor):
    for sub in subs:
        poll = service.poll_subscription(sub.sub_id,
                                         since_seq=cursor[sub.sub_id])
        for ev in poll["events"]:
            print(f"    {ev['kind']:<13s} epoch {ev['epoch']:2d}  "
                  f"{sub.sub_id}: pair ({ev['q_id']}, {ev['e_id']})")
        cursor[sub.sub_id] = poll["last_seq"]
        check_exact(service, sub)


def main():
    state = Path(tempfile.mkdtemp(prefix="standing-fleet-")) / "state"
    stream = MovingObjectsWorkload(
        config=FleetConfig(num_fleets=2, vehicles_per_fleet=3), seed=3)
    deltas = stream.epochs(EPOCHS)
    half = EPOCHS // 2
    early, late = deltas[1].active[0], deltas[half + 2].active[0]

    print(f"-- durable service at {state}")
    svc = QueryService(deltas[0].segments, durability_dir=state,
                       auto_compact=False)
    ingested = {int(t) for t in np.unique(deltas[0].segments.traj_ids)}

    subs = [
        Subscription(sub_id="tail-early",
                     queries=tracking_queries(deltas[1], early,
                                              traj_id=9000),
                     d=D),
        Subscription(sub_id="tail-late",
                     queries=tracking_queries(deltas[half + 2], late,
                                              traj_id=9002),
                     d=D),
        Subscription(sub_id="perimeter",
                     queries=corridor_queries(traj_id=9001), d=D),
    ]
    cursor = {}
    for sub in subs:
        receipt = svc.register_subscription(sub)
        cursor[sub.sub_id] = svc.standing.last_seq
        print(f"   registered {sub.sub_id}: "
              f"{receipt['matches']} initial matches")

    print(f"\n-- streaming epochs 1..{half - 1} "
          f"(vehicle {early} is being tailed)")
    for delta in deltas[1:half]:
        apply_epoch(svc, delta, ingested)
        drain(svc, subs, cursor)

    pre_crash = dict(svc.standing.totals)
    print(f"   delta-aware: {pre_crash['affected']} affected settles, "
          f"{pre_crash['skipped']} skips across "
          f"{pre_crash['delta_epochs']} delta epochs")

    print("\n-- the process dies mid-stream (no shutdown) ...")
    del svc  # a crashed process flushes nothing further

    svc = QueryService.recover(state)
    rec = svc.standing.totals
    print(f"   recovered: {rec['recoveries']} recovery, "
          f"{rec['replayed_events']} events re-derived by WAL replay")
    for sub in subs:
        check_exact(svc, sub)
    print("   all subscriptions byte-exact after restart")

    print(f"\n-- resuming epochs {half}..{EPOCHS - 1} "
          f"(vehicle {late} arrives), then compacting")
    for delta in deltas[half:]:
        apply_epoch(svc, delta, ingested)
        drain(svc, subs, cursor)
    svc.compact()  # answer-invariant: affects no subscription
    for sub in subs:
        check_exact(svc, sub)

    totals = {k: pre_crash.get(k, 0) + v
              for k, v in svc.standing.totals.items()}
    print(f"\nlifetime: {totals['events_added']} match_added / "
          f"{totals['events_removed']} match_removed, "
          f"{totals['affected']} affected settles, "
          f"{totals['skipped']} skips, every answer exact")
    svc.shutdown()


if __name__ == "__main__":
    main()
