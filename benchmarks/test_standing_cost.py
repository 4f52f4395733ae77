"""What keeping standing answers costs per epoch, as structure.

A standing subscription's answer is a set of ``(query, entry, [t_lo,
t_hi])`` items, and each item depends only on its own two segments.  So
an append can only add items whose entry is an appended row, and a
delete can only drop items whose entry it hides: the standing pass
scans the appended rows on an append and nothing on a delete, whatever
the size of the base.

Setup: a 98,000-row base (980 random walks of 100 segments), 8
subscriptions (10-point walks), and 30 epochs — 27 appends of three
10-point trajectories, two of them shadowing subscriptions' queries,
and 3 deletes of shadowing trajectories appended earlier.  Gated on
program counts read from the spans the service opens:

* every ``engine.search`` span under a ``service.ingest`` span has
  ``comparisons`` <= the appended rows (the ingest span's
  ``segments``) x that search's query count, and there is exactly one
  per affected subscription;
* no ``engine.search`` span runs under ``service.delete``;
* the schedule provokes what the gates talk about: affected appends and
  deletes that drop held matches.

A whole-base rescan per affected subscription breaks the first two.
The per-epoch wall median is printed, not gated.
"""

import time

import numpy as np

from repro.core.types import SegmentArray, concatenate
from repro.data.random_walk import make_random_walks
from repro.service import QueryService
from repro.standing import Subscription

NUM_BASE = 980
BASE_STEPS = 101
BOX = 400.0
NUM_SUBS = 8
STEPS = 10
D = 4.0
APPENDS = 27
DELETE_AT = (10, 20, 29)


def _walk(rng, traj_id, t0):
    return make_random_walks(
        num_trajectories=1, num_timesteps=STEPS, box_side=BOX,
        step_sigma=1.0, start_time_range=(t0, t0), rng=rng,
        first_traj_id=traj_id)[0]


def _shadow(sub, traj_id, rng):
    """A trajectory tracking ``sub``'s query walk within ``D``."""
    q = sub.queries
    offset = rng.uniform(-0.4, 0.4, size=3) * D
    return SegmentArray(
        q.xs + offset[0], q.ys + offset[1], q.zs + offset[2], q.ts,
        q.xe + offset[0], q.ye + offset[1], q.ze + offset[2], q.te,
        np.full_like(q.traj_ids, traj_id), q.seg_ids)


def _workload():
    rng = np.random.default_rng(0)
    base = SegmentArray.from_trajectories(make_random_walks(
        num_trajectories=NUM_BASE, num_timesteps=BASE_STEPS,
        box_side=BOX, step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=rng))
    subs = [Subscription(
        sub_id=f"sub-{i}",
        queries=SegmentArray.from_trajectories(
            [_walk(rng, 90_000 + i, float(rng.uniform(0.0, 150.0)))]),
        d=D) for i in range(NUM_SUBS)]
    schedule, shadows, next_id = [], [], 10_000
    for epoch in range(APPENDS + len(DELETE_AT)):
        if epoch in DELETE_AT:
            schedule.append(("delete", shadows.pop(0)))
            continue
        parts = []
        for sub in (subs[epoch % NUM_SUBS],
                    subs[(epoch + 3) % NUM_SUBS]):
            parts.append(_shadow(sub, next_id, rng))
            shadows.append(next_id)
            next_id += 1
        parts.append(SegmentArray.from_trajectories(
            [_walk(rng, next_id, float(rng.uniform(0.0, 150.0)))]))
        next_id += 1
        schedule.append(("append", concatenate(parts)))
    return base, subs, schedule


def _descendants(root, name):
    return [s for s in root.walk() if s.name == name]


def test_standing_cost():
    base, subs, schedule = _workload()
    assert len(base) == 98_000
    svc = QueryService(base, auto_compact=False)
    for sub in subs:
        svc.register_subscription(sub)
    svc.telemetry.tracer.clear()
    walls, affected = [], {"append": 0, "delete": 0}
    removed = 0
    for op, arg in schedule:
        wall0 = time.perf_counter()
        if op == "append":
            svc.ingest(arg)
        else:
            svc.delete_trajectory(arg)
        walls.append(time.perf_counter() - wall0)
        report = svc.standing.last_report
        affected[op] += len(report.affected)
        removed += report.events_removed
    roots = svc.telemetry.tracer.roots
    ingests = [r for r in roots if r.name == "service.ingest"]
    deletes = [r for r in roots if r.name == "service.delete"]
    searches = [(root, s) for root in ingests
                for s in _descendants(root, "engine.search")]
    worst = max(s.attributes["comparisons"]
                / (root.attributes["segments"]
                   * s.attributes["num_queries"])
                for root, s in searches)
    print(f"\n{len(base)} base rows, {NUM_SUBS} subscriptions, "
          f"{len(ingests)} appends + {len(deletes)} deletes: "
          f"{affected['append']} + {affected['delete']} affected settles, "
          f"{len(searches)} searches, "
          f"{sum(s.attributes['comparisons'] for _, s in searches)} "
          f"comparisons (worst {worst:.2f} x appended rows x queries); "
          f"per-epoch wall median {np.median(walls) * 1e3:.2f} ms")
    svc.shutdown()

    assert len(ingests) == APPENDS and len(deletes) == len(DELETE_AT)
    assert affected["append"] >= APPENDS and affected["delete"] >= 1
    assert removed > 0
    assert len(searches) == affected["append"]
    for root, span in searches:
        assert span.attributes["comparisons"] <= (
            root.attributes["segments"] * span.attributes["num_queries"])
    assert not [s for root in deletes
                for s in _descendants(root, "engine.search")]
