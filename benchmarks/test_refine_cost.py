"""What refining one dense batch costs, as structure.

``benchmarks/e2e``'s ``dense_batch`` is almost nothing but the simulated
kernel: 240-segment query sets against S3-random-dense at 2 %,
``gpu_temporal`` / ``gpu_spatiotemporal``, d in {0.02, 0.05, 0.09}.  The
indexes hand each thread hundreds of candidates per result; the device
is charged for all of them, but the host solves only the pairs
``core.distance.surviving_pairs`` cannot rule out.  This benchmark sends
the workload's 24 bodies, decoded fresh per call as the wire does,
through warm engines and gates what a stopwatch on a shared box cannot:

* on every body the reject leaves at most ``MAX_REFINED_SHARE`` of the
  scheduled pairs to the exact solve (``pairs_refined`` /
  ``pairs_scheduled`` on the ``engine.search`` span — program counts,
  exact at a seed);
* at the largest d the survivors are within ``MAX_REFINED_PER_HIT`` of
  the result items (the reject is a bounding-box test, not the answer);
* a search is >= ``MIN_SPEEDUP`` faster than the same engine with the
  reject bypassed (same answers, bit for bit:
  ``tests/test_refine_filter.py``).

The seconds are printed, not gated.
"""

import json
import time

import numpy as np

from .conftest import emit
from .e2e import workloads

from repro.core.types import SegmentArray
from repro.engines import base, get_engine
from repro.obs import Telemetry

#: at this seed the largest share is gpu_spatiotemporal at d = 0.09
#: (its schedule is already spatially selective): 1.3 %.
MAX_REFINED_SHARE = 0.02
MAX_REFINED_PER_HIT = 8.0
MIN_SPEEDUP = 4.0


def _keep_everything(queries, entries, q_idx, e_idx, d, scale):
    return np.arange(q_idx.shape[0])


def _replay(engines, wire):
    """Seconds per body: decode + search, one pass over the bodies."""
    wall0 = time.perf_counter()
    for method, blob, d in wire:
        queries = SegmentArray.from_dict(json.loads(blob)["queries"])
        engines[method].search(queries, d)
    return (time.perf_counter() - wall0) / len(wire)


def test_refine_cost(monkeypatch):
    schedule = workloads.build(workloads.WORKLOADS["dense_batch"], 0)
    bodies = schedule.bodies
    engines = {
        method: get_engine(method).from_config(
            schedule.database,
            **next(b for b in bodies if b.method == method)
            .payload["params"])
        for method in sorted({b.method for b in bodies})}
    wire = [(b.method, json.dumps(b.payload), b.d) for b in bodies]
    _replay(engines, wire)                                  # warm

    rows = []
    for method, blob, d in wire:
        queries = SegmentArray.from_dict(json.loads(blob)["queries"])
        telemetry = Telemetry()
        with telemetry.activate():
            result, _ = engines[method].search(queries, d)
        attrs = telemetry.tracer.roots[-1].attributes
        assert attrs["result_items"] == len(result)
        rows.append((method, d, attrs["pairs_scheduled"],
                     attrs["pairs_refined"], len(result)))

    best = {"filtered": float("inf"), "bypassed": float("inf")}
    for _ in range(5):          # interleaved: a noisy stretch hits both
        best["filtered"] = min(best["filtered"], _replay(engines, wire))
        with monkeypatch.context() as patch:
            patch.setattr(base, "surviving_pairs", _keep_everything)
            best["bypassed"] = min(best["bypassed"],
                                   _replay(engines, wire))
    speedup = best["bypassed"] / best["filtered"]

    lines = [f"{len(wire)} dense_batch bodies decoded fresh, "
             f"S3-random-dense at 2 % ({len(schedule.database)} rows)",
             f"{'engine':20s} {'d':>5s} {'scheduled':>10s} "
             f"{'refined':>8s} {'share':>7s} {'hits':>6s}"]
    for (method, d), group in _grouped(rows).items():
        sched, refined, hits = (sum(r[i] for r in group)
                                for i in (2, 3, 4))
        lines.append(f"{method:20s} {d:5.2f} {sched:10d} {refined:8d} "
                     f"{refined / sched:7.2%} {hits:6d}")
    lines += [
        f"decode + search, reject in front  {best['filtered'] * 1e3:9.3f} ms",
        f"decode + search, reject bypassed  {best['bypassed'] * 1e3:9.3f} ms "
        f"({speedup:.1f}x; min of 5 interleaved)"]
    emit("refine_cost", "\n".join(lines))

    for method, d, sched, refined, hits in rows:
        assert hits <= refined <= MAX_REFINED_SHARE * sched, (method, d)
        if d == max(r[1] for r in rows):
            assert refined <= MAX_REFINED_PER_HIT * hits, (method, d)
    assert speedup >= MIN_SPEEDUP


def _grouped(rows) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(row[:2], []).append(row)
    return out
