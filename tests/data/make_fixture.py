"""Provenance, not a test: how ``wal_golden.jsonl``,
``durable_d7f7855/``, ``durable_f7a6f96/`` and ``durable_63282b1/`` were
made (the last is a directory killed mid-stream, whose standing
``events.jsonl`` — a journal 63282b1 kept and later commits ignore —
holds events its ``state.json`` does not; ``tests/test_standing_crash.py``
holds recovery to what 63282b1 recovered).  Each part runs
against the commit it is named for only
(``PYTHONPATH=<checkout>/src python make_fixture.py <commit> OUT``) — the
d7f7855 part calls names this repository has since deleted, which is the
point: the files are what *that* code wrote, and
``tests/test_write_path.py`` (WAL bytes, recovery) and
``tests/test_durability.py`` (checkpoint layout: f7a6f96 wrote compressed
arrays and a pickled artifact for every warm engine) hold today's code to
them.  Everything is literal or integer-derived so the tests can rebuild
the inputs without an RNG.

When may a ``durable_<commit>/`` directory be retired?  Never while
``FORMAT_VERSION`` is unchanged: a pickled engine is part of the format.
``durable_f7a6f96`` holds a ``GpuTemporalEngine`` whose ``__dict__`` has
the attributes of its day (``_batch_cache``, ``_sort_cache``, a
``RefineCache`` with other fields) and none invented since; PR 22 moved
the kernel loop and merged those memos, and an ``AttributeError`` inside
``search`` would have surfaced only as a silent failover to a rebuilt
engine (``cache_hit`` False) — which ``test_durability.py`` and
``test_kernel_loop.py`` catch because this directory exists.  Anything a
loaded engine reads that an older pickle lacks needs a class-level
default or a ``__setstate__``."""
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro.core.types import SegmentArray, Trajectory
from repro.obs import Telemetry
from repro.service import QueryService, SearchRequest
from repro.standing import Subscription

commit, out = sys.argv[1], Path(sys.argv[2])
shutil.rmtree(out, ignore_errors=True)
out.mkdir(parents=True)


def line(traj_id, x0, y0, t0=0.0, steps=4, dx=1.0, dy=0.5):
    """A straight-line trajectory on exactly representable floats."""
    times = t0 + np.arange(steps, dtype=np.float64)
    pos = np.column_stack([x0 + dx * np.arange(steps),
                           y0 + dy * np.arange(steps),
                           np.zeros(steps)])
    return Trajectory(traj_id, times, pos)


def segs(*trajs):
    return SegmentArray.from_trajectories(list(trajs))


def result_sha256(results):
    """SHA-256 over the canonical result bytes (q_ids, e_ids, t_lo, t_hi)."""
    c = results.canonical()
    return hashlib.sha256(b"".join(
        a.tobytes() for a in (c.q_ids, c.e_ids, c.t_lo, c.t_hi))).hexdigest()


def at_d7f7855():
    # -- golden WAL lines ---------------------------------------------------------
    svc = QueryService(segs(line(0, 0.0, 0.0), line(1, 5.0, 5.0)),
                       durability_dir=out / "golden-wal", auto_compact=False,
                       telemetry=Telemetry(enabled=False))
    svc.ingest(segs(line(7, 1.0, 2.0, steps=3)))
    kept = segs(line(8, 2.0, 3.0, steps=3))
    kept = SegmentArray(kept.xs, kept.ys, kept.zs, kept.ts, kept.xe, kept.ye,
                        kept.ze, kept.te, kept.traj_ids,
                        np.array([500, 501], dtype=np.int64))
    svc.ingest(kept, keep_seg_ids=True, idempotency_key="put-8")
    svc.delete_trajectory(1)
    svc.delete_trajectory(7, idempotency_key="del-7")
    # compact() would checkpoint and truncate the log: frame the record the
    # way _compact does, without the checkpoint.
    svc.durability.log_compact(svc.versioned)
    svc.durability.close()
    golden = (out / "golden-wal" / "wal.jsonl").read_bytes()
    (out / "wal_golden.jsonl").write_bytes(golden)
    shutil.rmtree(out / "golden-wal")

    # -- a small durable service, cleanly shut down -------------------------------
    base = segs(*(line(k, 3.0 * k, 2.0 * k, t0=0.5 * k) for k in range(6)))
    queries = segs(line(900, 1.0, 0.5, steps=5), line(901, 9.0, 7.0, t0=1.0))
    directory = out / "durable_d7f7855"
    svc = QueryService(base, durability_dir=directory, auto_compact=False,
                       telemetry=Telemetry(enabled=False))
    svc.register_subscription(Subscription(sub_id="sub-a", queries=queries,
                                           d=2.5))
    put1 = segs(line(10, 1.5, 1.0, steps=5))
    svc.ingest(put1, idempotency_key="put-1")                       # epoch 1
    svc.delete_trajectory(2, idempotency_key="del-2")               # epoch 2
    svc.compact()                                                   # epoch 3
    kept = segs(line(11, 9.5, 7.5, t0=1.0))
    kept = SegmentArray(kept.xs, kept.ys, kept.zs, kept.ts, kept.xe, kept.ye,
                        kept.ze, kept.te, kept.traj_ids,
                        np.arange(7000, 7000 + len(kept), dtype=np.int64))
    svc.ingest(kept, keep_seg_ids=True)                             # epoch 4
    svc.delete_trajectory(4)                                        # epoch 5
    svc.ingest(segs(line(12, 0.5, 0.0, steps=5)))                   # epoch 6
    response = svc.submit(SearchRequest(queries=queries, d=2.5,
                                        method="cpu_scan"))
    expected = {
        "epoch": svc.versioned.epoch,
        "num_results": len(response.outcome.results),
        "d": 2.5,
        "queries": queries.to_dict(),
        "result_sha256": result_sha256(response.outcome.results),
        "standing_sha256": result_sha256(svc.standing.results("sub-a")),
        "last_seq": svc.standing.last_seq,
        "applied_keys": sorted(svc.versioned.applied_keys),
        "put_1": {"segments": put1.to_dict(),
                  "epoch": svc.versioned.applied_key("put-1")["epoch"]},
    }
    svc.shutdown()
    (directory / "expected.json").write_text(json.dumps(expected, indent=1))
    print(json.dumps({k: expected[k] for k in ("epoch", "last_seq",
                                               "applied_keys")}))


def at_f7a6f96():
    # -- two warm engines, checkpointed: compressed npz, two artifacts --------
    # A tiny database, few bins and a 64-item result buffer keep the
    # gpu_temporal pickle (it carries its device's buffers) small.
    base = segs(*(line(k, 3.0 * k, 2.0 * k, t0=0.5 * k) for k in range(6)))
    queries = segs(line(900, 1.0, 0.5, steps=5), line(901, 9.0, 7.0, t0=1.0))
    engines = {
        "gpu_temporal": {"num_bins": 4, "result_buffer_items": 64},
        "cpu_rtree": {"segments_per_mbb": 2, "fanout": 4},
    }
    directory = out / "durable_f7a6f96"
    svc = QueryService(base, durability_dir=directory, auto_compact=False,
                       telemetry=Telemetry(enabled=False))
    svc.ingest(segs(line(10, 1.5, 1.0, steps=5)))               # epoch 1
    svc.compact()                                               # epoch 2
    for method, params in engines.items():
        svc.submit(SearchRequest(queries=queries, d=2.5, method=method,
                                 params=params))
    svc.ingest(segs(line(11, 9.5, 7.5, t0=1.0)))                # epoch 3
    svc.checkpoint()
    svc.delete_trajectory(3)                                    # epoch 4
    response = svc.submit(SearchRequest(queries=queries, d=2.5,
                                        method="cpu_scan"))
    expected = {
        "epoch": svc.versioned.epoch,
        "checkpoint_epoch": 3,
        "num_results": len(response.outcome.results),
        "d": 2.5,
        "queries": queries.to_dict(),
        "engines": engines,
        "result_sha256": result_sha256(response.outcome.results),
    }
    svc.shutdown()
    (directory / "expected.json").write_text(json.dumps(expected, indent=1))
    print(json.dumps({k: expected[k] for k in ("epoch", "num_results")}))


def at_63282b1():
    # -- a durable service with subscriptions, killed mid-stream ------------------
    # 63282b1 journaled match events in standing/events.jsonl and folded
    # them into standing/state.json at each checkpoint.  The checkpoint
    # after epoch 3 folds the state; the events of epochs 4 and 5 live
    # only in events.jsonl; the WAL record of epoch 6 is durable but was
    # never applied (the process died right after logging it).
    from repro.durability import DurabilityPolicy, KillSwitch, SimulatedCrash
    from repro.ingest import Mutation

    base = segs(*(line(k, 3.0 * k, 2.0 * k, t0=0.5 * k) for k in range(6)))
    queries = segs(line(900, 1.0, 0.5, steps=5), line(901, 9.0, 7.0, t0=1.0))
    subs = [Subscription(sub_id="sub-a", queries=queries, d=2.5),
            Subscription(sub_id="sub-b", queries=queries, d=1.5,
                         window=(1.0, 3.0))]
    ops = [
        Mutation("append", segments=segs(line(10, 1.5, 1.0, steps=5))),  # 1
        Mutation("delete", traj_id=2),                                  # 2
        Mutation("append", segments=segs(line(11, 9.5, 7.5, t0=1.0))),  # 3
        Mutation("append", segments=segs(line(12, 0.5, 0.0, steps=5))),  # 4
        Mutation("delete", traj_id=10),                                 # 5
        Mutation("append", segments=segs(line(13, 2.0, 1.0, steps=5))),  # 6
        Mutation("compact"),                                            # 7
        Mutation("append", segments=segs(line(14, 9.0, 7.0, t0=1.0))),  # 8
        Mutation("delete", traj_id=12),                                 # 9
    ]
    policy = DurabilityPolicy(checkpoint_every=3)
    directory = out / "durable_63282b1"
    svc = QueryService(base, durability_dir=directory, durability=policy,
                       durability_kill=KillSwitch("wal_post_append",
                                                  occurrence=6),
                       auto_compact=False, telemetry=Telemetry(enabled=False))
    for sub in subs:
        svc.register_subscription(sub)
    try:
        for op in ops:
            svc.apply(op)
    except SimulatedCrash:
        pass  # abandoned as a dead process leaves it
    crashed_seq = svc.standing.last_seq

    # What 63282b1 recovers from a copy of it, and what it streams after.
    work = out / "recovered"
    shutil.copytree(directory, work)
    svc = QueryService.recover(work, policy=policy, auto_compact=False,
                               telemetry=Telemetry(enabled=False))
    recovered = {"epoch": svc.versioned.epoch,
                 "last_seq": svc.standing.last_seq,
                 "standing_sha256": {s.sub_id: result_sha256(
                     svc.standing.results(s.sub_id)) for s in subs}}
    for op in ops[svc.versioned.epoch:]:
        svc.apply(op)
    response = svc.submit(SearchRequest(queries=queries, d=2.5,
                                        method="cpu_scan"))
    expected = {
        "policy": policy.to_dict(),
        "crashed_last_seq": crashed_seq,
        "recovered": recovered,
        "ops": [{"op": m.op, "payload": m.to_payload()} for m in ops],
        # every event the recovered service buffered, oldest first.
        "stream": [[r["seq"], r["epoch"], r["kind"], r["sub_id"],
                    r["q_id"], r["e_id"], r["t_lo"], r["t_hi"]]
                   for r in svc.standing.events_since(0)],
        "final": {"epoch": svc.versioned.epoch,
                  "last_seq": svc.standing.last_seq,
                  "standing_sha256": {s.sub_id: result_sha256(
                      svc.standing.results(s.sub_id)) for s in subs},
                  "result_sha256": result_sha256(response.outcome.results)},
    }
    svc.shutdown()
    shutil.rmtree(work)
    (directory / "expected.json").write_text(json.dumps(expected, indent=1))
    print(json.dumps({"crashed_last_seq": crashed_seq, **recovered}))


{"d7f7855": at_d7f7855, "f7a6f96": at_f7a6f96,
 "63282b1": at_63282b1}[commit]()
