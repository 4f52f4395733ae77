"""Crash recovery: kill a durable service mid-write, restart, lose
nothing.

A durable :class:`~repro.service.QueryService` write-ahead logs every
mutation (CRC-framed, fsync'd) before applying it and checkpoints the
database atomically (``docs/ARCHITECTURE.md`` → *Durability &
recovery*).  This walkthrough:

1. serves and mutates a durable database, warming a GPU engine,
2. "crashes" the process **halfway through writing a WAL record** —
   a seeded :class:`~repro.durability.KillSwitch` leaves physically
   torn bytes on disk, exactly like a power cut mid-``write``,
3. recovers with :meth:`QueryService.recover`: the torn tail is
   detected by its CRC frame and dropped (that mutation was never
   acknowledged), every durable record is replayed, and the warm
   engine is rebuilt from the recipe its checkpoint lists — the first
   request after restart is a **cache hit**,
4. proves the recovered service answers byte-identically to an
   uninterrupted twin.

Run:  python examples/crash_recovery.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.core.types import SegmentArray, Trajectory
from repro.durability import KillSwitch, SimulatedCrash
from repro.service import QueryService, SearchRequest


def make_trajectories(num, steps, *, seed, id_offset=0):
    rng = np.random.default_rng(seed)
    trajs = []
    for k in range(num):
        start = rng.uniform(0.0, 20.0, size=3)
        pos = np.vstack([start,
                         start + np.cumsum(
                             rng.normal(0, 1.0, (steps - 1, 3)), axis=0)])
        times = rng.uniform(0.0, 4.0) + np.arange(steps, dtype=float)
        trajs.append(Trajectory(id_offset + k, times, pos))
    return trajs


def main():
    state = Path(tempfile.mkdtemp(prefix="crash-recovery-")) / "state"
    base = SegmentArray.from_trajectories(
        make_trajectories(20, 12, seed=42))
    queries = SegmentArray.from_trajectories(
        make_trajectories(3, 12, seed=7, id_offset=9000))
    request = SearchRequest(queries=queries, d=2.5,
                            method="gpu_temporal")

    # An uninterrupted twin: same mutations, no crash, no durability.
    twin = QueryService(base, auto_compact=False)

    print(f"-- durable service at {state}")
    svc = QueryService(base, durability_dir=state, auto_compact=False)
    resp = svc.submit(request)
    twin.submit(request)
    print(f"   warm build: {len(resp.outcome.results)} results "
          f"(cache_hit={resp.metrics.cache_hit})")

    for batch_seed in (1, 2):
        batch = make_trajectories(2, 12, seed=batch_seed,
                                  id_offset=100 * batch_seed)
        svc.ingest(batch)
        twin.ingest(batch)
    svc.delete_trajectory(5)
    twin.delete_trajectory(5)
    svc.checkpoint()   # persists the warm engine's recipe too
    print(f"   epoch {svc.versioned.epoch}: 2 ingests + 1 delete, "
          f"checkpointed ({svc.stats()['durability']['wal_appends']} "
          f"WAL records)")

    # Arm a kill-switch on the WAL write path and die mid-record.
    svc.durability.wal.kill = KillSwitch("wal_mid_append")
    doomed = make_trajectories(2, 12, seed=3, id_offset=300)
    try:
        svc.ingest(doomed)
    except SimulatedCrash as crash:
        print(f"   CRASH: {crash} — half a WAL record is on disk")
    # The service instance is abandoned, like a dead process.

    print("-- recovering")
    svc2 = QueryService.recover(state)
    rec = svc2.last_recovery
    print(f"   checkpoint epoch {rec.checkpoint_epoch}, "
          f"replayed {rec.replayed} WAL records, "
          f"dropped {rec.torn_dropped} torn record "
          f"-> epoch {svc2.versioned.epoch}")
    assert svc2.versioned.epoch == twin.versioned.epoch
    assert svc2.database == twin.database

    resp2 = svc2.submit(request)
    print(f"   first request after restart: cache_hit="
          f"{resp2.metrics.cache_hit} (rebuilt from its recipe)")

    # The doomed ingest was never acknowledged, so the twin never ran
    # it either — answers must agree byte-for-byte.
    a = resp2.outcome.results.canonical()
    b = twin.submit(request).outcome.results.canonical()
    assert a.q_ids.tobytes() == b.q_ids.tobytes()
    assert a.e_ids.tobytes() == b.e_ids.tobytes()
    assert a.t_lo.tobytes() == b.t_lo.tobytes()
    assert a.t_hi.tobytes() == b.t_hi.tobytes()
    print(f"   {len(a)} results, byte-identical to the uninterrupted "
          f"twin")

    # Re-running the doomed ingest now lands it durably.
    svc2.ingest(doomed)
    svc2.shutdown()
    print(f"-- re-ingested and shut down at epoch "
          f"{QueryService.recover(state).versioned.epoch}")
    shutil.rmtree(state.parent, ignore_errors=True)
    print("OK")


if __name__ == "__main__":
    main()
