"""What one compaction costs, and where.

A compaction is the write path's one slow step (``benchmarks/e2e``:
``mixed_ingest`` spends most of its wall time in twelve of them), and it
runs inline in the ingest that tripped the policy.  This benchmark takes
one durable service at the ``mixed_ingest`` size — S1-random at 2 %, the
scenario's four engines warm, default policies — ingests 400-step walks
until the policy compacts, and splits that one compaction into the fold,
each engine's rebuild and the checkpoint (seconds and bytes).

The seconds are printed, not gated; three structural facts are:

* the checkpoint writes little more than the base and the one artifact a
  restart wants (``cpu_rtree``: > 1 s to rebuild, ~10 ms to load);
* the insertion-built R-tree is the only rebuild that takes real time —
  the GPU indexes are vectorised sorts;
* that R-tree is built >= 1.4x faster than by the straightforward
  builder the tests keep as the oracle (same tree, bit for bit:
  ``tests/test_rtree_identity.py``).
"""

import time

import numpy as np

from .conftest import emit

from repro.core.types import SegmentArray
from repro.data import random_dataset
from repro.data.random_walk import make_random_walks
from repro.durability import list_checkpoints, load_checkpoint
from repro.engines import get_engine
from repro.engines.base import GpuEngineBase
from repro.experiments import scenario_s1_random
from repro.indexes import rtree_insert
from repro.indexes.rtree import RTree
from repro.service import QueryService, SearchRequest
from tests.oracles.guttman_reference import GuttmanBuilder as Reference

SCALE = 0.02
METHODS = ("gpu_spatial", "gpu_temporal", "gpu_spatiotemporal",
           "cpu_rtree")
D = 10.0
SLOW_REBUILD_S = 0.1
MIN_BUILDER_SPEEDUP = 1.4


def _params(scenario, method):
    params = dict(scenario.engine_configs[method])
    if issubclass(get_engine(method), GpuEngineBase):
        params["result_buffer_items"] = scenario.result_buffer_items
    return params


def _fresh_walks(count, first_traj_id):
    n = max(2, int(round(2500 * SCALE)))
    side = 1000.0 * (n / 2500.0) ** (1.0 / 3.0)
    return make_random_walks(
        num_trajectories=count, num_timesteps=400, box_side=side,
        step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=np.random.default_rng(1), first_traj_id=first_traj_id)


def _min_of_3_interleaved(database, params, monkeypatch):
    """Best-of-three build seconds, (builder under test, oracle),
    alternating so a noisy stretch hits both."""
    best = {"new": float("inf"), "oracle": float("inf")}
    shipped = rtree_insert.GuttmanBuilder
    for _ in range(3):
        for label, builder in (("new", shipped), ("oracle", Reference)):
            monkeypatch.setattr(rtree_insert, "GuttmanBuilder", builder)
            wall0 = time.perf_counter()
            RTree.build(database, **params)
            best[label] = min(best[label], time.perf_counter() - wall0)
    return best["new"], best["oracle"]


def test_compaction_cost(tmp_path, monkeypatch):
    scenario = scenario_s1_random(SCALE)
    database = random_dataset(scale=SCALE, rng=np.random.default_rng(0))
    svc = QueryService(database, durability_dir=tmp_path / "state")
    walks = _fresh_walks(13, first_traj_id=2_000_000)
    queries = SegmentArray.from_trajectories(walks[:1]).take(np.arange(64))
    for method in METHODS:
        response = svc.submit(SearchRequest(
            queries=queries, d=D, method=method,
            params=_params(scenario, method)))
        assert response.ok

    events = svc.telemetry.events
    builds_before = len(events.of_kind("engine_build"))
    for walk in walks[1:]:
        svc.ingest(SegmentArray.from_trajectories([walk]))
        if svc.versioned.total_compactions:
            break
    assert svc.versioned.total_compactions == 1, \
        "twelve 400-step walks should trip the default policy once"
    compaction, = events.of_kind("compaction")
    assert compaction.fields["trigger"] == "policy"
    assert compaction.fields["prewarm"] == len(METHODS)

    fold_s = svc.telemetry.metrics.histogram(
        "repro_compaction_seconds").sum()
    rebuild_s = {e.fields["engine"]: e.fields["build_wall_s"]
                 for e in events.of_kind("engine_build")[builds_before:]}
    assert set(rebuild_s) == set(METHODS)
    checkpoint_s = events.of_kind("checkpoint")[-1].fields["wall_seconds"]

    newest = list_checkpoints(svc.durability.checkpoints_dir)[0]
    sizes = {str(p.relative_to(newest)): p.stat().st_size
             for p in newest.rglob("*") if p.is_file()}
    artifact = {r.method: r.artifact
                for r in load_checkpoint(newest).engines}
    svc.shutdown()

    rtree_params = {"segments_per_mbb": 4, "temporal_axis": True}
    new_s, oracle_s = _min_of_3_interleaved(
        svc.current_snapshot().base, rtree_params, monkeypatch)

    rows = [f"{'stage':<34s} {'seconds':>9s} {'bytes':>11s}",
            f"{'fold (VersionedDatabase.compact)':<34s} {fold_s:9.4f}"]
    rows += [f"{'rebuild ' + method:<34s} {rebuild_s[method]:9.4f}"
             for method in METHODS]
    rows.append(f"{'checkpoint':<34s} {checkpoint_s:9.4f} "
                f"{sum(sizes.values()):11d}")
    rows += [f"{'  ' + name:<34s} {'':9s} {size:11d}"
             for name, size in sorted(sizes.items())]
    rows.append(f"R-tree build over {len(svc.current_snapshot().base)} "
                f"rows, min of 3 interleaved: {new_s:.3f} s, "
                f"oracle {oracle_s:.3f} s ({oracle_s / new_s:.2f}x)")
    emit("compaction_cost",
         "one policy compaction, S1-random at 2 %, four warm engines\n"
         + "\n".join(rows))

    # Only the engine that asks for one gets an artifact, and the
    # checkpoint is little more than the arrays plus that artifact.
    assert [m for m, rel in artifact.items() if rel] == ["cpu_rtree"]
    wanted = sizes["base.npz"] + sizes[artifact["cpu_rtree"]]
    assert sum(sizes.values()) <= 1.5 * wanted
    slow = [m for m, s in rebuild_s.items() if s > SLOW_REBUILD_S]
    assert slow in ([], ["cpu_rtree"]), \
        f"a GPU index took over {SLOW_REBUILD_S} s to rebuild: {rebuild_s}"
    assert oracle_s / new_s >= MIN_BUILDER_SPEEDUP
