"""The four workloads: seeded datasets and fixed request schedules.

Everything here runs in the benchmark process.  The server child gets
the same database by regenerating it from ``(scenario, seed)``; every
other input reaches it only as the HTTP bytes built here.

Each workload is a *closed loop over a fixed, seeded op count*: callers
of this system submit a query batch and wait for its result set, so a
slow server receives less load; and a fixed count (not a fixed
duration) makes every program-side count repeat exactly.  The counts
are constants, sized so that the timed phase takes about
``run_seconds`` (``BENCHMARK.json``) at the commit that introduced the
benchmark, and each is a whole multiple of the workload's body pool so
that every seed sends the same mix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.types import SegmentArray
from repro.data.random_walk import (make_random_walks, random_dataset,
                                    random_dense_dataset)
from repro.engines import get_engine
from repro.engines.base import GpuEngineBase
from repro.experiments.scenarios import (Scenario, scenario_s1_random,
                                         scenario_s3_random_dense)

#: pinned explicitly everywhere; ``REPRO_SCALE`` is never consulted.
SCALE = 0.02

API_KEY = "bench-key"

EXPLICIT_METHODS = ("gpu_temporal", "gpu_spatiotemporal", "gpu_spatial",
                    "cpu_rtree")


@dataclass(frozen=True)
class Workload:
    """Why each one exists is recorded in ``BENCHMARK.json``."""

    name: str
    scenario: str           # key of SCENARIOS
    backend: str            # single | sharded | durable
    connections: int
    #: timed ops per run (see module docstring).
    num_ops: int


WORKLOADS = {w.name: w for w in (
    # 8-segment method="auto" searches, d in {5, 10, 25}; 768 bodies x 3.
    Workload("interactive_point", "S1-random", "single", 2, 2304),
    # 240-segment searches drawn from database trajectories,
    # gpu_temporal / gpu_spatiotemporal, d in {0.02, 0.05, 0.09};
    # 24 bodies x 5.
    Workload("dense_batch", "S3-random-dense", "single", 2, 120),
    # 64-segment searches, the four explicit methods, d in {10, 25, 50},
    # over 3 shards x 2 memory-only replicas; 384 bodies x 11.
    Workload("sharded_scatter", "S1-random", "sharded", 2, 4224),
    # 75 % 64-segment searches, 20 % ingests of one fresh 400-step
    # walk, 5 % deletes of an earlier ingest; durable, default fsync
    # and compaction policies; 35 blocks of 20.
    Workload("mixed_ingest", "S1-random", "durable", 1, 700),
)}

SCENARIOS = {
    "S1-random": (scenario_s1_random, random_dataset),
    "S3-random-dense": (scenario_s3_random_dense, random_dense_dataset),
}


def make_database(scenario: str, seed: int) -> tuple[Scenario,
                                                    SegmentArray]:
    """The scenario's configs plus its dataset drawn from ``seed``."""
    scenario_fn, dataset_fn = SCENARIOS[scenario]
    return (scenario_fn(SCALE),
            dataset_fn(scale=SCALE, rng=np.random.default_rng(seed)))


@dataclass
class Op:
    """One scheduled request, already serialised."""

    kind: str                      # search | ingest | delete
    path: str
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()
    #: searches: index into ``Schedule.bodies``.
    body_id: int = -1
    #: ingests: the walk sent; deletes: the trajectory id.
    segments: SegmentArray | None = None
    traj_id: int = -1


@dataclass
class SearchBody:
    """One distinct search (queries, d, method): the unit the referee
    checks once.  Ops reuse it with a fresh ``request_id``."""

    queries: SegmentArray
    d: float
    method: str
    #: index of the (queries, d) pair: bodies sharing it share a truth.
    truth_id: int
    payload: dict


@dataclass
class Schedule:
    workload: Workload
    database: SegmentArray
    bodies: list[SearchBody]
    ops: list[Op]
    #: sent once each before the timed phase (inside ``setup_s``).
    warmup: list[Op]
    #: ``mixed_ingest``: searches sent after the last op.
    probes: list[Op] = field(default_factory=list)
    #: referee's memo: ``cpu_scan`` over ``database`` by ``truth_id``.
    base_truths: dict = field(default_factory=dict)


def _engine_params(scenario: Scenario, method: str) -> dict:
    params = dict(scenario.engine_configs.get(method, {}))
    if issubclass(get_engine(method), GpuEngineBase):
        params.setdefault("result_buffer_items",
                          scenario.result_buffer_items)
    return params


def _search_op(bodies: list[SearchBody], body_id: int,
               request_id: str) -> Op:
    payload = dict(bodies[body_id].payload, request_id=request_id)
    return Op("search", "/v1/search", json.dumps(payload).encode(),
              body_id=body_id)


def _bodies(query_sets: list[SegmentArray], d_values, methods,
            scenario: Scenario) -> list[SearchBody]:
    """The cross product, query set outermost."""
    bodies: list[SearchBody] = []
    truth_id = 0
    for queries in query_sets:
        qdict = queries.to_dict()
        for d in d_values:
            for method in methods:
                payload = {"queries": qdict, "d": float(d),
                           "method": method}
                if method != "auto":
                    payload["params"] = _engine_params(scenario, method)
                bodies.append(SearchBody(queries, float(d), method,
                                         truth_id, payload))
            truth_id += 1
    return bodies


def _fresh_walk_queries(rng, side: float, count: int, segments: int,
                        first_traj_id: int) -> list[SegmentArray]:
    """``count`` query sets, each the first ``segments`` segments of a
    fresh S1-style random walk."""
    walks = make_random_walks(
        num_trajectories=count, num_timesteps=segments + 1,
        box_side=side, step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=rng, first_traj_id=first_traj_id)
    return [SegmentArray.from_trajectories([w]) for w in walks]


def _s1_side() -> float:
    n = max(2, int(round(2500 * SCALE)))
    return 1000.0 * (n / 2500.0) ** (1.0 / 3.0)


def _cycle(rng, num_bodies: int, num_ops: int) -> np.ndarray:
    """Body ids for ``num_ops`` ops: seeded permutations of the whole
    pool back to back, so every body is used equally often."""
    reps = -(-num_ops // num_bodies)
    return np.concatenate([rng.permutation(num_bodies)
                           for _ in range(reps)])[:num_ops]


def _read_only(workload: Workload, database,
               bodies: list[SearchBody], rng,
               warm_repeats: int = 1) -> Schedule:
    ids = _cycle(rng, len(bodies), workload.num_ops)
    ops = [_search_op(bodies, int(b), f"op-{i}")
           for i, b in enumerate(ids)]
    # One warm-up per (method, d): builds each engine and fills its
    # d-invariant caches off the clock.
    seen: dict[tuple, int] = {}
    for i, body in enumerate(bodies):
        seen.setdefault((body.method, body.d), i)
    warmup = [_search_op(bodies, b, f"warm-{j}-{r}")
              for j, b in enumerate(seen.values())
              for r in range(warm_repeats)]
    return Schedule(workload, database, bodies, ops, warmup)


def build(workload: Workload, seed: int) -> Schedule:
    """The workload's database and schedule for ``seed``."""
    scenario, database = make_database(workload.scenario, seed)
    rng = np.random.default_rng([seed, 1])
    if workload.name == "interactive_point":
        queries = _fresh_walk_queries(rng, _s1_side(), 256, 8,
                                      1_000_000)
        bodies = _bodies(queries, (5.0, 10.0, 25.0), ("auto",),
                         scenario)
        return _read_only(workload, database, bodies, rng)
    if workload.name == "dense_batch":
        traj_ids = np.unique(database.traj_ids)
        query_sets = []
        for _ in range(4):
            chosen = rng.choice(traj_ids, size=2, replace=False)
            rows = np.flatnonzero(np.isin(database.traj_ids, chosen))
            query_sets.append(database.take(rows[:240]))
        bodies = _bodies(query_sets, (0.02, 0.05, 0.09),
                         ("gpu_temporal", "gpu_spatiotemporal"),
                         scenario)
        return _read_only(workload, database, bodies, rng)
    if workload.name == "sharded_scatter":
        queries = _fresh_walk_queries(rng, _s1_side(), 32, 64,
                                      1_000_000)
        bodies = _bodies(queries, (10.0, 25.0, 50.0), EXPLICIT_METHODS,
                         scenario)
        # Replicas take requests in rotation: two of each warm both.
        return _read_only(workload, database, bodies, rng,
                          warm_repeats=2)
    if workload.name == "mixed_ingest":
        return _mixed_ingest(workload, scenario, database, rng)
    raise KeyError(workload.name)


#: ``mixed_ingest`` op mix per block of 20: 15 searches, 4 ingests,
#: 1 delete — exact, so the compaction count repeats across seeds.
_BLOCK = ("search",) * 15 + ("ingest",) * 4 + ("delete",)


def _mixed_ingest(workload: Workload, scenario: Scenario, database,
                  rng) -> Schedule:
    side = _s1_side()
    queries = _fresh_walk_queries(rng, side, 24, 64, 1_000_000)
    bodies = _bodies(queries, (10.0, 25.0), EXPLICIT_METHODS, scenario)
    num_blocks = workload.num_ops // len(_BLOCK)
    walks = make_random_walks(
        num_trajectories=num_blocks * 4, num_timesteps=400,
        box_side=side, step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=rng, first_traj_id=2_000_000)
    body_ids = iter(_cycle(rng, len(bodies), num_blocks * 15))
    ops: list[Op] = []
    ingested: list[int] = []
    next_walk = 0
    for _ in range(num_blocks):
        kinds = list(_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            i = len(ops)
            if kind == "delete" and not ingested:
                kind = "search"   # nothing of ours to delete yet
            if kind == "search":
                body_id = next(body_ids, 0)
                ops.append(_search_op(bodies, int(body_id), f"op-{i}"))
            elif kind == "ingest":
                walk = walks[next_walk]
                next_walk += 1
                segments = SegmentArray.from_trajectories([walk])
                ops.append(Op(
                    "ingest", "/v1/ingest",
                    json.dumps({"segments": segments.to_dict(),
                                "request_id": f"op-{i}"}).encode(),
                    headers=(("Idempotency-Key", f"ingest-{i}"),),
                    segments=segments, traj_id=walk.traj_id))
                ingested.append(walk.traj_id)
            else:
                victim = ingested.pop(int(rng.integers(len(ingested))))
                ops.append(Op(
                    "delete", "/v1/delete",
                    json.dumps({"traj_id": victim,
                                "request_id": f"op-{i}"}).encode(),
                    headers=(("Idempotency-Key", f"delete-{i}"),),
                    traj_id=victim))
    seen: dict[str, int] = {}
    for i, body in enumerate(bodies):
        seen.setdefault(body.method, i)
    warmup = [_search_op(bodies, b, f"warm-{j}")
              for j, b in enumerate(seen.values())]
    probes = [_search_op(bodies, b, f"probe-{j}")
              for j, b in enumerate(range(0, len(bodies), 13))]
    return Schedule(workload, database, bodies, ops, warmup, probes)
