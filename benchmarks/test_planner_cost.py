"""What planning one ``method="auto"`` request costs, as structure.

``benchmarks/e2e``'s ``interactive_point`` is almost nothing but the
planner: 8-segment fresh walks against S1-random at 2 %, d in
{5, 10, 25}.  The planner pays for the database once per base
(``DatabaseProfile``) and then, per sampled query, two binary searches,
slice passes and one full-length pass.  This benchmark sends 300 such
requests through a warm ``QueryService`` and gates what a stopwatch on a
shared box cannot:

* the 300 requests build exactly one profile;
* no request's plan passes over more database rows than the committed
  ceiling (``rows_scanned`` on the ``service.plan`` span — a program
  count, exact at a seed; the one-pass-per-rule planner kept as the
  oracle in ``tests/oracles/planner_reference.py`` reads ~20 x |D| per
  sampled query);
* planning against the kept profile is >= 4x faster than the oracle
  (same estimates, bit for bit: ``tests/test_planner_identity.py``).

The seconds are printed, not gated.
"""

import time

import numpy as np

from .conftest import emit

from repro.core.planner import DatabaseProfile, plan_search
from repro.core.types import SegmentArray
from repro.data import random_dataset
from repro.data.random_walk import make_random_walks
from repro.service import QueryService, SearchRequest
from tests.oracles import planner_reference

SCALE = 0.02
D_VALUES = (5.0, 10.0, 25.0)
NUM_WALKS = 100
SEGMENTS = 8
#: one full-length pass per sampled query plus the temporal slices:
#: at this seed the largest request reads 8.3 x |D|.
MAX_ROWS_PER_REQUEST_PER_ENTRY = 9.0
MIN_SPEEDUP = 4.0


def _walk_queries():
    n = max(2, int(round(2500 * SCALE)))
    side = 1000.0 * (n / 2500.0) ** (1.0 / 3.0)
    walks = make_random_walks(
        num_trajectories=NUM_WALKS, num_timesteps=SEGMENTS + 1,
        box_side=side, step_sigma=1.0, start_time_range=(0.0, 100.0),
        rng=np.random.default_rng(1), first_traj_id=1_000_000)
    return [SegmentArray.from_trajectories([w]) for w in walks]


def _min_of_5_interleaved(database, profile, shapes, sample):
    """Best-of-five seconds per plan, (kept profile, oracle),
    alternating so a noisy stretch hits both."""
    best = {"new": float("inf"), "oracle": float("inf")}
    sides = (("new", plan_search, profile),
             ("oracle", planner_reference.plan_search, database))
    for _ in range(5):
        for label, plan, first in sides:
            wall0 = time.perf_counter()
            for queries, d in shapes:
                plan(first, queries, d, sample=sample)
            best[label] = min(best[label],
                              (time.perf_counter() - wall0) / len(shapes))
    return best["new"], best["oracle"]


def test_planner_cost():
    database = random_dataset(scale=SCALE, rng=np.random.default_rng(0))
    shapes = [(queries, d) for queries in _walk_queries()
              for d in D_VALUES]
    svc = QueryService(database)
    svc.submit(SearchRequest(queries=shapes[0][0], d=shapes[0][1],
                             method="auto"))          # warm
    svc.telemetry.tracer.clear()
    wall0 = time.perf_counter()
    for queries, d in shapes:
        response = svc.submit(SearchRequest(queries=queries, d=d,
                                            method="auto"))
        assert response.ok and not response.metrics.degraded
    request_s = (time.perf_counter() - wall0) / len(shapes)

    plans = [s for root in svc.telemetry.tracer.roots
             for s in root.walk() if s.name == "service.plan"]
    rows = [s.attributes["rows_scanned"] for s in plans]
    builds = svc.telemetry.metrics.counter(
        "repro_planner_profile_builds_total").total()
    svc.shutdown()

    wall0 = time.perf_counter()
    profile = DatabaseProfile.build(database)
    build_s = time.perf_counter() - wall0
    new_s, oracle_s = _min_of_5_interleaved(
        database, profile, shapes[:60], svc.PLANNER_SAMPLE)

    n = len(database)
    emit("planner_cost",
         f"{len(shapes)} warm auto requests, {SEGMENTS}-segment walks, "
         f"S1-random at 2 % ({n} rows), sample={svc.PLANNER_SAMPLE}\n"
         f"profile builds                    {builds:9.0f}\n"
         f"rows_scanned per request: mean    {np.mean(rows):9.0f} "
         f"({np.mean(rows) / n:.2f} x |D|)\n"
         f"rows_scanned per request: max     {max(rows):9d} "
         f"({max(rows) / n:.2f} x |D|)\n"
         f"DatabaseProfile.build             {build_s * 1e3:9.3f} ms\n"
         f"QueryService.submit (auto, warm)  {request_s * 1e3:9.3f} ms\n"
         f"plan_search, kept profile         {new_s * 1e3:9.3f} ms\n"
         f"plan_search, oracle               {oracle_s * 1e3:9.3f} ms "
         f"({oracle_s / new_s:.1f}x; min of 5 interleaved)")

    assert builds == 1
    assert [s.attributes["profile"] for s in plans] == \
        ["hit"] * len(shapes)
    assert max(rows) <= MAX_ROWS_PER_REQUEST_PER_ENTRY * n
    assert oracle_s / new_s >= MIN_SPEEDUP
