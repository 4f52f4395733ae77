"""The planner ranks exactly as it did when it re-read the database on
every call — and a service profiles each base once.

``repro.core.planner`` splits a plan into the half that depends only on
the database (``DatabaseProfile``: statistics, the boxes in ``t_start``
order and a float32 copy in ``x_lo`` order) and the half that depends on
the request (binary searches and passes over windows).  Engine choice hangs on ``est_seconds``, ties included,
so "the same planner" has to mean the same floats.  The referee is
``tests/oracles/planner_reference.py`` — the one-pass-per-rule planner
the repository shipped through commit 55f3923, kept verbatim.

The second half pins the profile's lifetime inside ``QueryService``: one
build per base, untouched by appends and deletes, replaced by a
compaction, never lent to a snapshot of another base, never written to
a checkpoint.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import DatabaseProfile, plan_search
from repro.core.types import SegmentArray
from repro.data.random_walk import make_random_walks
from repro.durability import list_checkpoints
from repro.experiments import (ExperimentRunner, scenario_s1_random,
                               scenario_s2_merger,
                               scenario_s3_random_dense)
from repro.service import QueryService, SearchRequest, scheduler
from tests.conftest import make_walk_trajectories
from tests.oracles import planner_reference

# A planner that divides by a zero width or ranks from NaNs fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DS = (0.01, 0.09, 1, 5, 25)
HINTS = ({}, {"num_bins": 40, "num_subbins": 16},
         {"cells_per_dim": 9, "segments_per_mbb": 3},
         {"num_bins": 1, "num_subbins": 1, "cells_per_dim": 1,
          "segments_per_mbb": 1})
SAMPLES = (7, 32, 48)


def assert_same_plans(got, want):
    assert [p.engine for p in got] == [p.engine for p in want]
    for a, b in zip(got, want):
        assert a.params == b.params
        assert a.est_candidates_per_query == b.est_candidates_per_query
        assert a.est_seconds == b.est_seconds


def assert_identical(database, queries, d, **kw):
    want = planner_reference.plan_search(database, queries, d, **kw)
    assert_same_plans(plan_search(database, queries, d, **kw), want)
    return want


def segments(rows, traj_id=0):
    """Rows of ``(xs, ys, zs, ts, xe, ye, ze, te)``."""
    cols = np.asarray(rows, dtype=np.float64).T
    return SegmentArray(*cols, np.full(len(rows), traj_id))


class TestIdentity:
    @pytest.mark.parametrize("scenario_fn", [
        scenario_s1_random, scenario_s2_merger,
        scenario_s3_random_dense])
    def test_paper_scenarios(self, scenario_fn):
        """Both sides of ``len(queries) > sample``, every hint, through
        a kept profile and through a database."""
        runner = ExperimentRunner(scenario_fn(0.005))
        database = runner.database
        queries = runner.queries.take(np.arange(40))
        assert min(SAMPLES) < len(queries) < max(SAMPLES)
        profile = DatabaseProfile.build(database)
        for d, hints, sample in itertools.product(DS, HINTS, SAMPLES):
            want = assert_identical(database, queries, d, sample=sample,
                                    **hints)
            assert_same_plans(
                plan_search(profile, queries, d, sample=sample, **hints),
                want)

    def test_eight_segment_walks(self):
        """The ``interactive_point`` request shape: 8 consecutive
        segments of a fresh walk through the database's box."""
        database = ExperimentRunner(scenario_s1_random(0.005)).database
        profile = DatabaseProfile.build(database)
        walks = make_random_walks(
            num_trajectories=12, num_timesteps=400, box_side=170.0,
            step_sigma=1.0, start_time_range=(0.0, 100.0),
            rng=np.random.default_rng(5), first_traj_id=10**6)
        for i, walk in enumerate(walks):
            body = SegmentArray.from_trajectories([walk]).take(
                np.arange(30 * i, 30 * i + 8))
            for d in (5.0, 10.0, 25.0):
                assert_same_plans(
                    plan_search(profile, body, d, sample=32),
                    planner_reference.plan_search(database, body, d,
                                                  sample=32))

    def test_single_row_database(self, small_queries):
        database = segments([(1, 2, 3, 4, 5, 6, 7, 8)])
        for d in DS:
            assert_identical(database, small_queries, d)

    def test_queries_outside_the_time_span(self, small_db, small_queries):
        t_lo, t_hi = small_db.temporal_extent
        span = t_hi - t_lo
        for shift in (-3 * span, 3 * span, -span, span):
            moved = SegmentArray(
                small_queries.xs, small_queries.ys, small_queries.zs,
                small_queries.ts + shift, small_queries.xe,
                small_queries.ye, small_queries.ze,
                small_queries.te + shift, small_queries.traj_ids)
            for d in (0.5, 5.0):
                plans = assert_identical(small_db, moved, d,
                                         num_bins=40)
            if abs(shift) > span:
                assert {p.engine: p.est_candidates_per_query
                        for p in plans}["gpu_temporal"] == 0

    @pytest.mark.parametrize("scale,offset", [
        (1.0, 1e6), (1.0, -3e7), (1e-7, 0.0), (1e-7, 1.0), (1e30, 1e39),
        (1.0, -1e39)])
    def test_coordinates_float32_cannot_hold(self, small_db,
                                             small_queries, scale,
                                             offset):
        """GPUSpatial's window is narrowed in a float32 copy of the
        edges; rounding there may only let extra rows through."""
        def moved(seg):
            space = [c * scale + offset for c in (seg.xs, seg.ys, seg.zs,
                                                  seg.xe, seg.ye, seg.ze)]
            return SegmentArray(*space[:3], seg.ts, *space[3:], seg.te,
                                seg.traj_ids)

        database, queries = moved(small_db), moved(small_queries)
        for d in (0.0, 0.3 * scale, 2.5 * scale):
            assert_identical(database, queries, d, cells_per_dim=200)

    def test_boxes_that_touch_exactly(self):
        """Integer coordinates, d = 0 and whole-unit cells and leaves:
        many boxes meet a window only at its edge, where rounding to
        float32 must keep them."""
        rng = np.random.default_rng(11)

        def grid(count, traj_id):
            pts = rng.integers(0, 11, size=(count, 8)).astype(float)
            pts[:, 7] = pts[:, 3] + rng.integers(0, 3, size=count)
            return segments(pts, traj_id)

        database, queries = grid(300, 0), grid(12, 1)
        for d in (0.0, 1.0):
            assert_identical(database, queries, d, cells_per_dim=10,
                             num_subbins=5, num_bins=10)

    def test_zero_length_segments(self, small_queries):
        """Stationary points, instantaneous segments, and ties in
        ``t_start`` (the sort is stable, the counts order-free)."""
        rows = [(5, 5, 5, 2, 5, 5, 5, 2), (5, 5, 5, 2, 5, 5, 5, 9),
                (1, 9, 4, 2, 8, 2, 6, 2), (0, 0, 0, 0, 20, 20, 20, 20),
                (7, 7, 7, 30, 7, 7, 7, 30)]
        database = segments(rows)
        points = segments([(5, 5, 5, 2, 5, 5, 5, 2),
                           (9, 1, 3, 7, 9, 1, 3, 7)], traj_id=9)
        for queries in (small_queries, points):
            for d in (0.0, 0.5, 5.0):
                assert_identical(database, queries, d)
        # Zero spatial extent in every dimension: side clamps to 1e-30.
        flat = segments([(3, 3, 3, 0, 3, 3, 3, 1)] * 4)
        assert_identical(flat, points, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           m=st.integers(1, 12), d=st.floats(0.0, 30.0),
           sample=st.integers(1, 16),
           grid=st.booleans())
    def test_random_small_databases(self, seed, n, m, d, sample, grid):
        rng = np.random.default_rng(seed)

        def draw(count, traj_id):
            pts = rng.uniform(0.0, 20.0, size=(count, 8))
            if grid:  # coarse values: ties on every window edge
                pts = np.round(pts / 5.0) * 5.0
            pts[:, 7] = pts[:, 3] + np.abs(pts[:, 7] - pts[:, 3])
            return segments(pts, traj_id)

        assert_identical(draw(n, 0), draw(m, 1), d, sample=sample,
                         num_bins=7, num_subbins=3, cells_per_dim=4)

    def test_failures_stay_failures(self, small_db, small_queries):
        """What the service degrades on still raises."""
        with pytest.raises(ValueError):
            plan_search(SegmentArray.empty(), small_queries, 1.0)
        with pytest.raises(ValueError):
            plan_search(small_db, SegmentArray.empty(), 1.0)
        with pytest.raises(ValueError):
            plan_search(small_db, small_queries, float("inf"))

    def test_profile_is_frozen(self, small_db):
        profile = DatabaseProfile.build(small_db)
        arrays = [profile.mins, profile.side, profile.edges,
                  profile.te_running_max, profile.mean_entry_extent_s,
                  profile.max_entry_extent_s, profile.x_order,
                  profile.x_lo, profile.x_hi_running_max, profile.x_yz]
        assert not any(a.flags.writeable for a in arrays)
        assert np.all(np.diff(profile.edges[0]) >= 0)
        assert np.all(np.diff(profile.x_lo) >= 0)
        # The x-ordered copy is the float32 rounding of the edges.
        in_x_order = profile.edges[:, profile.x_order]
        assert np.array_equal(profile.x_lo, np.float32(in_x_order[2]))
        assert np.array_equal(
            profile.x_hi_running_max,
            np.maximum.accumulate(np.float32(-in_x_order[3])))
        assert np.array_equal(profile.x_yz, np.float32(in_x_order[4:]))
        assert len(profile) == len(small_db)


def _rows_read_by_full_passes(database, queries, d, *, sample,
                              num_bins=1000, num_subbins=4,
                              cells_per_dim=50, segments_per_mbb=4):
    """What one request read when GPUSpatial's count was a full pass:
    |D| per sampled query, plus its ``t_start`` window once per
    single-subbin dimension and its R-tree time window."""
    take = np.random.default_rng(0).choice(
        len(queries), size=min(sample, len(queries)), replace=False)
    by_time = np.argsort(database.ts, kind="stable")
    ts = database.ts[by_time]
    te_max = np.maximum.accumulate(database.te[by_time])
    mins, maxs = database.spatial_bounds()
    sub_w = np.maximum(maxs - mins, 1e-30) / num_subbins
    t_lo, t_hi = database.temporal_extent
    bin_width = max(t_hi - t_lo, 1e-30) / num_bins
    durations = database.te - database.ts
    leaf_t = float(np.mean(durations)) * segments_per_mbb / 2.0
    rows = len(take) * len(database)
    for q in take:
        lo = np.minimum(queries.starts[q], queries.ends[q]) - d
        hi = np.maximum(queries.starts[q], queries.ends[q]) + d
        j_lo, j_hi = (np.clip((x - mins) // sub_w, 0, num_subbins - 1)
                      for x in (lo, hi))
        window = (np.searchsorted(ts, queries.te[q] + bin_width, "right")
                  - np.searchsorted(ts, queries.ts[q] - bin_width
                                    - durations.max(), "left"))
        rows += window * int(np.count_nonzero(j_lo == j_hi))
        rows += (np.searchsorted(ts, queries.te[q] + leaf_t, "right")
                 - np.searchsorted(te_max, queries.ts[q] - leaf_t))
    return rows


class TestRowsScanned:
    """Windows replaced the full pass each sampled query made over the
    database.  Spread out in time, the sampled queries' windows cover
    most of it, but a request never reads more than the passes it
    replaced did."""

    @staticmethod
    def _spread(database, count=40):
        """``count`` database segments evenly spaced over its time
        span: every sampled window lies somewhere else."""
        by_time = np.argsort(database.ts, kind="stable")
        return database.take(by_time[np.linspace(
            0, len(database) - 1, count).astype(int)])

    @pytest.mark.parametrize("scenario_fn", [
        scenario_s1_random, scenario_s2_merger,
        scenario_s3_random_dense])
    def test_never_more_than_the_full_passes(self, scenario_fn):
        runner = ExperimentRunner(scenario_fn(0.005))
        database = runner.database
        profile = DatabaseProfile.build(database)
        spread = self._spread(database)
        assert np.ptp(spread.ts) > 0.9 * np.ptp(database.ts)
        for queries in (runner.queries.take(np.arange(40)), spread):
            for d, hints, sample in itertools.product(DS, HINTS, SAMPLES):
                plans = plan_search(profile, queries, d, sample=sample,
                                    **hints)
                assert {p.engine: p.rows_scanned
                        for p in plans}["gpu_temporal"] == 0
                assert sum(p.rows_scanned for p in plans) <= \
                    _rows_read_by_full_passes(database, queries, d,
                                              sample=sample, **hints)


def _fresh(seed, traj_id):
    walk, = make_walk_trajectories(1, 12, seed=seed)
    return SegmentArray.from_trajectories(
        [walk.__class__(traj_id, walk.times, walk.positions)])


class TestServiceProfile:
    @pytest.fixture
    def watched(self, small_db, monkeypatch):
        """A service, the plans its ``plan_search`` calls returned, and
        the databases its profiles were built over."""
        svc = QueryService(small_db, auto_compact=False)
        plans, built = [], []
        shipped, build = scheduler.plan_search, DatabaseProfile.build

        def recording_plan(*args, **kw):
            plans.append(shipped(*args, **kw))
            return plans[-1]

        def recording_build(database):
            built.append(database)
            return build(database)

        # By module attribute, as benchmarks/e2e's traced pass does.
        monkeypatch.setattr(scheduler, "plan_search", recording_plan)
        monkeypatch.setattr(DatabaseProfile, "build",
                            staticmethod(recording_build))
        return svc, plans, built

    @staticmethod
    def _auto(svc, queries, d=2.5):
        response = svc.submit(SearchRequest(queries=queries, d=d,
                                            method="auto"))
        assert response.ok and not response.metrics.degraded
        return response

    @staticmethod
    def _builds(svc):
        return svc.telemetry.metrics.counter(
            "repro_planner_profile_builds_total").total()

    def _oracle(self, svc, database, queries, d=2.5):
        return planner_reference.plan_search(
            database, queries, d, sample=svc.PLANNER_SAMPLE)

    def test_fifty_requests_build_one_profile(self, watched,
                                              small_queries):
        svc, plans, built = watched
        for i in range(50):
            self._auto(svc, small_queries.take(np.arange(i, i + 8)),
                       d=0.5 + i / 10)
        assert len(plans) == 50, "plan_search: once per auto request"
        assert len(built) == 1 and built[0] is svc.database
        assert self._builds(svc) == 1
        spans = [s for root in svc.telemetry.tracer.roots
                 for s in root.walk() if s.name == "service.plan"]
        assert [s.attributes["profile"] for s in spans] == \
            ["built"] + ["hit"] * 49
        for span, ranked in zip(spans, plans):
            assert span.attributes["winner"] == ranked[0].engine
            assert span.attributes["rows_scanned"] == \
                sum(p.rows_scanned for p in ranked) > 0

    def test_ingest_and_delete_keep_it_compaction_replaces_it(
            self, watched, small_db, small_queries):
        svc, plans, built = watched
        self._auto(svc, small_queries)
        svc.ingest(_fresh(7, 700))
        svc.delete_trajectory(3)
        self._auto(svc, small_queries)
        # The delta is not planned over: same base, same ranking.
        assert len(built) == 1
        assert_same_plans(plans[1], plans[0])
        assert_same_plans(plans[1],
                          self._oracle(svc, small_db, small_queries))

        svc.compact()
        new_base = svc.database
        assert len(new_base) != len(small_db)
        self._auto(svc, small_queries)
        self._auto(svc, small_queries)
        assert len(built) == 2 and built[1] is new_base
        assert self._builds(svc) == 2
        assert_same_plans(plans[3],
                          self._oracle(svc, new_base, small_queries))

    def test_checkpoint_does_not_carry_the_profile(self, tmp_path,
                                                   small_db,
                                                   small_queries):
        """Same cache contents, same bytes on disk, whether or not the
        service ever planned."""
        sizes = {}
        for label in ("planned", "explicit"):
            svc = QueryService(small_db, auto_compact=False,
                               durability_dir=tmp_path / label)
            if label == "planned":
                served = self._auto(svc, small_queries, d=0.5)
                assert served.metrics.engine == "cpu_rtree"
                assert svc._plan_profile is not None
            else:
                svc.submit(SearchRequest(
                    queries=small_queries, d=0.5, method="cpu_rtree",
                    params={"segments_per_mbb": 4}))
            newest = list_checkpoints(svc.checkpoint().parent)[0]
            sizes[label] = {str(p.relative_to(newest)): p.stat().st_size
                            for p in newest.rglob("*") if p.is_file()}
            svc.shutdown()
        assert sizes["planned"] == sizes["explicit"]
