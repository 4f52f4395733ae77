"""The reject in front of the exact refinement is exact — and the
referees do not depend on it.

``core.distance.surviving_pairs`` drops candidate pairs whose bounding
boxes are further apart than ``d + tau`` before the GPU loop solves
them (``GpuEngineBase._search_once``, whose ``engines.base.refine``
sends each run of threads through ``surviving_rows``, which sends the
two bin engines' runs through ``surviving_bin_pairs`` instead when
their bin grid pays).  Nothing observable may change:

(a) on the schemes' real batches — redo invocations under tiny result
    buffers included — ``refine`` returns the same bytes with the
    reject in front as with it bypassed (``surviving_rows`` patched to
    keep every scheduled pair);
(b) on pairs built to sit on the threshold (one axis alone, ulps and
    ``tau / 2`` either side, degenerate geometry, large offsets) no pair
    the exact floating-point path accepts is dropped;
(c) the same over Hypothesis-drawn small databases;
(d) with the reject sabotaged to drop everything the GPU engines go
    empty while ``cpu_scan``, ``cpu_rtree`` and brute force answer as
    before — a bug in the reject cannot hide on both sides of a
    comparison;
(e) the grid enumeration (``surviving_bin_pairs``) returns, for every
    kind of bin-engine thread — temporal, subbin, defaulted, dead —
    exactly the ``(thread, row)`` pairs the pair form keeps over the
    same candidates expanded, and ``refine`` hands the exact solve those
    pairs, in runs, whichever way the reject goes; GPUSpatioTemporal's
    schedule keeps
    GPUTemporal's entry for every query it defaults.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import distance
from repro.core.bruteforce import brute_force_search
from repro.core.distance import (_REJECT_MARGIN, compare_pairs, magnitude,
                                 surviving_bin_pairs, surviving_pairs)
from repro.core.ranges import range_offsets
from repro.core.types import SegmentArray
from repro.engines import (CpuRTreeEngine, CpuScanEngine, GpuSpatialEngine,
                           GpuSpatioTemporalEngine, GpuTemporalEngine,
                           available, base, get_engine)
from repro.engines.base import RangeBatch, ThreadWork, refine
from repro.experiments.scenarios import (scenario_s1_random,
                                         scenario_s2_merger,
                                         scenario_s3_random_dense)
from repro.indexes import Schedule, SpatioTemporalIndex, TemporalIndex
from repro.obs import Telemetry
from tests.conftest import series_value
from tests.oracles.perthread_reference import explicit

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF = float("inf")
SCALE = 0.005
D_VALUES = (0.0, 0.01, 0.09, 5.0, INF)

SCENARIOS = {"S1": scenario_s1_random, "S2-merger": scenario_s2_merger,
             "S3": scenario_s3_random_dense}
GPU_ENGINES = {"gpu_temporal": GpuTemporalEngine,
               "gpu_spatiotemporal": GpuSpatioTemporalEngine,
               "gpu_spatial": GpuSpatialEngine}


def _keep_everything(queries, database, work, d, scale, grid):
    return work.batch.lengths(), work.rows(), 0


def _drop_everything(queries, database, work, d, scale, grid):
    return (np.zeros(work.batch.q_rows.shape[0], dtype=np.int64),
            np.zeros(0, dtype=np.int64), 0)


def _keep(batch: RangeBatch, positions: np.ndarray) -> RangeBatch:
    """A batch's threads with only the candidates at ``positions``
    (ascending), their rows explicit."""
    thread = np.searchsorted(range_offsets(batch.lengths()), positions,
                             side="right") - 1
    return explicit(
        batch.q_rows, batch.rows()[positions],
        np.bincount(thread, minlength=batch.q_rows.shape[0]))


def _result_bytes(result) -> bytes:
    return b"".join(a.tobytes() for a in (result.q_ids, result.e_ids,
                                          result.t_lo, result.t_hi))


# -- (a) the schemes' real batches ------------------------------------------------


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario_data(request):
    scenario = SCENARIOS[request.param](SCALE)
    database = scenario.make_database()
    queries = scenario.make_queries(database)
    return scenario, database, queries.take(np.arange(0, len(queries), 8))


@pytest.mark.parametrize("engine_name", sorted(GPU_ENGINES))
def test_real_batches_refine_to_the_same_bytes(scenario_data, engine_name,
                                               monkeypatch):
    scenario, database, queries = scenario_data
    if engine_name == "gpu_spatial":
        # At d = 5 and inf every entry is a candidate of every query,
        # every invocation, and the bypassed run solves them all.
        queries = queries.take(np.arange(0, len(queries), 4))
    params = dict(scenario.engine_configs.get(engine_name, {}),
                  result_buffer_items=40)    # redo on nearly every search

    def run(reject):
        """Every ``refine`` return of a whole sweep, as bytes, the pairs
        it solved, and the reject's grid enumerations."""
        seen, pairs, grids = [], 0, 0
        real, real_grid = refine, base.surviving_bin_pairs

        def grid_spy(*args, **kw):
            nonlocal grids
            grids += 1
            return real_grid(*args, **kw)

        def spy(q, db, work, d, **kw):
            nonlocal pairs
            out = real(q, db, work, d, **kw)
            pairs += out.refined
            seen.append(b"|".join(a.tobytes() for a in out[:5]))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(base, "refine", spy)
            patch.setattr(base, "surviving_bin_pairs", grid_spy)
            if reject is not None:
                patch.setattr(base, "surviving_rows", reject)
            engine = GPU_ENGINES[engine_name].from_config(database,
                                                          **params)
            for d, exclude in itertools.product(D_VALUES, (False, True)):
                try:
                    result, profile = engine.search(
                        queries, d, exclude_same_trajectory=exclude)
                except (base.ResultBufferOverflowError,
                        base.KernelInvocationLimitError) as exc:
                    seen.append(repr(exc).encode())
                else:
                    record = profile.to_dict()
                    del record["wall_seconds"]
                    seen.append(_result_bytes(result)
                                + repr(sorted(record.items())).encode())
        return seen, pairs, grids

    filtered, refined, grids = run(None)
    unfiltered, scheduled, _ = run(_keep_everything)
    assert len(filtered) == len(unfiltered) > 2 * len(D_VALUES)  # redos ran
    assert filtered == unfiltered
    assert refined < scheduled
    # Both reject paths ran: the bin engines' S2 and S3 batches pay for
    # the grid, S1's short spans and GPUSpatial's cell ranges do not.
    assert (grids > 0) == (engine_name != "gpu_spatial"
                           and scenario.name != "S1-random")


# -- (b) pairs built to sit on the threshold --------------------------------------


def _segments(rows) -> SegmentArray:
    cols = np.asarray(rows, dtype=np.float64).T
    return SegmentArray(*cols, np.arange(cols.shape[1], dtype=np.int64))


def _assert_no_hit_dropped(queries, entries, d, *, must_drop=None):
    """One query row per entry row: the pairs ``(i, i)``."""
    idx = np.arange(len(queries), dtype=np.int64)
    scale = magnitude(queries) + magnitude(entries)
    kept = surviving_pairs(queries, entries, idx, idx, d, scale)
    exact = compare_pairs(queries, entries, idx, idx, d)
    dropped = np.setdiff1d(idx, kept)
    assert not exact.mask[dropped].any(), (
        f"d={d}: the reject dropped pairs the exact path accepts: "
        f"{dropped[exact.mask[dropped]]}")
    # ... and what survives refines to the same bytes, compacted or not.
    again = compare_pairs(queries, entries, idx[kept], idx[kept], d)
    hit = exact.mask[kept]
    assert again.mask.tobytes() == hit.tobytes()
    assert again.t_lo[hit].tobytes() == exact.t_lo[kept][hit].tobytes()
    assert again.t_hi[hit].tobytes() == exact.t_hi[kept][hit].tobytes()
    if must_drop is not None:
        assert np.isin(must_drop, dropped).all()
    return kept


def _threshold_pairs(d, tau, origin, t0, dt):
    """(query rows, entry rows, indices that must be dropped): for each
    axis and side, each gap around ``d`` and each kind of motion, one
    pair whose boxes are exactly ``gap`` apart on that axis alone."""
    gaps = [d * (1.0 + k * 2.0 ** -52) for k in range(-4, 5)]
    gaps += [d - tau / 2, d + tau / 2, 0.0]
    far = [d + 2 * tau, d + 1.0 + 2 * tau]
    q_rows, e_rows, must_drop = [], [], []
    for axis, side, gap in itertools.product(range(3), (1.0, -1.0),
                                             gaps + far):
        if gap < 0:
            continue
        off = np.zeros(3)
        off[axis] = side * gap
        along = np.zeros(3)
        along[(axis + 1) % 3] = 1.0       # motion orthogonal to the gap
        toward = np.zeros(3)
        toward[axis] = side
        o = np.full(3, origin)
        t1 = t0 + dt
        motions = [
            # parallel, same velocity: a == 0, constant distance gap
            ((o, o + along), (o + off, o + off + along), (t0, t1)),
            # crossing: minimum distance gap at mid-overlap
            ((o, o + along), (o + off + along, o + off), (t0, t1)),
            # stationary query; entry arrives at distance gap at t1
            ((o, o), (o + off + toward, o + off), (t0, t1)),
            # both zero-length in space
            ((o, o), (o + off, o + off), (t0, t1)),
            # touching time intervals: qte == ets, an instant
            ((o, o + along), (o + along + off, o + off), (t1, t1 + dt)),
            # zero-duration entry inside the query's extent
            ((o, o), (o + off, o + off), (t0 + dt / 2, t0 + dt / 2)),
        ]
        for (qs, qe), (es, ee), (ets, ete) in motions:
            if gap in far:
                must_drop.append(len(q_rows))
            q_rows.append([*qs, t0, *qe, t1])
            e_rows.append([*es, ets, *ee, ete])
    return _segments(q_rows), _segments(e_rows), np.asarray(must_drop)


@pytest.mark.parametrize("d", [0.0, 0.02, 0.09, 5.0])
@pytest.mark.parametrize("origin,t0,dt", [
    (0.0, 0.0, 1.0), (0.0, 1e6, 1.0), (0.0, 1e6, 1e-3),
    (1e6, 0.0, 1.0), (1e6, 1e6, 1.0)],
    ids=["unit", "t1e6", "t1e6-fast", "x1e6", "x1e6-t1e6"])
def test_pairs_on_the_threshold(d, origin, t0, dt):
    # tau for this data: a first pass sizes it, the second builds gaps
    # relative to it (the far pairs barely move the magnitude).
    queries, entries, _ = _threshold_pairs(d, 0.0, origin, t0, dt)
    tau = _REJECT_MARGIN * (magnitude(queries) + magnitude(entries)) * 1.5
    queries, entries, must_drop = _threshold_pairs(d, tau, origin, t0, dt)
    kept = _assert_no_hit_dropped(queries, entries, d, must_drop=must_drop)
    assert kept.size > 0


@pytest.mark.parametrize("t0,dt", [(0.0, 1.0), (1e6, 1.0), (1e6, 1e-3),
                                   (1e6, 1e-6)])
def test_random_pairs_just_past_the_margin(t0, dt):
    """Separated on one axis by a hair more than ``d + tau``: all
    dropped, and the exact path — whose own noise grows with
    ``|v| |t|``, not with the coordinates — must agree on every one."""
    rng = np.random.default_rng(24)
    n = 4000
    for d in (0.0, 0.02, 1.0):
        qs = rng.uniform(-1, 1, (n, 3))
        qe = qs + rng.normal(0, 0.3, (n, 3))
        es = rng.uniform(-1, 1, (n, 3))
        ee = es + rng.normal(0, 0.3, (n, 3))
        qt = t0 + rng.uniform(0, 1, n) * dt
        et = t0 + rng.uniform(0, 1, n) * dt
        ids = np.zeros(n, dtype=np.int64)
        # tau of the pairs as drawn, padded for what the shift below
        # adds to the entries' coordinates: the gap then clears the
        # real tau by about a percent of it.
        scale = magnitude(SegmentArray(*qs.T, qt, *qe.T, qt + dt, ids)) \
            + magnitude(SegmentArray(*es.T, et, *ee.T, et + dt, ids))
        tau = 1.01 * _REJECT_MARGIN * (scale + 8.0 + 2.0 * d)
        axis = rng.integers(0, 3, n)
        rows = np.arange(n)
        q_hi = np.maximum(qs, qe)[rows, axis]
        e_lo = np.minimum(es, ee)[rows, axis]
        shift = (q_hi + d + tau) - e_lo
        es[rows, axis] += shift
        ee[rows, axis] += shift
        queries = SegmentArray(*qs.T, qt, *qe.T, qt + dt, ids)
        entries = SegmentArray(*es.T, et, *ee.T, et + dt, ids + 1)
        kept = _assert_no_hit_dropped(queries, entries, d)
        assert kept.size < n // 2       # the margin is not vacuous here


def test_reject_refuses_nan_and_passes_inf():
    queries, entries, _ = _threshold_pairs(1.0, 1e-6, 0.0, 0.0, 1.0)
    idx = np.arange(len(queries), dtype=np.int64)
    with pytest.raises(ValueError):
        surviving_pairs(queries, entries, idx, idx, float("nan"), 1.0)
    with pytest.raises(ValueError):
        surviving_pairs(queries, entries, idx, idx, -1.0, 1.0)
    kept = surviving_pairs(queries, entries, idx, idx, INF, 1.0)
    assert kept.tobytes() == idx.tobytes()       # all overlap in time


# -- (c) random small databases ---------------------------------------------------

_coord = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def _segment_sets(draw, max_rows):
    n = draw(st.integers(1, max_rows))
    t_base = draw(st.sampled_from([0.0, 50.0, 1e6]))
    rows = []
    for _ in range(n):
        ts = t_base + draw(st.floats(0.0, 20.0, allow_nan=False))
        dt = draw(st.sampled_from([0.0, 1e-3, 1.0, 7.5]))
        start = [draw(_coord) for _ in range(3)]
        step = [draw(st.sampled_from([0.0, 1e-9, 0.5, -3.0, 40.0]))
                for _ in range(3)]
        rows.append([*start, ts, *(s + v for s, v in zip(start, step)),
                     ts + dt])
    cols = np.asarray(rows).T
    return SegmentArray(*cols, draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n)))


@given(_segment_sets(24), _segment_sets(6),
       st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 25.0, INF]),
                 st.floats(0.0, 2e3, allow_nan=False)),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_databases_refine_to_the_same_bytes(database, queries, d,
                                                   exclude):
    nq, nd = len(queries), len(database)
    batch = explicit(
        np.arange(nq, dtype=np.int64),
        np.tile(np.arange(nd, dtype=np.int64), nq),
        np.full(nq, nd, dtype=np.int64))
    kept = surviving_pairs(
        queries, database, np.repeat(batch.q_rows, batch.lengths()),
        batch.rows(), d, magnitude(queries) + magnitude(database))
    want = refine(queries, database, ThreadWork(batch), d,
                  exclude_same_trajectory=exclude)
    got = refine(queries, database, ThreadWork(_keep(batch, kept)), d,
                 exclude_same_trajectory=exclude)
    for a, b in zip(got[:5], want[:5]):
        assert a.tobytes() == b.tobytes()


# -- (d) the referees never pass through the reject -------------------------------


def test_referees_are_independent_of_the_reject(small_db, small_queries,
                                                monkeypatch):
    d = 2.5
    referees = {
        "cpu_scan": lambda: CpuScanEngine(small_db).search(
            small_queries, d)[0],
        "cpu_rtree": lambda: CpuRTreeEngine(small_db).search(
            small_queries, d)[0],
        "brute_force": lambda: brute_force_search(small_queries, small_db,
                                                  d).canonical(),
    }

    def gpu(cls):
        return cls(small_db).search(small_queries, d)[0]

    before = {name: _result_bytes(run()) for name, run in referees.items()}
    assert all(len(gpu(cls)) > 0 for cls in GPU_ENGINES.values())

    monkeypatch.setattr(base, "surviving_rows", _drop_everything)
    for name, cls in GPU_ENGINES.items():
        assert len(gpu(cls)) == 0, name    # the sabotage bites
    for name, run in referees.items():
        assert _result_bytes(run()) == before[name], name


# -- (e) the grid enumeration is the pair form ------------------------------------


@st.composite
def _binned_cases(draw):
    """A small binned base and query set built to sit on the grid's
    edges: a quarter-unit lattice (boxes exactly ``d`` apart), extents
    of 0 or exactly the largest, one or many non-empty bins among empty
    ones, coordinates near 0 or 1e8, queries inside or outside the
    base's space and time."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    origin = draw(st.sampled_from([0.0, 1e8, -1e8]))
    timing = draw(st.sampled_from(["one step", "steps", "continuous"]))

    def segments(n, shift=0.0, t_shift=0.0):
        start = origin + shift + rng.integers(-8, 9, (n, 3)) * 0.25
        extent = rng.choice([0.0, 0.5, 1.0], (n, 3)) \
            * rng.choice([-1.0, 1.0], (n, 3))
        extent[rng.random(n) < 0.2] = 0.0       # points
        if timing == "one step":
            ts = np.zeros(n)
        elif timing == "steps":
            ts = rng.integers(0, 10, n).astype(np.float64)
        else:
            ts = rng.uniform(0.0, 10.0, n)
        ts += t_shift
        te = ts + rng.choice([0.0, 1.0, 3.0], n)
        return SegmentArray(*start.T, ts, *(start + extent).T, te,
                            rng.integers(0, 4, n))

    database = segments(draw(st.integers(1, 80)))
    where = draw(st.sampled_from(["inside", "own rows", "beyond space",
                                  "before", "after"]))
    nq = draw(st.integers(1, 6))
    if where == "own rows":
        queries = database.take(rng.integers(0, len(database), nq))
    else:
        queries = segments(nq, shift=50.0 if where == "beyond space"
                           else 0.0,
                           t_shift={"before": -100.0,
                                    "after": 100.0}.get(where, 0.0))
    d = draw(st.one_of(st.sampled_from([0.0, 0.25, 1.0, INF]),
                       st.floats(0.0, 6.0, allow_nan=False)))
    return (database, queries, d, draw(st.sampled_from([1, 3, 16, 50])),
            draw(st.integers(1, 4)), rng)


def _drawn_threads(rng, index, num_queries):
    """Threads over any subbin of any axis, or none, and any bin span,
    empty spans included: a :class:`Schedule` and each thread's rows,
    found independently of the index's expansion."""
    temporal, m = index.temporal, index.temporal.num_bins
    n = 4 * num_queries
    sel = rng.integers(-1, 3, n)
    subbin = rng.integers(0, index.num_subbins, n)
    bin_lo = rng.integers(0, m, n)
    bin_hi = np.minimum(bin_lo + rng.integers(-1, 3, n), m - 1)
    ent_min, ent_max = temporal.bin_rows(bin_lo, bin_hi)
    row_bins = temporal.bin_of_rows()
    rows = []
    for k, (s, j, lo, hi) in enumerate(zip(sel, subbin, bin_lo, bin_hi)):
        if s < 0:
            rows.append(np.flatnonzero((row_bins >= lo) & (row_bins <= hi)))
            continue
        offs = index.dim_offsets[s]
        ent_min[k], ent_max[k] = (offs[j * m + lo],
                                  offs[j * m + max(hi + 1, lo)] - 1)
        rows.append(index.dim_arrays[s][ent_min[k]:ent_max[k] + 1])
    schedule = Schedule(sel, ent_min, ent_max,
                        rng.integers(0, num_queries, n), bin_lo, bin_hi,
                        subbin)
    return schedule, np.concatenate([np.zeros(0, np.int64), *rows])


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


@given(_binned_cases(), st.sampled_from([distance._REJECT_BLOCK, 64, 5]),
       st.sampled_from([distance._REJECT_SAMPLE, 8]),
       st.sampled_from([base.MAX_PAIRS_PER_CHUNK, 7, 1]))
@settings(max_examples=150, deadline=None)
def test_grid_enumeration_keeps_the_pair_forms_pairs(case, block, sample,
                                                     chunk):
    database, queries, d, num_bins, num_subbins, rng = case
    index = SpatioTemporalIndex.build(database, num_bins, num_subbins,
                                      strict=False)
    temporal = index.temporal
    entries, grid = temporal.segments, temporal.bin_grid()
    # One grid per time-sorted base and bin count, whoever asks.
    assert grid is TemporalIndex.build(database, num_bins).bin_grid()
    assert index.bin_grid() is grid
    q = queries.sorted_by_start_time()
    scale = magnitude(q) + magnitude(entries)

    drawn, drawn_rows = _drawn_threads(rng, index, len(q))
    assert ThreadWork(drawn, index=index).rows().tobytes() \
        == drawn_rows.tobytes()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "_REJECT_BLOCK", block)
        patch.setattr(distance, "_REJECT_SAMPLE", sample)
        # Small chunks send the seam's threads through in several runs.
        patch.setattr(base, "MAX_PAIRS_PER_CHUNK", chunk)
        for work in (
                # GPUTemporal's threads: each query's bin span, dead
                # ones included.
                ThreadWork(temporal.make_schedule(q, d), index=temporal),
                # GPUSpatioTemporal's: subbin, defaulted and dead ones.
                ThreadWork(index.make_schedule(q, d), index=index),
                ThreadWork(drawn, index=index)):
            schedule, lens = work.batch, work.batch.lengths()
            # The pair form over the candidates expanded ...
            flat = explicit(schedule.q_rows, work.rows(),
                                           lens)
            kept = surviving_pairs(q, entries,
                                   np.repeat(flat.q_rows, lens),
                                   flat.rows(), d, scale)
            want = _keep(flat, kept)
            # ... is what the windows find.
            thread, row, examined = surviving_bin_pairs(
                q, grid, schedule.q_rows, schedule.bin_lo, schedule.bin_hi,
                d, scale, array_sel=schedule.array_sel,
                subbin=schedule.subbin, subbins=work.index.subbins)
            _assert_same((row, np.bincount(thread,
                                           minlength=len(schedule))),
                         (want.rows(), want.lengths()))
            assert examined >= row.size
            # And the loop hands the exact solve those pairs, a run at a
            # time, whichever way the reject goes.
            exact = refine(q, entries, ThreadWork(want), d,
                           exclude_same_trajectory=False)
            for factor in (0, 1 << 62):
                patch.setattr(distance, "_GRID_PAIRS_PER_NEEDLE", factor)
                solved = []

                def spy(queries, entries, q_idx, e_idx, d, **kw):
                    solved.append((q_idx, e_idx))
                    return compare_pairs(queries, entries, q_idx, e_idx,
                                         d, **kw)

                patch.setattr(base, "compare_pairs", spy)
                got = refine(q, entries, work, d,
                             exclude_same_trajectory=False, scale=scale)
                empty = np.zeros(0, dtype=np.int64)
                _assert_same(
                    [np.concatenate([empty, *parts])
                     for parts in zip(*solved)] or [empty, empty],
                    (np.repeat(want.q_rows, want.lengths()), want.rows()))
                assert all(e_idx.size <= max(chunk, lens.max(initial=0))
                           for _, e_idx in solved)
                _assert_same(got[:3], exact[:3])
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(got[3:5], exact[3:5]))
                assert got.refined == want.rows().size
                scheduled_pairs = int(lens.sum())
                assert got.examined == (examined
                                        if factor == 0 < scheduled_pairs
                                        else scheduled_pairs)


@given(_binned_cases())
@settings(max_examples=100, deadline=None)
def test_a_defaulted_query_keeps_its_temporal_entry(case):
    database, queries, d, num_bins, num_subbins, _ = case
    index = SpatioTemporalIndex.build(database, num_bins, num_subbins,
                                      strict=False)
    q = queries.sorted_by_start_time()
    temporal = index.temporal.make_schedule(q, d)
    # GPUTemporal's schedule is each query's candidate row range E_k.
    row_lo, row_hi = index.temporal.candidate_rows(q.ts, q.te)
    _assert_same((temporal.ent_min, temporal.ent_max, temporal.q_rows),
                 (row_lo, row_hi, np.arange(len(q), dtype=np.int64)))
    assert temporal.num_defaulted == len(temporal)
    # GPUSpatioTemporal's defaults to that entry, bins and all.
    schedule = index.make_schedule(q, d)
    defaulted = schedule[schedule.array_sel == -1]
    same = temporal[defaulted.q_rows]
    _assert_same((defaulted.ent_min, defaulted.ent_max, defaulted.bin_lo,
                  defaulted.bin_hi),
                 (same.ent_min, same.ent_max, same.bin_lo, same.bin_hi))
    assert sorted(schedule.q_rows) == list(range(len(q)))


# -- what the span says, and what d is refused ------------------------------------


@pytest.mark.parametrize("engine_name", sorted(GPU_ENGINES))
def test_span_and_counter_say_what_the_reject_removed(
        small_db, small_queries, engine_name):
    telemetry = Telemetry()
    engine = GPU_ENGINES[engine_name](small_db)
    with telemetry.activate():
        result, profile = engine.search(small_queries, 2.5)
    span = telemetry.tracer.roots[-1]
    assert span.name == "engine.search"
    attrs = span.attributes
    assert attrs["pairs_scheduled"] == profile.total_comparisons
    assert attrs["result_items"] == len(result)
    assert len(result) <= attrs["pairs_refined"] < attrs["pairs_scheduled"]
    # The rows the reject read: every scheduled pair in the pair form.
    assert attrs["pairs_refined"] <= attrs["pairs_examined"]
    if engine_name == "gpu_spatial":
        assert attrs["pairs_examined"] == attrs["pairs_scheduled"]
    for stage in ("scheduled", "refined"):
        assert series_value(telemetry.metrics, "repro_refine_pairs_total",
                            engine=engine_name, stage=stage) \
            == attrs[f"pairs_{stage}"]
    # Nothing reaches the profile (it feeds engines.profile_digest).
    assert not any("pairs" in key for key in profile.to_dict())


@pytest.mark.parametrize("engine_name", available())
def test_nan_is_refused_inf_and_negative_zero_are_not(
        small_db, small_queries, engine_name):
    engine = get_engine(engine_name).from_config(small_db)
    with pytest.raises(ValueError):
        engine.search(small_queries, float("nan"))
    with pytest.raises(ValueError):
        engine.search(small_queries, -1e-300)
    everything, _ = engine.search(small_queries, INF)
    # every temporally overlapping pair, closed intervals
    overlap = (small_db.ts[None, :] <= small_queries.te[:, None]) \
        & (small_queries.ts[:, None] <= small_db.te[None, :])
    assert len(everything.deduplicated()) == np.count_nonzero(overlap)
    zero, _ = engine.search(small_queries, -0.0)
    assert zero.equivalent_to(
        brute_force_search(small_queries, small_db, 0.0))
