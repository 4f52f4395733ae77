"""The reject in front of the exact refinement is exact — and the
referees do not depend on it.

``core.distance.surviving_pairs`` drops candidate pairs whose bounding
boxes are further apart than ``d + tau`` before the GPU loop solves
them (``GpuEngineBase._search_once``).  Nothing observable may change:

(a) on the schemes' real batches — redo invocations under tiny result
    buffers included — ``refine_ranges`` returns the same bytes with the
    reject in front as with it bypassed;
(b) on pairs built to sit on the threshold (one axis alone, ulps and
    ``tau / 2`` either side, degenerate geometry, large offsets) no pair
    the exact floating-point path accepts is dropped;
(c) the same over Hypothesis-drawn small databases;
(d) with the reject sabotaged to drop everything the GPU engines go
    empty while ``cpu_scan``, ``cpu_rtree``, brute force and the
    ``"perthread"`` reference mode answer as before — a bug in the
    reject cannot hide on both sides of a comparison.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bruteforce import brute_force_search
from repro.core.distance import (_REJECT_MARGIN, compare_pairs, magnitude,
                                 surviving_pairs)
from repro.core.execmode import execution_mode
from repro.core.types import SegmentArray
from repro.engines import (CpuRTreeEngine, CpuScanEngine, GpuSpatialEngine,
                           GpuSpatioTemporalEngine, GpuTemporalEngine,
                           available, base, get_engine)
from repro.engines.base import RangeBatch, refine_ranges
from repro.experiments.scenarios import (scenario_s1_random,
                                         scenario_s2_merger,
                                         scenario_s3_random_dense)
from repro.obs import Telemetry

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF = float("inf")
SCALE = 0.005
D_VALUES = (0.0, 0.01, 0.09, 5.0, INF)

SCENARIOS = {"S1": scenario_s1_random, "S2-merger": scenario_s2_merger,
             "S3": scenario_s3_random_dense}
GPU_ENGINES = {"gpu_temporal": GpuTemporalEngine,
               "gpu_spatiotemporal": GpuSpatioTemporalEngine,
               "gpu_spatial": GpuSpatialEngine}


def _keep_everything(queries, entries, q_idx, e_idx, d, scale):
    return np.arange(q_idx.shape[0])


def _drop_everything(queries, entries, q_idx, e_idx, d, scale):
    return np.zeros(0, dtype=np.int64)


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
        """Every ``refine_ranges`` return of a whole sweep, as bytes,
        and the pairs it was handed."""
        seen, pairs = [], 0
        real = refine_ranges

        def spy(q, db, batch, d, **kw):
            nonlocal pairs
            pairs += batch.candidate_rows.shape[0]
            out = real(q, db, batch, d, **kw)
            seen.append(b"|".join(a.tobytes() for a in out))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(base, "refine_ranges", spy)
            if reject is not None:
                patch.setattr(base, "surviving_pairs", reject)
            engine = GPU_ENGINES[engine_name](database, **params)
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
        return seen, pairs

    filtered, refined = run(None)
    unfiltered, scheduled = run(_keep_everything)
    assert len(filtered) == len(unfiltered) > 2 * len(D_VALUES)  # redos ran
    assert filtered == unfiltered
    assert refined < scheduled


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
    batch = RangeBatch.from_lengths(
        np.arange(nq, dtype=np.int64),
        np.tile(np.arange(nd, dtype=np.int64), nq),
        np.full(nq, nd, dtype=np.int64))
    kept = surviving_pairs(
        queries, database, np.repeat(batch.q_rows, batch.lengths()),
        batch.candidate_rows, d, magnitude(queries) + magnitude(database))
    want = refine_ranges(queries, database, batch, d,
                         exclude_same_trajectory=exclude)
    got = refine_ranges(queries, database, batch.keep(kept), d,
                        exclude_same_trajectory=exclude)
    for a, b in zip(got, want):
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

    def gpu(cls, mode):
        with execution_mode(mode):
            return cls(small_db).search(small_queries, d)[0]

    for name, cls in GPU_ENGINES.items():
        referees[f"{name}/perthread"] = \
            lambda cls=cls: gpu(cls, "perthread")
    before = {name: _result_bytes(run()) for name, run in referees.items()}
    honest = {name: gpu(cls, "batch") for name, cls in GPU_ENGINES.items()}
    assert all(len(r) > 0 for r in honest.values())

    monkeypatch.setattr(base, "surviving_pairs", _drop_everything)
    for name, cls in GPU_ENGINES.items():
        assert len(gpu(cls, "batch")) == 0, name    # the sabotage bites
    for name, run in referees.items():
        assert _result_bytes(run()) == before[name], name


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
    counter = telemetry.metrics.counter("repro_refine_pairs_total")
    assert counter.value(engine=engine_name, stage="scheduled") \
        == attrs["pairs_scheduled"]
    assert counter.value(engine=engine_name, stage="refined") \
        == attrs["pairs_refined"]
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
