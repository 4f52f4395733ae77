"""Differential test harness: every engine against ``cpu_scan``.

One randomized database generator, five engines, one referee.  For each
seed the harness builds a database that deliberately includes the
adversarial edges real data smuggles in —

* zero-length segments (coincident endpoints in space *and* time),
* exactly-duplicated segments on different trajectories,
* a cluster of segments sharing one ``t_start`` (every row lands in a
  single temporal bin, exercising the ``B_end`` spill handling),
* queries fully outside the database's temporal extent, and
* ``d = 0`` (touching counts, proximity does not)

— and asserts **exact result equality** (same pairs, same intervals)
between every engine, the service path, and the ``cpu_scan`` referee,
which is itself anchored against the O(|Q|·|D|) brute force once per
seed.

A second sweep drives the ingestion path: after appends, deletes, and a
compaction, the serving stack's answers must be *byte-identical* (the
canonical arrays compare equal, not merely equivalent) to a from-scratch
service built over the snapshot's logical database.
"""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray
from repro.engines import (CpuRTreeConfig, CpuRTreeEngine, CpuScanEngine,
                           GpuSpatialConfig, GpuSpatialEngine,
                           GpuSpatioTemporalConfig, GpuSpatioTemporalEngine,
                           GpuTemporalConfig, GpuTemporalEngine)
from repro.service import QueryService, SearchRequest

SEEDS = [0, 1, 2, 3, 4]

ENGINE_FACTORIES = {
    "gpu_temporal": lambda db: GpuTemporalEngine(
        db, GpuTemporalConfig(num_bins=24)),
    "gpu_spatiotemporal": lambda db: GpuSpatioTemporalEngine(
        db, GpuSpatioTemporalConfig(num_bins=24, num_subbins=2,
                                    strict_subbins=False)),
    "gpu_spatial": lambda db: GpuSpatialEngine(
        db, GpuSpatialConfig(cells_per_dim=6)),
    "cpu_rtree": lambda db: CpuRTreeEngine(
        db, CpuRTreeConfig(segments_per_mbb=4)),
    "cpu_scan": lambda db: CpuScanEngine(db),
}


def _make_db(seed: int, *, n_moving: int = 80) -> SegmentArray:
    """Randomized database salted with adversarial degeneracies."""
    rng = np.random.default_rng(seed)
    box, t_hi = 10.0, 10.0

    # Ordinary moving segments.
    xs = rng.uniform(0, box, n_moving)
    ys = rng.uniform(0, box, n_moving)
    zs = rng.uniform(0, box, n_moving)
    step = rng.normal(0, 1.0, (n_moving, 3))
    ts = rng.uniform(0, t_hi * 0.8, n_moving)
    dur = rng.uniform(0.1, 2.0, n_moving)

    # Zero-length segments: both endpoints coincide in space and time.
    n_pts = 10
    px = rng.uniform(0, box, n_pts)
    py = rng.uniform(0, box, n_pts)
    pz = rng.uniform(0, box, n_pts)
    pt = rng.uniform(0, t_hi, n_pts)

    # Exact duplicates of a few moving segments, on fresh trajectories:
    # distance 0 at every instant, so they must pair at d = 0.
    n_dup = 5
    dup = rng.integers(0, n_moving, n_dup)

    # A same-instant cluster: one shared t_start, tiny duration — all
    # of them land in a single temporal bin of any index.
    n_burst = 8
    bx = rng.uniform(0, box, n_burst)
    by = rng.uniform(0, box, n_burst)
    bz = rng.uniform(0, box, n_burst)

    def col(m, p, d_, b):
        return np.concatenate([m, p, d_, b])

    X = col(xs, px, xs[dup], bx)
    Y = col(ys, py, ys[dup], by)
    Z = col(zs, pz, zs[dup], bz)
    T = col(ts, pt, ts[dup], np.full(n_burst, t_hi / 2))
    XE = col(xs + step[:, 0], px, xs[dup] + step[dup, 0], bx + 0.5)
    YE = col(ys + step[:, 1], py, ys[dup] + step[dup, 1], by + 0.5)
    ZE = col(zs + step[:, 2], pz, zs[dup] + step[dup, 2], bz + 0.5)
    TE = col(ts + dur, pt, ts[dup] + dur[dup],
             np.full(n_burst, t_hi / 2 + 1e-6))
    n = len(X)
    # A handful of trajectories so exclude_same_trajectory has bite;
    # the duplicated block gets its own id range.
    traj = rng.integers(0, 12, n).astype(np.int64)
    traj[n_moving + n_pts:n_moving + n_pts + n_dup] = \
        100 + np.arange(n_dup)
    return SegmentArray(X, Y, Z, T, XE, YE, ZE, TE, traj)


def _make_queries(seed: int, db: SegmentArray) -> SegmentArray:
    """Queries overlapping the database, plus rows entirely outside
    its temporal extent (they must match nothing)."""
    rng = np.random.default_rng(seed + 500)
    n_in, n_out = 12, 4
    t_min, t_max = db.temporal_extent
    xs = rng.uniform(0, 10, n_in + n_out)
    ys = rng.uniform(0, 10, n_in + n_out)
    zs = rng.uniform(0, 10, n_in + n_out)
    ts = np.concatenate([
        rng.uniform(t_min, t_max, n_in),
        t_max + 5.0 + rng.uniform(0, 1, n_out),   # fully outside
    ])
    te = ts + rng.uniform(0.1, 1.5, n_in + n_out)
    return SegmentArray(xs, ys, zs, ts, xs + 0.5, ys - 0.25, zs + 0.5,
                        te, np.full(n_in + n_out, 7000, dtype=np.int64),
                        seg_ids=90_000 + np.arange(n_in + n_out))


@pytest.fixture(scope="module", params=SEEDS)
def workload(request):
    seed = request.param
    db = _make_db(seed)
    queries = _make_queries(seed, db)
    return seed, db, queries


@pytest.fixture(scope="module", params=sorted(ENGINE_FACTORIES))
def engine_name(request):
    return request.param


class TestEngineDifferential:
    def test_referee_matches_brute_force(self, workload):
        """Anchor the referee itself: cpu_scan == O(|Q|·|D|) loop."""
        _, db, queries = workload
        for d in (0.0, 1.0, 3.0):
            truth = brute_force_search(queries, db, d)
            got, _ = CpuScanEngine(db).search(queries, d)
            assert got.equivalent_to(truth), d

    @pytest.mark.parametrize("d", [0.0, 0.75, 2.5])
    def test_engine_equals_referee(self, engine_name, workload, d):
        _, db, queries = workload
        ref, _ = CpuScanEngine(db).search(queries, d)
        got, _ = ENGINE_FACTORIES[engine_name](db).search(queries, d)
        assert got.equivalent_to(ref), (engine_name, d)

    def test_self_join_with_exclusion(self, engine_name, workload):
        """The database queried against itself, own-trajectory pairs
        excluded — degenerate rows participate on both sides."""
        _, db, _ = workload
        ref, _ = CpuScanEngine(db).search(
            db, 1.0, exclude_same_trajectory=True)
        got, _ = ENGINE_FACTORIES[engine_name](db).search(
            db, 1.0, exclude_same_trajectory=True)
        assert got.equivalent_to(ref)

    def test_duplicates_pair_at_zero_distance(self, workload):
        """The planted exact-duplicate segments must find each other
        at d = 0 (they are distance 0 apart for their whole overlap)."""
        _, db, _ = workload
        res, _ = CpuScanEngine(db).search(
            db, 0.0, exclude_same_trajectory=True)
        assert len(res) > 0

    def test_out_of_extent_queries_match_nothing(self, engine_name,
                                                 workload):
        _, db, queries = workload
        _, t_max = db.temporal_extent
        outside = queries.take(np.flatnonzero(queries.ts > t_max))
        assert len(outside) > 0
        got, _ = ENGINE_FACTORIES[engine_name](db).search(outside, 5.0)
        assert len(got) == 0

    def test_service_path_equals_referee(self, engine_name, workload):
        """The full serving stack (cache, lanes, overlay plumbing) adds
        no result drift over the bare engine."""
        _, db, queries = workload
        svc = QueryService(db)
        resp = svc.submit(SearchRequest(
            queries=queries, d=2.5, method=engine_name,
            params=_service_params(engine_name)))
        assert resp.ok
        ref, _ = CpuScanEngine(db).search(queries, 2.5)
        assert resp.outcome.results.equivalent_to(ref)


def _service_params(engine_name: str) -> dict:
    return {
        "gpu_temporal": {"num_bins": 24},
        "gpu_spatiotemporal": {"num_bins": 24, "num_subbins": 2,
                               "strict_subbins": False},
        "gpu_spatial": {"cells_per_dim": 6},
        "cpu_rtree": {"segments_per_mbb": 4},
        "cpu_scan": {},
    }[engine_name]


def _byte_identical(a, b) -> bool:
    """Stronger than ``equivalent_to``: the canonical arrays compare
    exactly — same pairs, bitwise-equal intervals."""
    a, b = a.canonical(), b.canonical()
    return (np.array_equal(a.q_ids, b.q_ids)
            and np.array_equal(a.e_ids, b.e_ids)
            and np.array_equal(a.t_lo, b.t_lo)
            and np.array_equal(a.t_hi, b.t_hi))


class TestIngestDifferential:
    """Post-ingest and post-compaction answers vs from-scratch rebuild."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("method", ["gpu_temporal", "cpu_rtree"])
    def test_mutated_service_equals_rebuild(self, seed, method):
        rng = np.random.default_rng(seed + 900)
        db = _make_db(seed)
        queries = _make_queries(seed, db)
        # Split rows: first 60% seed the base, the rest arrive in two
        # appends; then one trajectory is tombstoned.
        cut = int(len(db) * 0.6)
        mid = (cut + len(db)) // 2
        svc = QueryService(db.take(np.arange(cut)), auto_compact=False)
        svc.ingest(db.take(np.arange(cut, mid)))
        svc.ingest(db.take(np.arange(mid, len(db))))
        victim = int(rng.choice(np.unique(db.traj_ids)))
        svc.delete_trajectory(victim)

        params = _service_params(method)
        req = SearchRequest(queries=queries, d=2.0, method=method,
                            params=params)
        post_ingest = svc.submit(req)
        assert post_ingest.ok
        assert post_ingest.metrics.delta_segments > 0

        scratch = QueryService(svc.current_snapshot().logical())
        from_scratch = scratch.submit(req)
        assert _byte_identical(post_ingest.outcome.results,
                               from_scratch.outcome.results), seed

        # Compaction changes the physical layout only: byte-identical
        # answers again, now from a clean snapshot.
        svc.compact()
        post_compaction = svc.submit(req)
        assert post_compaction.metrics.delta_segments == 0
        assert _byte_identical(post_compaction.outcome.results,
                               from_scratch.outcome.results), seed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_versioned_logical_equals_manual_assembly(self, seed):
        """The snapshot's logical view is literally 'base rows minus
        tombstones, then live delta rows' — the invariant every
        differential assertion above leans on."""
        from repro.ingest import VersionedDatabase
        db = _make_db(seed)
        cut = int(len(db) * 0.7)
        vdb = VersionedDatabase(db.take(np.arange(cut)))
        vdb.append(db.take(np.arange(cut, len(db))))
        victim = int(np.unique(db.traj_ids)[0])
        vdb.delete_trajectory(victim)
        snap = vdb.snapshot()
        logical = snap.logical()
        assert not np.isin(victim, logical.traj_ids)
        assert len(logical) == snap.num_logical_segments
        # Compaction reproduces it exactly.
        vdb.compact()
        assert vdb.base == logical
