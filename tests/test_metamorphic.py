"""Metamorphic properties of the distance-threshold search.

The search's semantics are invariant under transformations of the whole
workload; every engine must commute with them:

* **spatial translation** — shifting all coordinates by a constant
  vector changes nothing;
* **uniform scaling** — scaling space by ``s`` and the threshold by
  ``s`` preserves the result pairs and intervals;
* **time shift** — shifting all times by ``Δ`` shifts the intervals by
  exactly ``Δ``;
* **axis permutation** — relabeling (x, y, z) changes nothing (catches
  transposed-axis bugs in the subbin/grid machinery);
* **database row permutation** — engines must not depend on input
  order.

These catch whole classes of indexing bugs that example-based tests
miss (wrong axis, missing d-expansion, off-by-one bin shifts).
"""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.search import SearchOutcome
from repro.core.types import SegmentArray, Trajectory
from repro.engines import (CpuRTreeEngine, GpuSpatialEngine,
                           GpuSpatioTemporalEngine, GpuTemporalEngine)
from repro.engines.cpu_scan import CpuScanEngine
from repro.gpu.costmodel import price
from repro.ingest import (IngestError, VersionedDatabase,
                          overlay_search)
from tests.conftest import make_walk_trajectories

FACTORIES = {
    "gpu_temporal": lambda db: GpuTemporalEngine(db, num_bins=16),
    "gpu_spatial": lambda db: GpuSpatialEngine(db, cells_per_dim=6),
    "gpu_spatiotemporal": lambda db: GpuSpatioTemporalEngine(
        db, num_bins=16, num_subbins=2, strict_subbins=False),
    "cpu_rtree": lambda db: CpuRTreeEngine(db, segments_per_mbb=2),
}


@pytest.fixture(scope="module")
def workload():
    db = SegmentArray.from_trajectories(
        make_walk_trajectories(16, 10, seed=21, box=15.0))
    q = db.take(np.arange(0, len(db), 7))
    return db, q, 2.0


def transform(seg: SegmentArray, *, shift=(0.0, 0.0, 0.0), scale=1.0,
              tshift=0.0, axes=(0, 1, 2)) -> SegmentArray:
    coords = [np.stack([seg.xs, seg.ys, seg.zs]),
              np.stack([seg.xe, seg.ye, seg.ze])]
    out = []
    for c in coords:
        c = c[list(axes)] * scale + np.asarray(shift)[:, None]
        out.append(c)
    (xs, ys, zs), (xe, ye, ze) = out
    return SegmentArray(xs, ys, zs, seg.ts + tshift, xe, ye, ze,
                        seg.te + tshift, seg.traj_ids, seg.seg_ids)


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestInvariances:
    def run(self, name, db, q, d):
        res, _ = FACTORIES[name](db).search(q, d)
        return res.canonical()

    def test_spatial_translation(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        shift = (123.0, -45.0, 6.0)
        moved = self.run(name, transform(db, shift=shift),
                         transform(q, shift=shift), d)
        assert base.equivalent_to(moved)

    def test_uniform_scaling(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        s = 7.5
        scaled = self.run(name, transform(db, scale=s),
                          transform(q, scale=s), d * s)
        assert base.equivalent_to(scaled)

    def test_time_shift_moves_intervals(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        dt = 1000.0
        shifted = self.run(name, transform(db, tshift=dt),
                           transform(q, tshift=dt), d)
        assert np.array_equal(base.q_ids, shifted.q_ids)
        assert np.array_equal(base.e_ids, shifted.e_ids)
        np.testing.assert_allclose(shifted.t_lo, base.t_lo + dt,
                                   atol=1e-6)
        np.testing.assert_allclose(shifted.t_hi, base.t_hi + dt,
                                   atol=1e-6)

    def test_axis_permutation(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        perm = (2, 0, 1)
        permuted = self.run(name, transform(db, axes=perm),
                            transform(q, axes=perm), d)
        assert base.equivalent_to(permuted)

    def test_database_row_permutation(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        rng = np.random.default_rng(3)
        shuffled = db.take(rng.permutation(len(db)))
        assert base.equivalent_to(self.run(name, shuffled, q, d))

    def test_query_row_permutation(self, name, workload):
        db, q, d = workload
        base = self.run(name, db, q, d)
        rng = np.random.default_rng(4)
        shuffled = q.take(rng.permutation(len(q)))
        assert base.equivalent_to(self.run(name, db, shuffled, d))


class TestMonotonicity:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_results_monotone_in_d(self, name, workload):
        """The result pair set only grows with d."""
        db, q, _ = workload
        engine = FACTORIES[name](db)
        prev: set = set()
        for d in (0.5, 1.5, 4.0):
            res, _ = engine.search(q, d)
            pairs = res.pairs()
            assert prev <= pairs
            prev = pairs

    def test_subset_queries_subset_results(self, workload):
        db, q, d = workload
        engine = GpuTemporalEngine(db, num_bins=16)
        full, _ = engine.search(q, d)
        half_q = q.take(np.arange(0, len(q), 2))
        half, _ = engine.search(half_q, d)
        kept = set(half_q.seg_ids.tolist())
        expect = {(a, b) for a, b in full.pairs() if a in kept}
        assert half.pairs() == expect


# -- overlay under churn ------------------------------------------------------


def _segs(num_traj=4, steps=8, seed=0, id_offset=0, traj_id=None):
    trajs = make_walk_trajectories(num_traj, steps, seed=seed,
                                   box=15.0)
    relabel = (lambda t: traj_id) if traj_id is not None \
        else (lambda t: t.traj_id + id_offset)
    return SegmentArray.from_trajectories(
        [Trajectory(relabel(t), t.times, t.positions)
         for t in trajs])


def _overlay_answer(vdb, queries, d):
    """The serving path's answer at the current snapshot: base scan
    lifted through the tombstone filter + delta overlay."""
    snap = vdb.snapshot()
    engine = CpuScanEngine(snap.base)
    results, profile = engine.search(queries, d)
    outcome = SearchOutcome(
        results=results, profile=profile,
        modeled=price(profile))
    outcome, _ = overlay_search(outcome, snap, queries, d)
    return outcome.results


def _logical_key(vdb, results):
    """Order- and seg_id-assignment-independent identity of a result
    set: entry segments named by (trajectory, segment start time)
    instead of their database-assigned ids."""
    logical = vdb.snapshot().logical()
    ident = {int(s): (int(t), float(ts)) for s, t, ts in
             zip(logical.seg_ids, logical.traj_ids, logical.ts)}
    c = results.canonical()
    return sorted(
        (int(q),) + ident[int(e)] + (float(lo), float(hi))
        for q, e, lo, hi in zip(c.q_ids, c.e_ids, c.t_lo, c.t_hi))


class TestOverlayChurnMetamorphic:
    """The overlay must equal from-scratch evaluation under any mix of
    ingest, delete, compaction, and (post-compaction) re-ingest of a
    previously deleted trajectory id — including the tombstone
    edge cases around id re-use."""

    D = 2.0

    @pytest.fixture()
    def queries(self):
        return _segs(num_traj=2, steps=6, seed=91, id_offset=9000)

    def check(self, vdb, queries):
        got = _overlay_answer(vdb, queries, self.D)
        truth = brute_force_search(queries,
                                   vdb.snapshot().logical(), self.D)
        assert got.equivalent_to(truth)

    def test_overlay_exact_at_every_step_of_mixed_churn(self, queries):
        vdb = VersionedDatabase(_segs(num_traj=8, seed=1))
        rng = np.random.default_rng(5)
        offset = 100
        for i in range(12):
            kind = ("append", "delete", "append", "compact")[i % 4]
            if kind == "append":
                vdb.append(_segs(num_traj=2, seed=40 + i,
                                 id_offset=offset))
                offset += 10
            elif kind == "delete":
                live = sorted(set(np.unique(
                    vdb.snapshot().logical().traj_ids).tolist()))
                vdb.delete_trajectory(
                    int(live[int(rng.integers(len(live) - 1))]))
            else:
                vdb.compact()
            self.check(vdb, queries)

    def test_disjoint_appends_commute(self, queries):
        a = _segs(num_traj=2, seed=50, id_offset=100)
        b = _segs(num_traj=2, seed=60, id_offset=200)
        ab = VersionedDatabase(_segs(num_traj=6, seed=2))
        ab.append(a), ab.append(b)
        ba = VersionedDatabase(_segs(num_traj=6, seed=2))
        ba.append(b), ba.append(a)
        key_ab = _logical_key(ab, _overlay_answer(ab, queries, self.D))
        key_ba = _logical_key(ba, _overlay_answer(ba, queries, self.D))
        assert key_ab == key_ba
        self.check(ab, queries)
        self.check(ba, queries)

    def test_delete_then_reinsert_same_id(self, queries):
        """The tombstone-reuse edge: re-appending a deleted id is
        rejected until compaction physically drops the old rows, and
        afterwards the overlay serves exactly the new geometry."""
        vdb = VersionedDatabase(_segs(num_traj=6, seed=3))
        vdb.delete_trajectory(0)
        self.check(vdb, queries)
        # Pre-compaction re-use would be silently hidden by the
        # tombstone, so it must raise instead.
        with pytest.raises(IngestError):
            vdb.append(_segs(num_traj=1, seed=70, traj_id=0))
        self.check(vdb, queries)
        vdb.compact()
        reborn = _segs(num_traj=1, seed=70, traj_id=0)
        vdb.append(reborn)
        self.check(vdb, queries)
        # The resurrected id serves its new geometry: every pair the
        # referee finds for trajectory 0 comes from the new segments.
        logical = vdb.snapshot().logical()
        rows = logical.traj_ids == 0
        assert np.array_equal(np.sort(logical.ts[rows]),
                              np.sort(reborn.ts))
        # And a later delete of the reborn id works normally.
        vdb.delete_trajectory(0)
        self.check(vdb, queries)

    def test_double_delete_is_noop(self, queries):
        vdb = VersionedDatabase(_segs(num_traj=6, seed=4))
        assert vdb.delete_trajectory(1) > 0
        before = _overlay_answer(vdb, queries, self.D).canonical()
        epoch = vdb.epoch
        assert vdb.delete_trajectory(1) == 0
        assert vdb.epoch == epoch  # a no-op must not burn an epoch
        after = _overlay_answer(vdb, queries, self.D).canonical()
        assert before.equivalent_to(after)
        self.check(vdb, queries)
