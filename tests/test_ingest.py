"""Versioned-database and live-ingestion tests.

The contract under test (see ``src/repro/ingest/``): appends and
tombstones are *performance* mechanisms — for any mutation sequence, a
search over a snapshot equals a search over a from-scratch database
built from ``Snapshot.logical()``, and a compaction never changes any
answer.  Plus the serving-layer guarantees: MVCC snapshot pinning,
base-fingerprint cache keys that survive ingestion, and cache prewarm
after compaction.
"""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray, Trajectory
from repro.engines.cpu_scan import CpuScanEngine
from repro.ingest import (CompactionPolicy, IngestError,
                          VersionedDatabase, overlay_search)
from repro.service import QueryService, SearchRequest
from tests.conftest import NON_FINITE, make_walk_trajectories, poisoned

D = 2.5


def _db(num_traj=12, steps=10, seed=0, id_offset=0):
    trajs = make_walk_trajectories(num_traj, steps, seed=seed)
    if id_offset:
        trajs = [Trajectory(t.traj_id + id_offset, t.times, t.positions)
                 for t in trajs]
    return SegmentArray.from_trajectories(trajs)


@pytest.fixture()
def base():
    return _db()


@pytest.fixture()
def queries():
    return _db(num_traj=3, steps=8, seed=77, id_offset=9000)


class TestCompactionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_delta_segments=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_delta_ratio=0.0)

    def test_triggers(self):
        p = CompactionPolicy(max_delta_segments=10,
                             max_delta_ratio=0.5)
        assert not p.should_compact(delta_rows=4, base_rows=100,
                                    tombstoned_rows=0)
        assert p.should_compact(delta_rows=10, base_rows=100,
                                tombstoned_rows=0)
        assert p.should_compact(delta_rows=51, base_rows=100,
                                tombstoned_rows=0)
        assert p.should_compact(delta_rows=0, base_rows=100,
                                tombstoned_rows=51)
        assert not p.should_compact(delta_rows=0, base_rows=100,
                                    tombstoned_rows=50)


class TestVersionedDatabase:
    def test_rejects_empty_base(self):
        with pytest.raises(ValueError):
            VersionedDatabase(SegmentArray.empty())

    def test_append_assigns_fresh_seg_ids(self, base):
        vdb = VersionedDatabase(base)
        receipt = vdb.append(_db(num_traj=2, seed=5, id_offset=100))
        assert min(receipt.seg_ids) > int(base.seg_ids.max())
        assert receipt.epoch == 1 and receipt.delta_epoch == 1
        assert len(set(receipt.seg_ids)) == receipt.num_segments
        snap = vdb.snapshot()
        all_ids = np.concatenate([snap.base.seg_ids,
                                  snap.delta.seg_ids])
        assert len(np.unique(all_ids)) == len(all_ids)

    def test_append_accepts_trajectory_and_list(self, base):
        vdb = VersionedDatabase(base)
        trajs = make_walk_trajectories(2, 6, seed=9)
        shifted = [Trajectory(t.traj_id + 500, t.times, t.positions)
                   for t in trajs]
        r1 = vdb.append(shifted[0])
        r2 = vdb.append([shifted[1]])
        assert r1.num_segments == r2.num_segments == 5

    def test_append_rejects_garbage_and_empty(self, base):
        vdb = VersionedDatabase(base)
        with pytest.raises(TypeError):
            vdb.append("not segments")
        with pytest.raises(IngestError):
            vdb.append(SegmentArray.empty())

    def test_delete_unknown_raises(self, base):
        vdb = VersionedDatabase(base)
        with pytest.raises(IngestError, match="not in the database"):
            vdb.delete_trajectory(424242)

    def test_delete_is_idempotent(self, base):
        vdb = VersionedDatabase(base)
        hidden = vdb.delete_trajectory(0)
        assert hidden > 0
        assert vdb.delete_trajectory(0) == 0
        assert vdb.num_tombstones == 1

    def test_delete_refuses_to_empty_db(self):
        vdb = VersionedDatabase(_db(num_traj=1))
        with pytest.raises(IngestError, match="non-empty"):
            vdb.delete_trajectory(0)

    def test_append_to_tombstoned_id_rejected(self, base):
        vdb = VersionedDatabase(base)
        vdb.delete_trajectory(3)
        with pytest.raises(IngestError, match="tombstoned"):
            vdb.append(_db(num_traj=5, seed=1).take(
                np.flatnonzero(_db(num_traj=5, seed=1).traj_ids == 3)))
        # After compaction the id is physically gone and reusable.
        vdb.compact()
        arrival = _db(num_traj=5, seed=1)
        rows = arrival.take(np.flatnonzero(arrival.traj_ids == 3))
        receipt = vdb.append(rows)
        assert receipt.num_segments == len(rows)

    def test_epoch_bookkeeping(self, base):
        vdb = VersionedDatabase(base)
        assert (vdb.epoch, vdb.delta_epoch, vdb.base_version) == (0, 0, 0)
        vdb.append(_db(num_traj=1, seed=2, id_offset=200))
        vdb.delete_trajectory(1)
        assert (vdb.epoch, vdb.delta_epoch) == (2, 2)
        result = vdb.compact()
        assert (vdb.epoch, vdb.delta_epoch, vdb.base_version) == (3, 0, 1)
        assert result.base_version == 1
        assert result.dropped_segments > 0

    def test_snapshot_is_immutable_under_writes(self, base, queries):
        """MVCC: a pinned snapshot answers from its version even after
        later appends, deletes, and compactions."""
        vdb = VersionedDatabase(base)
        pinned = vdb.snapshot()
        expected = brute_force_search(queries, pinned.logical(), D)
        vdb.append(_db(num_traj=4, seed=3, id_offset=300))
        vdb.delete_trajectory(0)
        vdb.compact()
        assert pinned.epoch == 0
        got = CpuScanEngine(pinned.logical()).search(queries, D)[0]
        assert got.equivalent_to(expected)

    def test_compaction_preserves_logical_database(self, base):
        vdb = VersionedDatabase(base)
        vdb.append(_db(num_traj=3, seed=4, id_offset=400))
        vdb.delete_trajectory(2)
        before = vdb.snapshot().logical()
        vdb.compact()
        after = vdb.snapshot()
        assert after.clean
        assert after.logical() == before
        assert vdb.base == before

    def test_stats_roundtrip(self, base):
        import json
        vdb = VersionedDatabase(base)
        vdb.append(_db(num_traj=1, seed=6, id_offset=600))
        payload = json.loads(json.dumps(vdb.stats()))
        assert payload["appends"] == 1
        assert payload["delta_rows"] > 0


class TestSnapshotOverlay:
    def test_clean_snapshot_passes_through(self, base, queries):
        snap = VersionedDatabase(base).snapshot()
        outcome_in = _scan_outcome(base, queries)
        outcome, profile = overlay_search(outcome_in, snap, queries, D)
        assert outcome is outcome_in and profile is None

    def test_overlay_equals_from_scratch(self, base, queries):
        vdb = VersionedDatabase(base)
        vdb.append(_db(num_traj=4, seed=8, id_offset=800))
        vdb.delete_trajectory(5)
        snap = vdb.snapshot()
        outcome, profile = overlay_search(
            _scan_outcome(snap.base, queries), snap, queries, D)
        truth = brute_force_search(queries, snap.logical(), D)
        assert outcome.results.equivalent_to(truth)
        assert profile is not None
        # The delta scan's host cost is charged to the outcome.
        assert outcome.modeled.total \
            > _scan_outcome(snap.base, queries).modeled.total

    def test_tombstone_only_overlay(self, base, queries):
        vdb = VersionedDatabase(base)
        vdb.delete_trajectory(4)
        snap = vdb.snapshot()
        outcome, profile = overlay_search(
            _scan_outcome(snap.base, queries), snap, queries, D)
        assert profile is None  # no delta rows to scan
        truth = brute_force_search(queries, snap.logical(), D)
        assert outcome.results.equivalent_to(truth)


def _scan_outcome(db, queries):
    from repro.core.search import SearchOutcome
    from repro.gpu.costmodel import price
    engine = CpuScanEngine(db)
    results, profile = engine.search(queries, D)
    return SearchOutcome(results=results, profile=profile,
                         modeled=price(profile))


class TestServiceIngestion:
    @pytest.mark.parametrize("column, value", [
        ("xs", float("nan")), ("ye", float("inf")), ("ze", float("-inf")),
        ("ts", float("nan")), ("te", float("inf"))])
    def test_non_finite_append_is_refused(self, base, tmp_path, column,
                                          value):
        """A non-finite row can never match: it is refused before the
        WAL, so the epoch does not move."""
        svc = QueryService(base, durability_dir=tmp_path)
        wal_bytes = svc.durability.stats()["wal_bytes"]
        bad = poisoned(_db(num_traj=2, seed=40, id_offset=4000), value,
                       column=column, row=3)
        with pytest.raises(IngestError, match="NaN or infinite"):
            svc.ingest(bad)
        assert svc.versioned.epoch == 0
        assert svc.durability.stats()["wal_bytes"] == wal_bytes
        svc.shutdown()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_query_is_refused(self, queries, value):
        with pytest.raises(ValueError, match="NaN or infinite"):
            SearchRequest(queries=poisoned(queries, value, column="zs"),
                          d=D)

    def test_ingest_visible_and_exact(self, base, queries):
        svc = QueryService(base)
        svc.ingest(_db(num_traj=3, seed=10, id_offset=1000))
        resp = svc.submit(SearchRequest(queries=queries, d=D,
                                        method="gpu_temporal",
                                        params={"num_bins": 16}))
        assert resp.ok
        truth = brute_force_search(
            queries, svc.current_snapshot().logical(), D)
        assert resp.outcome.results.equivalent_to(truth)
        assert resp.metrics.delta_segments > 0
        assert resp.metrics.delta_scan_s > 0.0
        assert resp.metrics.snapshot_epoch == 1

    def test_base_engine_cache_hits_across_epochs(self, base, queries):
        """The acceptance criterion: a warm base engine is *reused*
        across ingests — the cache key is rooted at the base
        fingerprint, which appends do not change."""
        svc = QueryService(base, auto_compact=False)
        req = dict(queries=queries, d=D, method="gpu_temporal",
                   params={"num_bins": 16})
        assert not svc.submit(SearchRequest(**req)).metrics.cache_hit
        epochs = set()
        for i in range(3):
            svc.ingest(_db(num_traj=1, seed=20 + i,
                           id_offset=2000 + 10 * i))
            resp = svc.submit(SearchRequest(**req))
            assert resp.metrics.cache_hit, f"ingest {i} evicted the base"
            epochs.add(resp.metrics.snapshot_epoch)
        assert len(epochs) == 3
        assert svc.cache.stats.invalidations == 0

    def test_pinned_snapshot_serves_old_version(self, base, queries):
        svc = QueryService(base, auto_compact=False)
        pinned = svc.current_snapshot()
        truth_old = brute_force_search(queries, pinned.logical(), D)
        svc.ingest(_db(num_traj=3, seed=30, id_offset=3000))
        old = svc.submit(SearchRequest(queries=queries, d=D,
                                       method="cpu_scan"),
                         snapshot=pinned)
        new = svc.submit(SearchRequest(queries=queries, d=D,
                                       method="cpu_scan"))
        assert old.outcome.results.equivalent_to(truth_old)
        assert len(new.outcome.results) >= len(old.outcome.results)

    def test_delete_hides_results(self, base):
        svc = QueryService(base)
        # Query with the database itself: every segment matches itself
        # at distance 0, so the result set is guaranteed non-empty and
        # tombstoning any trajectory must shrink it.
        before = svc.submit(SearchRequest(queries=base, d=D,
                                          method="cpu_scan"))
        assert len(before.outcome.results) > 0
        hidden = svc.delete_trajectory(0)
        assert hidden > 0
        after = svc.submit(SearchRequest(queries=base, d=D,
                                         method="cpu_scan"))
        truth = brute_force_search(
            base, svc.current_snapshot().logical(), D)
        assert after.outcome.results.equivalent_to(truth)
        assert len(after.outcome.results) < len(before.outcome.results)

    def test_auto_compaction_and_prewarm(self, base, queries):
        svc = QueryService(base, compaction=CompactionPolicy(
            max_delta_segments=10))
        req = SearchRequest(queries=queries, d=D,
                            method="gpu_temporal",
                            params={"num_bins": 16})
        svc.submit(req)  # warm the base engine
        receipt = svc.ingest(_db(num_traj=3, seed=50, id_offset=5000))
        assert receipt.compaction_due
        stats = svc.stats()["ingest"]
        assert stats["compactions"] == 1
        assert stats["delta_rows"] == 0
        # Prewarm rebuilt the warm engine over the new base: the next
        # request cache-hits even though the fingerprint changed.
        resp = svc.submit(req)
        assert resp.metrics.cache_hit
        truth = brute_force_search(
            queries, svc.current_snapshot().logical(), D)
        assert resp.outcome.results.equivalent_to(truth)
        # The stale base engine was invalidated, not leaked.
        assert svc.cache.stats.invalidations >= 1
        kinds = [e.kind for e in svc.telemetry.events]
        assert "compaction" in kinds and "ingest" in kinds

    def test_prewarm_covers_only_engines_served_since_last_compaction(
            self, base, queries):
        svc = QueryService(base, auto_compact=False)
        requests = {
            method: SearchRequest(queries=queries, d=D, method=method,
                                  params=params)
            for method, params in (("gpu_temporal", {"num_bins": 16}),
                                   ("cpu_rtree", {"segments_per_mbb": 2}))}

        fresh = iter(range(5000, 5003))

        def compact_and_count_builds():
            traj_id = next(fresh)
            svc.ingest(_db(num_traj=1, seed=traj_id, id_offset=traj_id))
            before = len(svc.telemetry.events.of_kind("engine_build"))
            svc.compact()
            event = svc.telemetry.events.of_kind("compaction")[-1]
            return (len(svc.telemetry.events.of_kind("engine_build"))
                    - before, event.fields)

        for request in requests.values():
            svc.submit(request)
        builds, event = compact_and_count_builds()
        assert builds == 2 and event["prewarm"] == 2
        # Only gpu_temporal is asked for again: the cpu_rtree entry
        # exists because the compaction prewarmed it, and is not
        # rebuilt a second time.
        assert svc.submit(requests["gpu_temporal"]).metrics.cache_hit
        builds, event = compact_and_count_builds()
        assert builds == 1
        assert (event["prewarm"], event["prewarm_skipped"]) == (1, 1)
        # A later cpu_rtree request is an ordinary miss, answered
        # right — and served again, so the next compaction keeps it.
        resp = svc.submit(requests["cpu_rtree"])
        assert not resp.metrics.cache_hit
        truth = brute_force_search(
            queries, svc.current_snapshot().logical(), D)
        assert resp.outcome.results.equivalent_to(truth)
        assert svc.submit(requests["gpu_temporal"]).metrics.cache_hit
        builds, event = compact_and_count_builds()
        assert builds == 2 and event["prewarm_skipped"] == 0

    def test_forced_compaction(self, base):
        svc = QueryService(base)
        svc.ingest(_db(num_traj=1, seed=60, id_offset=6000))
        result = svc.compact()
        assert result.base_version == 1
        assert svc.current_snapshot().clean

    def test_crosscheck_uses_snapshot_truth(self, base, queries):
        """Failover crosschecks compare against the pinned snapshot's
        logical database, so ingestion cannot fake a mismatch."""
        from repro.faults import FaultInjector, FaultSpec
        svc = QueryService(base, crosscheck_every=1, auto_compact=False,
                           faults=FaultInjector([FaultSpec("oom")]))
        svc.ingest(_db(num_traj=2, seed=70, id_offset=7000))
        resp = svc.submit(SearchRequest(
            queries=queries, d=D, method="gpu_temporal",
            params={"num_bins": 16}))
        assert resp.ok and resp.metrics.degraded
        assert svc.stats()["crosschecks"] >= 1
        assert not svc.crosscheck_mismatches

    def test_ingest_counters_exported(self, base):
        svc = QueryService(base)
        svc.ingest(_db(num_traj=1, seed=80, id_offset=8000))
        snap = svc.telemetry.metrics.snapshot()
        assert "repro_ingest_total" in snap
        assert "repro_delta_segments" in snap


class TestKeepSegIds:
    """``append(..., keep_seg_ids=True)``: the sharded router stamps
    globally unique ids before routing, and each shard's database must
    keep them verbatim instead of restamping."""

    def test_kept_ids_survive_verbatim(self, base):
        fresh = _db(num_traj=1, steps=4, seed=5, id_offset=300)
        stamped = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.arange(10_000, 10_000 + len(fresh), dtype=np.int64))
        db = VersionedDatabase(base)
        db.append(stamped, keep_seg_ids=True)
        logical = db.snapshot().logical()
        kept = np.isin(logical.seg_ids, stamped.seg_ids)
        assert kept.sum() == len(stamped)

    def test_next_append_continues_past_kept_ids(self, base):
        fresh = _db(num_traj=1, steps=4, seed=5, id_offset=300)
        stamped = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.arange(10_000, 10_000 + len(fresh), dtype=np.int64))
        db = VersionedDatabase(base)
        db.append(stamped, keep_seg_ids=True)
        more = db.append(_db(num_traj=1, steps=4, seed=6,
                             id_offset=400))
        logical = db.snapshot().logical()
        assert logical.seg_ids.min() >= 0
        assert int(logical.seg_ids.max()) >= 10_000 + len(stamped)
        assert logical.seg_ids.size == np.unique(logical.seg_ids).size
        assert more  # receipt truthy

    def test_kept_ids_below_counter_rejected(self, base):
        """Ids colliding with (or below) already-issued ids would break
        uniqueness: refused up front."""
        fresh = _db(num_traj=1, steps=4, seed=5, id_offset=300)
        clash = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.arange(len(fresh), dtype=np.int64))  # 0..n-1: taken
        db = VersionedDatabase(base)
        with pytest.raises(IngestError):
            db.append(clash, keep_seg_ids=True)

    def test_duplicate_kept_ids_rejected(self, base):
        fresh = _db(num_traj=1, steps=4, seed=5, id_offset=300)
        dup = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.full(len(fresh), 10_000, dtype=np.int64))
        db = VersionedDatabase(base)
        with pytest.raises(IngestError):
            db.append(dup, keep_seg_ids=True)
