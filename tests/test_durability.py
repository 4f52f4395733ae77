"""Durability layer: WAL framing, checkpoints, recovery, service wiring."""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import shutil
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns.harness import result_bytes
from repro.core.types import SegmentArray
from repro.data.io import load_segments, save_segments
from repro.durability import (DurabilityError, DurabilityPolicy,
                              KillSwitch,
                              SimulatedCrash, WalCorruptionError,
                              WriteAheadLog, list_checkpoints,
                              load_checkpoint, read_wal,
                              write_checkpoint)
from repro.durability.checkpoint import CheckpointError
from repro.durability.wal import decode_line, encode_record, WalRecord
from repro.ingest import IngestError, Mutation, VersionedDatabase
from repro.service import QueryService, SearchRequest
from repro.standing import StandingStoreError
from tests.conftest import make_walk_trajectories, series_value


def _db(seed=0, n=10, steps=8, offset=0):
    trajs = make_walk_trajectories(n, steps, seed=seed)
    if offset:
        from repro.core.types import Trajectory
        trajs = [Trajectory(t.traj_id + offset, t.times, t.positions)
                 for t in trajs]
    return SegmentArray.from_trajectories(trajs)


# -- WAL framing --------------------------------------------------------------


class TestWalFraming:
    def test_roundtrip(self):
        rec = WalRecord(lsn=3, op="delete", epoch=7,
                        payload={"traj_id": 4})
        assert decode_line(encode_record(rec).rstrip(b"\n")) == rec

    def test_frame_is_the_crc_spliced_into_the_canonical_body(self):
        # encode_record serialises once and splices the CRC in front;
        # the bytes are those of serialising the framed dict whole.
        rec = WalRecord(lsn=12, op="append", epoch=13,
                        payload={"segments": {"xs": [0.5, -1e-9]},
                                 "idempotency_key": "k\u00e9y"})
        body = rec.to_dict()
        canonical = json.dumps(body, sort_keys=True,
                               separators=(",", ":")).encode()
        framed = dict(body, crc=zlib.crc32(canonical))
        assert encode_record(rec) == json.dumps(
            framed, sort_keys=True, separators=(",", ":")).encode() + b"\n"

    def test_crc_guards_every_byte(self):
        # Any single-byte flip either fails the frame outright or
        # decodes to the semantically identical record (e.g. a
        # mangled key name that from_dict ignores) — never to a
        # *different* mutation.
        original = WalRecord(lsn=1, op="compact", epoch=2)
        body = encode_record(original).rstrip(b"\n")
        for i in range(len(body)):
            mutated = bytearray(body)
            mutated[i] ^= 0x01
            decoded = decode_line(bytes(mutated))
            assert decoded is None or decoded == original

    def test_append_and_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", sync="flush")
        wal.append("append", 1, {"k": 1})
        wal.append("delete", 2, {"traj_id": 9})
        wal.close()
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [r.op for r in scan.records] == ["append", "delete"]
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_records == 0

    def test_torn_tail_dropped_not_raised(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync="flush")
        wal.append("append", 1, {})
        wal.append("delete", 2, {"traj_id": 1})
        wal.close()
        # Simulate a crash mid-write: append half a record.
        good = path.read_bytes()
        half = encode_record(WalRecord(lsn=3, op="compact", epoch=3))
        path.write_bytes(good + half[:len(half) // 2])
        scan = read_wal(path)
        assert len(scan.records) == 2
        assert scan.torn_records == 1
        assert scan.valid_bytes == len(good)

    def test_mid_log_hole_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        r1 = encode_record(WalRecord(lsn=1, op="compact", epoch=1))
        r2 = encode_record(WalRecord(lsn=2, op="compact", epoch=2))
        path.write_bytes(r1 + b'{"garbage": true}\n' + r2)
        with pytest.raises(WalCorruptionError):
            read_wal(path)

    def test_lsn_gap_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        r1 = encode_record(WalRecord(lsn=1, op="compact", epoch=1))
        r3 = encode_record(WalRecord(lsn=3, op="compact", epoch=2))
        path.write_bytes(r1 + r3)
        with pytest.raises(WalCorruptionError):
            read_wal(path)

    def test_truncate_through(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", sync="flush")
        for epoch in (1, 2, 3, 4):
            wal.append("compact", epoch, {})
        assert wal.truncate_through(2) == 2
        scan = read_wal(tmp_path / "wal.jsonl")
        assert [r.epoch for r in scan.records] == [3, 4]
        # New appends continue the LSN sequence.
        rec = wal.append("compact", 5, {})
        assert rec.lsn == 5

    def test_truncate_raises_on_a_corrupt_middle_frame(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        r1 = encode_record(WalRecord(lsn=1, op="compact", epoch=1))
        r2 = bytearray(encode_record(WalRecord(lsn=2, op="compact",
                                               epoch=2)))
        r2[-3] ^= 0x01          # one flipped byte inside the body
        r3 = encode_record(WalRecord(lsn=3, op="compact", epoch=3))
        path.write_bytes(r1 + bytes(r2) + r3)
        before = path.read_bytes()
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path, sync="flush").truncate_through(1)
        assert path.read_bytes() == before

    def test_truncate_raises_on_an_lsn_jump(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(
            encode_record(WalRecord(lsn=1, op="compact", epoch=1))
            + encode_record(WalRecord(lsn=3, op="compact", epoch=2)))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path, sync="flush").truncate_through(1)

    # SHA-1 of the log truncate_through(cut) leaves, as commit 2b3d02f
    # (which decoded every record) wrote it from the same fixture.
    TRUNCATED_SHA1 = {
        "wal_golden.jsonl": {
            0: "64fb027a63c68c1548bf35ce11a3bc17720b967f",
            1: "7f30d2484644fd8ab7306cd990a45a9180577a49",
            2: "e44e76f48d4b54a3ddec47d3eea8209460e69088",
            3: "803ab36d5a8a4c84d56148d062141f7f12f1e519",
            4: "af4743aa352c7becdbd41c1fc01d3c03ff356448",
            5: "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        "durable_63282b1/wal.jsonl": {
            0: "1f39d1afb296bd47a3c8502fdb40524bf4dd6d84",
            2: "a4dd6523d74f2831ce520d82c1f63aaafbf687ea",
            4: "05971b30e972ecbaaa0e6cecbe67ad7607cdcd16",
            5: "f71ab4b7e77c68920f97d2090e383b97550ff3c5"},
        "durable_d7f7855/wal.jsonl": {
            3: "eb68ae6937a08523ecb4d9cf6e044c9e17c4e4aa",
            5: "398f0813326380d8d4ae4f6e0b82a5f008437fd1"},
    }

    @pytest.mark.parametrize("name", sorted(TRUNCATED_SHA1))
    def test_truncated_bytes_match_the_decoding_truncation(self, tmp_path,
                                                          name):
        fixture = Path(__file__).parent / "data" / name
        last_lsn = read_wal(fixture).records[-1].lsn
        for cut, sha1 in self.TRUNCATED_SHA1[name].items():
            path = tmp_path / f"wal-{cut}.jsonl"
            shutil.copy(fixture, path)
            wal = WriteAheadLog(path, sync="flush")
            wal.truncate_through(cut)
            assert hashlib.sha1(path.read_bytes()).hexdigest() == sha1
            assert wal.append("compact", 99, {}).lsn == last_lsn + 1

    def test_truncate_drops_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        half = encode_record(WalRecord(lsn=6, op="compact", epoch=6))
        path.write_bytes((Path(__file__).parent / "data"
                          / "wal_golden.jsonl").read_bytes()
                         + half[:len(half) // 2])
        assert WriteAheadLog(path, sync="flush").truncate_through(2) == 2
        assert hashlib.sha1(path.read_bytes()).hexdigest() == \
            self.TRUNCATED_SHA1["wal_golden.jsonl"][2]

    def test_a_record_in_another_spelling_still_frames(self, tmp_path):
        # The CRC covers the canonical encoding, not the bytes: a line
        # with JSON's default separators is the same record (read_wal
        # decodes it, truncation keeps it verbatim).
        rec = WalRecord(lsn=1, op="delete", epoch=1,
                        payload={"traj_id": 4})
        body = rec.to_dict()
        canonical = json.dumps(body, sort_keys=True,
                               separators=(",", ":")).encode()
        loose = json.dumps(dict(body, crc=zlib.crc32(canonical)))
        tail = encode_record(WalRecord(lsn=2, op="compact", epoch=2))
        path = tmp_path / "wal.jsonl"
        path.write_bytes(loose.encode() + b"\n" + tail)
        assert read_wal(path).records[0] == rec
        assert WriteAheadLog(path, sync="flush").truncate_through(0) == 0
        assert path.read_bytes() == loose.encode() + b"\n" + tail

    def test_drop_torn_tail_truncates_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync="flush")
        wal.append("compact", 1, {})
        wal.close()
        good = path.read_bytes()
        path.write_bytes(good + b'{"half')
        scan = read_wal(path)
        wal.drop_torn_tail(scan.valid_bytes)
        assert path.read_bytes() == good


# -- kill switch --------------------------------------------------------------


class TestKillSwitch:
    def test_fires_on_exact_occurrence(self):
        kill = KillSwitch("wal_post_append", occurrence=2)
        assert not kill.matches("wal_post_append")
        with pytest.raises(SimulatedCrash) as err:
            kill.check("wal_post_append")
        assert err.value.point == "wal_post_append"
        assert kill.fired

    def test_other_points_ignored(self):
        kill = KillSwitch("checkpoint_mid", occurrence=1)
        kill.check("wal_post_append")  # no crash
        kill.check("compact_mid")
        with pytest.raises(SimulatedCrash):
            kill.check("checkpoint_mid")

    def test_simulated_crash_is_not_exception(self):
        # Resilience ladders catch Exception; a simulated process
        # death must sail through them.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)


# -- checkpoints --------------------------------------------------------------


def _state(db: VersionedDatabase) -> dict:
    snap = db.snapshot()
    return {"epoch": db.epoch, "delta_epoch": db.delta_epoch,
            "base_version": db.base_version,
            "next_seg_id": db.next_seg_id, "base": snap.base,
            "delta": snap.delta, "tombstones": snap.tombstones,
            "counters": {}}


class TestCheckpoint:
    def test_write_load_roundtrip(self, tmp_path):
        db = VersionedDatabase(_db())
        db.append(_db(seed=5, n=2, offset=100))
        db.delete_trajectory(3)
        path = write_checkpoint(tmp_path / "checkpoints", _state(db))
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == db.epoch
        assert ckpt.next_seg_id == db.next_seg_id
        assert ckpt.tombstones == {3}
        assert np.array_equal(ckpt.base.seg_ids,
                              db.snapshot().base.seg_ids)
        assert np.array_equal(ckpt.delta.xs, db.snapshot().delta.xs)

    def test_array_files_are_the_in_memory_archives_bytes(self, tmp_path):
        # np.savez streams into the open file; the bytes (and so the
        # manifest's digests) are those of the archive built in a
        # BytesIO, which is how checkpoints were written before.
        db = VersionedDatabase(_db())
        db.append(_db(seed=5, n=2, offset=100))
        db.delete_trajectory(3)
        state = _state(db)
        path = write_checkpoint(tmp_path / "checkpoints", state)
        digests = json.loads((path / "MANIFEST.json").read_text())["files"]
        for name in ("base", "delta"):
            buf = io.BytesIO()
            np.savez(buf, **{f: getattr(state[name], f) for f in
                             ("xs", "ys", "zs", "ts", "xe", "ye", "ze",
                              "te", "traj_ids", "seg_ids")})
            assert (path / f"{name}.npz").read_bytes() == buf.getvalue()
            assert digests[f"{name}.npz"] \
                == hashlib.sha1(buf.getvalue()).hexdigest()

    def test_checksum_mismatch_detected(self, tmp_path):
        db = VersionedDatabase(_db())
        path = write_checkpoint(tmp_path / "checkpoints", _state(db))
        blob = (path / "base.npz").read_bytes()
        (path / "base.npz").write_bytes(
            blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        from repro.durability import CheckpointError
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_kill_before_rename_leaves_no_checkpoint(self, tmp_path):
        db = VersionedDatabase(_db())
        kill = KillSwitch("checkpoint_mid", occurrence=1)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(tmp_path / "checkpoints", _state(db),
                             kill=kill)
        assert list_checkpoints(tmp_path / "checkpoints") == []
        # ... but the tmp debris is there and recovery sweeps it.
        from repro.durability.checkpoint import clean_tmp_dirs
        assert clean_tmp_dirs(tmp_path / "checkpoints") == 1

    def test_list_newest_first(self, tmp_path):
        db = VersionedDatabase(_db())
        write_checkpoint(tmp_path / "c", _state(db))
        db.compact()
        write_checkpoint(tmp_path / "c", _state(db))
        names = [p.name for p in list_checkpoints(tmp_path / "c")]
        assert names == sorted(names, reverse=True)


# -- manager + recovery -------------------------------------------------------


class TestRecovery:
    def _durable_service(self, tmp_path, **kw):
        kw.setdefault("durability",
                      DurabilityPolicy(checkpoint_every=100))
        return QueryService(_db(), durability_dir=tmp_path / "state",
                            auto_compact=False, **kw)

    def test_attach_refuses_existing_state(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.shutdown()
        with pytest.raises(DurabilityError, match="recover"):
            QueryService(_db(), durability_dir=tmp_path / "state")

    def test_policy_without_dir_rejected(self):
        with pytest.raises(ValueError, match="durability_dir"):
            QueryService(_db(), durability=DurabilityPolicy())

    def test_recover_restores_exact_epoch_and_results(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.delete_trajectory(1)
        svc.compact()
        svc.ingest(_db(seed=4, n=2, offset=80))
        queries = _db(seed=9, n=2, offset=900)
        ref = svc.submit(SearchRequest(queries=queries, d=2.5,
                                       method="cpu_scan"))
        epoch = svc.versioned.epoch
        svc.shutdown()

        svc2 = QueryService.recover(tmp_path / "state",
                                    auto_compact=False)
        assert svc2.versioned.epoch == epoch
        assert svc2.database == svc.database
        got = svc2.submit(SearchRequest(queries=queries, d=2.5,
                                        method="cpu_scan"))
        a = ref.outcome.results.canonical()
        b = got.outcome.results.canonical()
        assert a.q_ids.tobytes() == b.q_ids.tobytes()
        assert a.e_ids.tobytes() == b.e_ids.tobytes()
        assert a.t_lo.tobytes() == b.t_lo.tobytes()
        assert a.t_hi.tobytes() == b.t_hi.tobytes()

    def test_recover_is_idempotent(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.delete_trajectory(2)
        svc.shutdown()
        one = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        two = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert one.versioned.epoch == two.versioned.epoch
        assert one.database == two.database
        assert one.versioned.next_seg_id == two.versioned.next_seg_id
        assert one.last_recovery.replayed == two.last_recovery.replayed

    def test_recover_with_empty_wal_tail(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.checkpoint()
        epoch, base = svc.versioned.epoch, svc.database
        svc.shutdown()
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert rec.last_recovery.replayed == 0
        assert rec.versioned.epoch == epoch
        assert rec.database == base

    def test_prewarm_makes_restart_a_cache_hit(self, tmp_path):
        svc = self._durable_service(tmp_path)
        queries = _db(seed=9, n=2, offset=900)
        svc.submit(SearchRequest(queries=queries, d=2.5,
                                 method="gpu_temporal"))
        svc.checkpoint()
        svc.shutdown()
        svc2 = QueryService.recover(tmp_path / "state",
                                    auto_compact=False)
        resp = svc2.submit(SearchRequest(queries=queries, d=2.5,
                                         method="gpu_temporal"))
        assert resp.metrics.cache_hit
        total = svc2.telemetry.metrics.counter(
            "repro_recovery_prewarmed_total").total()
        assert total == 1

    def test_torn_wal_tail_loses_only_inflight_op(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        epoch_before = svc.versioned.epoch
        kill = KillSwitch("wal_mid_append", occurrence=1)
        svc.durability.wal.kill = kill
        svc.durability.wal.close()  # reopen through the kill path
        with pytest.raises(SimulatedCrash):
            svc.ingest(_db(seed=4, n=2, offset=80))
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert rec.last_recovery.torn_dropped == 1
        assert rec.versioned.epoch == epoch_before
        # The torn bytes are physically gone: appending again works
        # and a fresh recovery sees a clean log.
        rec.ingest(_db(seed=5, n=2, offset=120))
        rec.shutdown()
        again = QueryService.recover(tmp_path / "state",
                                     auto_compact=False)
        assert again.versioned.epoch == epoch_before + 1

    def test_noop_delete_not_logged(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.delete_trajectory(4)
        appends = svc.durability.wal.appends
        assert svc.delete_trajectory(4) == 0  # already tombstoned
        assert svc.durability.wal.appends == appends

    def test_invalid_mutation_not_logged(self, tmp_path):
        svc = self._durable_service(tmp_path)
        appends = svc.durability.wal.appends
        with pytest.raises(IngestError):
            svc.delete_trajectory(99999)
        with pytest.raises(IngestError):
            svc.ingest(SegmentArray.empty())
        assert svc.durability.wal.appends == appends

    def test_shutdown_flushes_logs_and_is_idempotent(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.shutdown()
        svc.shutdown()
        events = (tmp_path / "state" / "events.jsonl").read_text()
        kinds = [json.loads(line)["kind"]
                 for line in events.splitlines()]
        assert "ingest" in kinds
        assert (tmp_path / "state" / "slow_queries.jsonl").exists()

    def test_context_manager_shuts_down(self, tmp_path):
        with self._durable_service(tmp_path) as svc:
            svc.ingest(_db(seed=3, n=2, offset=50))
        assert (tmp_path / "state" / "events.jsonl").exists()

    def test_stats_expose_durability(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        dur = svc.stats()["durability"]
        assert dur["wal_appends"] == 1
        assert dur["checkpoints_written"] == 1  # the attach bootstrap
        plain = QueryService(_db())
        assert plain.stats()["durability"] is None

    def test_periodic_checkpoint_cadence(self, tmp_path):
        svc = QueryService(
            _db(), durability_dir=tmp_path / "state",
            durability=DurabilityPolicy(checkpoint_every=2),
            auto_compact=False)
        for i in range(4):
            svc.ingest(_db(seed=10 + i, n=1, offset=200 + 10 * i))
        # attach + two periodic checkpoints (after ops 2 and 4).
        assert svc.durability.checkpoints_written == 3
        # keep_checkpoints=2 prunes the oldest.
        assert len(list_checkpoints(
            svc.durability.checkpoints_dir)) == 2

    def _recover_past_corrupt_newest(self, tmp_path, tail_ops,
                                     manifest="{broken"):
        """Default policy: checkpoint, ``tail_ops`` more acknowledged
        writes, clean shutdown, then the newest checkpoint's manifest
        is overwritten with ``manifest``."""
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.checkpoint()
        for i in range(tail_ops):
            svc.ingest(_db(seed=4 + i, n=1, offset=80 + 10 * i))
        epoch, base = svc.versioned.epoch, svc.database
        svc.shutdown()
        newest = list_checkpoints(
            tmp_path / "state" / "checkpoints")[0]
        (newest / "MANIFEST.json").write_text(manifest)
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert rec.last_recovery.invalid_checkpoints == 1
        assert rec.last_recovery.checkpoint_epoch == 0
        assert rec.versioned.epoch == epoch
        assert rec.database == base

    def test_corrupt_newest_checkpoint_skipped(self, tmp_path):
        # The WAL is truncated through the *oldest retained*
        # checkpoint, so recovery can fall back past a corrupt newest
        # one and still replay to the exact acknowledged epoch.
        self._recover_past_corrupt_newest(tmp_path, tail_ops=0)

    def test_corrupt_newest_checkpoint_skipped_with_wal_tail(
            self, tmp_path):
        self._recover_past_corrupt_newest(tmp_path, tail_ops=2)

    @pytest.mark.parametrize("manifest", [
        "[]", '{"format": 1}', '{"format": 1, "epoch": "one"}',
        '{"format": 1, "epoch": 1, "delta_epoch": 1, "base_version": 0,'
        ' "next_seg_id": 90, "engines": [7]}'])
    def test_parseable_but_damaged_manifest_skipped(self, tmp_path,
                                                    manifest):
        # Valid JSON, wrong shape: the checkpoint is invalid like a
        # truncated one, not a crash of recovery itself.
        with pytest.raises(CheckpointError):
            self._write_manifest_and_load(tmp_path, manifest)
        self._recover_past_corrupt_newest(tmp_path / "svc", tail_ops=2,
                                          manifest=manifest)

    @pytest.mark.parametrize("drop", ["base_digest", "files"])
    def test_array_without_a_digest_is_not_loaded(self, tmp_path, drop):
        # The newest base is cut to half its rows and the manifest no
        # longer vouches for it: the checkpoint is invalid, so recovery
        # falls back to the older one and replays the WAL forward.
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.compact()
        svc.ingest(_db(seed=4, n=1, offset=80))
        epoch, rows = svc.versioned.epoch, len(svc.versioned.base)
        svc.shutdown()
        newest = list_checkpoints(tmp_path / "state" / "checkpoints")[0]
        with np.load(newest / "base.npz") as npz:
            half = {k: npz[k][:len(npz[k]) // 2] for k in npz.files}
        np.savez(newest / "base.npz", **half)
        manifest = json.loads((newest / "MANIFEST.json").read_text())
        if drop == "files":
            del manifest["files"]
        else:
            del manifest["files"]["base.npz"]
        (newest / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="no digest"):
            load_checkpoint(newest)
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert rec.last_recovery.invalid_checkpoints == 1
        assert rec.versioned.epoch == epoch
        assert len(rec.versioned.base) == rows

    @pytest.mark.parametrize("op, payload", [
        ("upsert", {}), ("delete", {"traj_id": 99_999})],
        ids=["undecodable", "inapplicable"])
    def test_unreplayable_wal_record_names_its_lsn(self, tmp_path, op,
                                                   payload):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.shutdown()
        wal = tmp_path / "state" / "wal.jsonl"
        last = read_wal(wal).records[-1]
        with open(wal, "ab") as fh:
            fh.write(encode_record(WalRecord(
                lsn=last.lsn + 1, op=op, epoch=last.epoch + 1,
                payload=payload)))
        with pytest.raises(WalCorruptionError,
                           match=f"lsn={last.lsn + 1}"):
            QueryService.recover(tmp_path / "state")

    def test_every_durability_failure_is_a_durability_error(self):
        assert issubclass(WalCorruptionError, DurabilityError)
        assert issubclass(CheckpointError, DurabilityError)

    def _write_manifest_and_load(self, tmp_path, manifest):
        path = tmp_path / "ckpt"
        path.mkdir()
        (path / "MANIFEST.json").write_text(manifest)
        load_checkpoint(path)

    @pytest.mark.parametrize("state", ["[]", "1", '"x"'])
    def test_non_object_standing_state_is_refused(self, tmp_path,
                                                  state):
        svc = self._durable_service(tmp_path)
        svc.shutdown()
        (tmp_path / "state" / "standing" / "state.json").write_text(state)
        with pytest.raises(StandingStoreError, match="object"):
            QueryService.recover(tmp_path / "state")

    def test_recovery_short_of_a_committed_checkpoint_raises(
            self, tmp_path):
        # A directory whose log no longer reaches back to the older
        # checkpoint (what d7f7855 left behind): falling back would
        # silently roll acknowledged writes back, so recovery refuses.
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.checkpoint()
        svc.shutdown()
        (tmp_path / "state" / "wal.jsonl").write_bytes(b"")
        newest = list_checkpoints(
            tmp_path / "state" / "checkpoints")[0]
        (newest / "MANIFEST.json").write_text("{broken")
        with pytest.raises(DurabilityError, match="committed at epoch 1"):
            QueryService.recover(tmp_path / "state")

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="no checkpoints"):
            QueryService.recover(tmp_path / "nothing")

    def test_manager_refuses_bad_sync_mode(self):
        with pytest.raises(ValueError, match="sync"):
            DurabilityPolicy(sync="eventually")

    def test_durable_compaction_replays_identically(self, tmp_path):
        svc = self._durable_service(tmp_path)
        svc.ingest(_db(seed=3, n=2, offset=50))
        svc.compact()
        base = svc.database
        svc.shutdown()
        # Wipe the checkpoints; force a full WAL replay from the
        # bootstrap state... not possible (WAL truncated), so instead
        # verify the recovered base matches the compacted one.
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        assert rec.database == base
        assert rec.versioned.base_version == svc.versioned.base_version


# -- warm-engine recipes ------------------------------------------------------


def _prewarmed(svc, **labels):
    return series_value(svc.telemetry.metrics,
                        "repro_recovery_prewarmed_total", **labels)


class TestEngineArtifacts:
    """What a checkpoint keeps of the warm engines and how a restart
    uses it: a recipe for each, which recovery rebuilds — never an
    engine object, not even where an older directory holds one."""

    WARM = {"gpu_temporal": {"num_bins": 4},
            "cpu_rtree": {"segments_per_mbb": 2, "fanout": 4}}
    QUERIES = _db(seed=9, n=2, offset=900)

    def _search(self, svc, method):
        return svc.submit(SearchRequest(
            queries=self.QUERIES, d=2.5, method=method,
            params=self.WARM.get(method, {})))

    def _checkpointed(self, tmp_path):
        """search -> ingest -> checkpoint() -> shutdown(); returns the
        checkpoint's path and the epoch it was taken at."""
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False)
        for method in self.WARM:
            self._search(svc, method)
        svc.ingest(_db(seed=3, n=2, offset=50))
        path = svc.checkpoint()
        svc.shutdown()
        return path, svc.versioned.epoch

    def test_checkpoint_holds_recipes_not_engines(self, tmp_path):
        path, _ = self._checkpointed(tmp_path)
        assert sorted(p.name for p in path.iterdir()) \
            == ["MANIFEST.json", "base.npz", "delta.npz"]
        manifest = json.loads((path / "MANIFEST.json").read_text())
        assert sorted(manifest["files"]) == ["base.npz", "delta.npz"]
        recipes = manifest["engines"]
        assert all(set(r) == {"method", "params"} for r in recipes)
        assert [r["method"] for r in recipes] == list(self.WARM)
        for recipe in recipes:
            assert self.WARM[recipe["method"]].items() \
                <= recipe["params"].items()
        for name in ("base.npz", "delta.npz"):
            with zipfile.ZipFile(path / name) as npz:
                assert all(info.compress_type == zipfile.ZIP_STORED
                           for info in npz.infolist())

    def test_recovery_rebuilds_every_recipe(self, tmp_path):
        self._checkpointed(tmp_path)
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        built = [e.fields["engine"]
                 for e in rec.telemetry.events.of_kind("engine_build")]
        assert built == list(self.WARM)
        for method in self.WARM:
            assert _prewarmed(rec, engine=method) == 1
            assert self._search(rec, method).metrics.cache_hit

    def test_recovered_engines_stay_warm_across_one_compaction(
            self, tmp_path):
        # The checkpoint listed them because they were being served,
        # so the first compaction after a restart re-warms them; a
        # second one with still no request does not.
        self._checkpointed(tmp_path)
        rec = QueryService.recover(tmp_path / "state",
                                   auto_compact=False)
        rec.ingest(_db(seed=4, n=1, offset=80))
        rec.compact()
        assert self._search(rec, "cpu_rtree").metrics.cache_hit
        rec.ingest(_db(seed=5, n=1, offset=100))
        rec.compact()
        assert self._search(rec, "cpu_rtree").metrics.cache_hit
        assert not self._search(rec, "gpu_temporal").metrics.cache_hit

    # -- checkpoints older code wrote -------------------------------------

    def _f7a6f96(self, tmp_path):
        """A copy of the directory f7a6f96 left behind (compressed
        arrays and a pickled engine per warm recipe, written by
        tests/data/make_fixture.py) and its expected answers."""
        fixture = Path(__file__).parent / "data" / "durable_f7a6f96"
        shutil.copytree(fixture, tmp_path / "d")
        want = json.loads((tmp_path / "d" / "expected.json").read_text())
        newest = list_checkpoints(tmp_path / "d" / "checkpoints")[0]
        assert len(list((newest / "engines").iterdir())) == 2
        with zipfile.ZipFile(newest / "base.npz") as npz:
            assert all(info.compress_type == zipfile.ZIP_DEFLATED
                       for info in npz.infolist())
        return tmp_path / "d", newest, want

    def _assert_recovered(self, svc, want):
        assert svc.versioned.epoch == want["epoch"]
        assert svc.last_recovery.checkpoint_epoch \
            == want["checkpoint_epoch"]
        assert svc.last_recovery.invalid_checkpoints == 0
        for method in want["engines"]:
            assert _prewarmed(svc, engine=method) == 1
            response, sha = self._answer_sha256(svc, want, method)
            assert response.metrics.cache_hit
            assert sha == want["result_sha256"]
        response, sha = self._answer_sha256(svc, want, "cpu_scan")
        assert len(response.outcome.results) == want["num_results"]
        assert sha == want["result_sha256"]

    def _answer_sha256(self, svc, want, method):
        response = svc.submit(SearchRequest(
            queries=SegmentArray.from_dict(want["queries"]), d=want["d"],
            method=method, params=want["engines"].get(method, {})))
        return response, hashlib.sha256(b"".join(
            result_bytes(response.outcome.results))).hexdigest()

    @pytest.mark.parametrize("artifacts", ["installed", "rebuilt"])
    def test_directory_written_by_f7a6f96_recovers(self, tmp_path,
                                                   monkeypatch, artifacts):
        # Its warm engines come back built from their recipes, whether
        # its old pickles are still installed beside them or gone: with
        # unpickling made to fail, the restart still answers the same
        # bytes, every engine a cache hit.
        directory, newest, want = self._f7a6f96(tmp_path)
        if artifacts == "rebuilt":
            shutil.rmtree(newest / "engines")

        def refuse(*args, **kwargs):
            raise AssertionError("recovery unpickled an object")
        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        svc = QueryService.recover(directory, auto_compact=False)
        self._assert_recovered(svc, want)

    def test_flipped_artifact_byte_costs_a_rebuild_not_the_checkpoint(
            self, tmp_path):
        # The pickles an old checkpoint holds are not part of what a
        # load verifies: damaging every one leaves the checkpoint valid.
        directory, newest, want = self._f7a6f96(tmp_path)
        for artifact in (newest / "engines").iterdir():
            blob = bytearray(artifact.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            artifact.write_bytes(bytes(blob))
        svc = QueryService.recover(directory, auto_compact=False)
        self._assert_recovered(svc, want)


# -- atomic dataset saves (satellite) ----------------------------------------


class TestAtomicSave:
    def test_roundtrip_and_no_tmp_left(self, tmp_path):
        db = _db()
        out = save_segments(tmp_path / "db.npz", db)
        assert out == tmp_path / "db.npz"
        loaded = load_segments(out)
        assert np.array_equal(loaded.seg_ids, db.seg_ids)
        assert list(tmp_path.iterdir()) == [out]

    def test_suffix_appended_like_numpy(self, tmp_path):
        out = save_segments(tmp_path / "db", _db())
        assert out.name == "db.npz"
        assert load_segments(out) is not None

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        a, b = _db(seed=1), _db(seed=2)
        path = save_segments(tmp_path / "db.npz", a)
        save_segments(path, b)
        assert np.array_equal(load_segments(path).xs, b.xs)


class TestKeepSegIdsReplay:
    """The WAL records the router's ``keep_seg_ids`` flag so recovery
    replays shard appends with the same global ids."""

    def test_wal_replay_preserves_kept_ids(self, tmp_path):
        svc = QueryService(
            _db(), durability_dir=tmp_path / "state",
            auto_compact=False,
            durability=DurabilityPolicy(checkpoint_every=100))
        fresh = _db(seed=5, n=1, steps=4, offset=300)
        stamped = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.arange(77_000, 77_000 + len(fresh), dtype=np.int64))
        svc.apply(Mutation("append", segments=stamped,
                           keep_seg_ids=True))
        svc.shutdown()

        svc2 = QueryService.recover(tmp_path / "state",
                                    auto_compact=False)
        logical = svc2.versioned.snapshot().logical()
        kept = np.isin(logical.seg_ids, stamped.seg_ids)
        assert kept.sum() == len(stamped)
        svc2.shutdown()

    def test_wal_payload_carries_flag(self, tmp_path):
        svc = QueryService(
            _db(), durability_dir=tmp_path / "state",
            auto_compact=False,
            durability=DurabilityPolicy(checkpoint_every=100))
        fresh = _db(seed=5, n=1, steps=4, offset=300)
        stamped = SegmentArray(
            fresh.xs, fresh.ys, fresh.zs, fresh.ts,
            fresh.xe, fresh.ye, fresh.ze, fresh.te,
            fresh.traj_ids,
            np.arange(77_000, 77_000 + len(fresh), dtype=np.int64))
        svc.apply(Mutation("append", segments=stamped,
                           keep_seg_ids=True))
        svc.ingest(_db(seed=6, n=1, steps=4, offset=400))
        svc.shutdown()
        records = read_wal(tmp_path / "state" / "wal.jsonl").records
        appends = [r for r in records if r.op == "append"]
        assert appends[0].payload.get("keep_seg_ids") is True
        assert "keep_seg_ids" not in appends[1].payload


class TestIdempotencyAcrossRecovery:
    def test_wal_replay_recovers_the_dedup_table(self, tmp_path):
        """A keyed mutation applied before a crash must dedup after
        recovery — the WAL carries the keys."""
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False,
                           durability=DurabilityPolicy(
                               checkpoint_every=100))
        fresh = _db(seed=9, n=1, steps=4, offset=500)
        first = svc.ingest(fresh, idempotency_key="put-1")
        svc.delete_trajectory(2, idempotency_key="del-2")
        # Crash: abandon without shutdown; the WAL already synced.
        svc2 = QueryService.recover(tmp_path / "state",
                                    auto_compact=False)
        again = svc2.ingest(fresh, idempotency_key="put-1")
        assert again.deduplicated
        assert again.epoch == first.epoch
        assert svc2.versioned.epoch == svc.versioned.epoch
        hidden = svc2.delete_trajectory(2, idempotency_key="del-2")
        assert hidden > 0  # replayed receipt, not a 0-row no-op
        svc2.shutdown()

    def test_checkpoint_carries_the_dedup_table(self, tmp_path):
        """Keys must survive even when the WAL segment holding them is
        truncated away by a checkpoint."""
        svc = QueryService(_db(), durability_dir=tmp_path / "state",
                           auto_compact=False,
                           durability=DurabilityPolicy(
                               checkpoint_every=100))
        fresh = _db(seed=10, n=1, steps=4, offset=600)
        first = svc.ingest(fresh, idempotency_key="put-2")
        svc.checkpoint()
        svc.shutdown()
        svc2 = QueryService.recover(tmp_path / "state",
                                    auto_compact=False)
        again = svc2.ingest(fresh, idempotency_key="put-2")
        assert again.deduplicated and again.epoch == first.epoch
        svc2.shutdown()
