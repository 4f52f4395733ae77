"""The one write path: `Mutation`, its WAL bytes, and the pipeline.

* **Golden bytes** — the four mutation shapes frame to exactly the WAL
  lines commit d7f7855 wrote (``tests/data/wal_golden.jsonl``), and a
  small durability directory that commit left behind
  (``tests/data/durable_d7f7855``, made by ``tests/data/make_fixture.py``)
  recovers to the same epoch, the same answer bytes, the same dedup
  table and the same standing state.
* **Properties** — ``from_payload(to_payload)`` is the identity, and a
  schedule driven through ``QueryService.apply`` lands where the same
  schedule through ``ingest`` / ``delete_trajectory`` / ``compact``
  does.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import SegmentArray, Trajectory
from repro.durability import WalRecord, read_wal
from repro.durability.wal import encode_record
from repro.ingest import Mutation
from repro.obs import Telemetry
from repro.service import QueryService, SearchRequest

DATA = Path(__file__).parent / "data"


def _line(traj_id, x0, y0, t0=0.0, steps=4):
    """A straight-line trajectory on exactly representable floats
    (mirrors ``tests/data/make_fixture.py``)."""
    times = t0 + np.arange(steps, dtype=np.float64)
    pos = np.column_stack([x0 + 1.0 * np.arange(steps),
                           y0 + 0.5 * np.arange(steps),
                           np.zeros(steps)])
    return Trajectory(traj_id, times, pos)


def _segs(*trajs, seg_ids=None):
    s = SegmentArray.from_trajectories(list(trajs))
    if seg_ids is None:
        return s
    return SegmentArray(s.xs, s.ys, s.zs, s.ts, s.xe, s.ye, s.ze, s.te,
                        s.traj_ids, np.asarray(seg_ids, dtype=np.int64))


def _sha256(results):
    c = results.canonical()
    return hashlib.sha256(b"".join(
        a.tobytes() for a in (c.q_ids, c.e_ids, c.t_lo, c.t_hi))).hexdigest()


def _quiet():
    return Telemetry(enabled=False)


# -- golden bytes -------------------------------------------------------------


#: the mutations d7f7855 logged into wal_golden.jsonl, in order.
GOLDEN = [
    Mutation("append", segments=_segs(_line(7, 1.0, 2.0, steps=3))),
    Mutation("append",
             segments=_segs(_line(8, 2.0, 3.0, steps=3),
                            seg_ids=[500, 501]),
             keep_seg_ids=True, idempotency_key="put-8"),
    Mutation("delete", traj_id=1),
    Mutation("delete", traj_id=7, idempotency_key="del-7"),
    Mutation("compact"),
]


class TestGoldenBytes:
    def test_mutations_frame_to_the_lines_d7f7855_wrote(self):
        golden = (DATA / "wal_golden.jsonl").read_bytes()
        framed = b"".join(
            encode_record(WalRecord(lsn=i, op=m.op, epoch=i,
                                    payload=m.to_payload()))
            for i, m in enumerate(GOLDEN, start=1))
        assert framed == golden

    def test_golden_lines_decode_to_the_same_mutations(self):
        records = read_wal(DATA / "wal_golden.jsonl").records
        assert [Mutation.from_payload(r.op, r.payload)
                for r in records] == GOLDEN

    def test_service_writes_the_same_lines(self, tmp_path):
        svc = QueryService(
            _segs(_line(0, 0.0, 0.0), _line(1, 5.0, 5.0)),
            durability_dir=tmp_path, auto_compact=False,
            telemetry=_quiet())
        for mutation in GOLDEN[:-1]:
            svc.apply(mutation)
        # compact() would checkpoint and truncate the log away: frame
        # its record without the checkpoint, as the fixture did.
        svc.durability.log(svc.versioned, GOLDEN[-1])
        svc.durability.close()
        assert (tmp_path / "wal.jsonl").read_bytes() \
            == (DATA / "wal_golden.jsonl").read_bytes()

    def test_directory_written_by_d7f7855_recovers(self, tmp_path):
        shutil.copytree(DATA / "durable_d7f7855", tmp_path / "d")
        want = json.loads((tmp_path / "d" / "expected.json").read_text())
        svc = QueryService.recover(tmp_path / "d", auto_compact=False,
                                   telemetry=_quiet())
        assert svc.versioned.epoch == want["epoch"]
        assert svc.last_recovery.checkpoint_epoch == 3
        assert svc.last_recovery.replayed == 3
        queries = SegmentArray.from_dict(want["queries"])
        response = svc.submit(SearchRequest(
            queries=queries, d=want["d"], method="cpu_scan"))
        assert len(response.outcome.results) == want["num_results"]
        assert _sha256(response.outcome.results) == want["result_sha256"]
        # The dedup table came back from the checkpoint manifest ...
        assert sorted(svc.versioned.applied_keys) \
            == want["applied_keys"]
        again = svc.ingest(
            SegmentArray.from_dict(want["put_1"]["segments"]),
            idempotency_key="put-1")
        assert again.deduplicated
        assert again.epoch == want["put_1"]["epoch"]
        # ... and the standing state (saved at the final epoch, so no
        # epoch is re-run) recovered unchanged.
        assert sorted(svc.standing.subscriptions) == ["sub-a"]
        assert svc.standing.last_seq == want["last_seq"]
        assert svc.standing.totals["replayed_events"] == 0
        assert _sha256(svc.standing.results("sub-a")) \
            == want["standing_sha256"]
        svc.shutdown()


# -- properties ---------------------------------------------------------------


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                   width=32)
keys = st.none() | st.text(min_size=1, max_size=8)


@st.composite
def appends(draw, traj_ids=st.integers(100, 10_000)):
    n = draw(st.integers(2, 4))
    pos = np.array([[draw(coords), draw(coords), draw(coords)]
                    for _ in range(n)])
    traj = Trajectory(draw(traj_ids), np.arange(n, dtype=np.float64),
                      pos)
    return Mutation("append", segments=[traj],
                    keep_seg_ids=draw(st.booleans()),
                    idempotency_key=draw(keys))


mutations = st.one_of(
    appends(),
    st.builds(Mutation, st.just("delete"),
              traj_id=st.integers(0, 10_000), idempotency_key=keys),
    st.just(Mutation("compact")))


class TestMutationValue:
    @given(mutations)
    @settings(max_examples=60, deadline=None)
    def test_payload_roundtrip(self, mutation):
        wire = json.loads(json.dumps(mutation.to_payload()))
        assert Mutation.from_payload(mutation.op, wire) == mutation

    @pytest.mark.parametrize("kwargs", [
        {"op": "upsert"},
        {"op": "append"},
        {"op": "append", "segments": SegmentArray.empty(), "traj_id": 3},
        {"op": "delete"},
        {"op": "delete", "traj_id": 3, "keep_seg_ids": True},
        {"op": "compact", "idempotency_key": "k"},
    ], ids=lambda kwargs: "-".join([kwargs["op"], *list(kwargs)[1:]]))
    def test_shape_is_validated_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            Mutation(**kwargs)

    def test_arguments_are_normalized(self):
        m = Mutation("delete", traj_id=np.int64(0), idempotency_key=7)
        assert type(m.traj_id) is int and m.traj_id == 0
        assert m.idempotency_key == "7"
        traj = _line(3, 0.0, 0.0)
        assert Mutation("append", segments=traj).segments \
            == SegmentArray.from_trajectories([traj])


def _spell(service, mutation):
    """Send one mutation through its public spelling."""
    if mutation.op == "append":
        return service.ingest(mutation.segments,
                              idempotency_key=mutation.idempotency_key)
    if mutation.op == "delete":
        return service.delete_trajectory(
            mutation.traj_id, idempotency_key=mutation.idempotency_key)
    return service.compact()


@st.composite
def schedules(draw):
    """Valid schedules over the base of :func:`_base`: appends of fresh
    trajectories, deletes of live ones (never the last), compactions,
    and keyed retries of earlier steps."""
    live, fresh, keyed, out = list(range(6)), 100, [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["append", "append", "delete", "compact", "retry"]))
        if kind == "retry" and keyed:
            out.append(draw(st.sampled_from(keyed)))
            continue
        key = draw(st.none() | st.just(f"key-{len(out)}"))
        if kind == "delete" and len(live) > 1:
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            mutation = Mutation("delete", traj_id=victim,
                                idempotency_key=key)
        elif kind == "compact":
            mutation = Mutation("compact")
        else:
            mutation = Mutation(
                "append", idempotency_key=key,
                segments=_line(fresh, draw(coords), draw(coords)))
            live.append(fresh)
            fresh += 1
        if mutation.idempotency_key is not None:
            keyed.append(mutation)
        out.append(mutation)
    return out


def _base():
    return _segs(*(_line(k, 3.0 * k, 2.0 * k) for k in range(6)))


class TestOnePipeline:
    @given(schedules())
    @settings(max_examples=25, deadline=None)
    def test_apply_equals_the_public_spellings(self, schedule):
        via_apply = QueryService(_base(), telemetry=_quiet())
        via_names = QueryService(_base(), telemetry=_quiet())
        for mutation in schedule:
            a = via_apply.apply(mutation)
            b = _spell(via_names, mutation)
            if mutation.op != "compact":  # results carry wall seconds
                assert a == b
        a, b = via_apply.versioned, via_names.versioned
        assert a.epoch == b.epoch
        assert a.snapshot().logical() == b.snapshot().logical()
        assert a.applied_keys == b.applied_keys

