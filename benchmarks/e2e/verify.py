"""The referee pass: every answer is checked against ``cpu_scan``.

Runs in the benchmark process after the timed phase, over the stored
response bytes.  A reply *fails* when it is not ``200``/``ok``, when
its result set is not ``ResultSet.equivalent_to`` the ``cpu_scan``
answer over the logical database the request saw, or (``mixed_ingest``)
when ``metrics.snapshot_epoch`` goes backwards.  Each distinct
``(queries, d)`` is scanned once per logical database; all replies to
the same body at the same epoch are compared with that one truth, which
also makes them equivalent to each other.  :func:`check_exact` holds
the paper's clock and the op counts to the committed baseline.
"""

from __future__ import annotations

import hashlib
import json
import statistics

import numpy as np

from repro.core.result import ResultSet
from repro.core.types import SegmentArray, concatenate
from repro.engines.cpu_scan import CpuScanEngine

from benchmarks.e2e.loadgen import Reply
from benchmarks.e2e.workloads import Op, Schedule


def parse(reply: Reply) -> dict | None:
    """The reply's JSON payload when it is a 200/``ok`` answer."""
    if reply.status != 200:
        return None
    try:
        payload = json.loads(reply.body)
    except ValueError:
        return None
    return payload if payload.get("status") == "ok" else None


def _results(payload: dict) -> ResultSet:
    return ResultSet.from_dict(payload["response"]["outcome"]["results"])


class _Truth:
    """``cpu_scan`` answers over one logical database, memoised per
    ``(queries, d)`` pair."""

    def __init__(self, database: SegmentArray,
                 memo: dict[int, ResultSet] | None = None) -> None:
        self.engine = CpuScanEngine(database)
        self.memo = {} if memo is None else memo

    def matches(self, schedule: Schedule, op: Op, payload: dict) -> bool:
        body = schedule.bodies[op.body_id]
        truth = self.memo.get(body.truth_id)
        if truth is None:
            truth, _ = self.engine.search(body.queries, body.d)
            self.memo[body.truth_id] = truth
        return _results(payload).equivalent_to(truth)


def check_read_only(schedule: Schedule, ops: list[Op],
                    replies: list[Reply], payloads: list[dict | None]
                    ) -> list[str]:
    """Failure messages, one per failed op (empty = all correct)."""
    # Read-only trials all see the base database: share the scans.
    truth = _Truth(schedule.database, schedule.base_truths)
    failures = []
    for reply, payload in zip(replies, payloads):
        if payload is None:
            failures.append(f"op {reply.index}: HTTP {reply.status}")
        elif not truth.matches(schedule, ops[reply.index], payload):
            failures.append(f"op {reply.index}: differs from cpu_scan")
    return failures


def check_mixed(schedule: Schedule, ops: list[Op],
                replies: list[Reply], payloads: list[dict | None]
                ) -> list[str]:
    """Replay the single-connection op sequence (schedule then probes)
    against a logical database rebuilt from the receipts: every search
    is checked at the epoch it ran, so the trailing probes check the
    final state."""
    parts = [schedule.database]
    tombstones: set[int] = set()
    truth: _Truth | None = None
    last_epoch = -1
    failures = []
    for reply, payload in zip(replies, payloads):
        op = ops[reply.index]
        if payload is None:
            failures.append(f"op {reply.index} ({op.kind}): "
                            f"HTTP {reply.status}")
            continue
        if op.kind == "ingest":
            seg_ids = payload["receipt"]["seg_ids"]
            s = op.segments
            if len(seg_ids) != len(s):
                failures.append(f"op {reply.index}: receipt covers "
                                f"{len(seg_ids)} of {len(s)} segments")
                continue
            parts.append(SegmentArray(
                s.xs, s.ys, s.zs, s.ts, s.xe, s.ye, s.ze, s.te,
                s.traj_ids, np.asarray(seg_ids, dtype=np.int64)))
            truth = None
        elif op.kind == "delete":
            tombstones.add(op.traj_id)
            truth = None
        else:
            epoch = payload["response"]["metrics"]["snapshot_epoch"]
            if epoch < last_epoch:
                failures.append(f"op {reply.index}: snapshot_epoch "
                                f"{epoch} after {last_epoch}")
            last_epoch = max(last_epoch, epoch)
            if truth is None:
                logical = concatenate(parts)
                keep = ~np.isin(logical.traj_ids,
                                np.fromiter(tombstones, np.int64,
                                            len(tombstones)))
                truth = _Truth(logical.take(np.flatnonzero(keep)))
            if not truth.matches(schedule, op, payload):
                failures.append(f"op {reply.index}: differs from "
                                f"cpu_scan at epoch {epoch}")
    return failures


def modeled_s_per_req(payloads: list[dict | None]) -> float:
    """Mean ``metrics.modeled_seconds`` over the answered searches: the
    paper's clock, a function of exact op counts only."""
    modeled = [p["response"]["metrics"]["modeled_seconds"]
               for p in payloads if p is not None and p.get("response")]
    return statistics.fmean(modeled) if modeled else 0.0


def check_exact(reference: dict | None, payloads: list[dict | None]
                ) -> list[str]:
    """``reference`` is this workload's entry of the committed
    ``results/latest.json``, given when the run uses its seed.  Modeled
    seconds and op counts are deterministic for a seed, so any
    difference means the simulation changed, whatever host time did."""
    if reference is None:
        return []
    want = {
        "modeled_s_per_req": reference["end_to_end"]["metrics"]
        ["modeled_s_per_req"]["value"],
        "engines.profile_digest": reference["per_layer"]["metrics"]
        ["engines.profile_digest"]["value"]}
    got = {"modeled_s_per_req": modeled_s_per_req(payloads),
           "engines.profile_digest": float(profile_digest(payloads))}
    return [f"{name} is {got[name]!r} but results/latest.json has "
            f"{want[name]!r} for this seed: the simulation changed"
            for name in want if got[name] != want[name]]


def profile_digest(payloads: list[dict | None]) -> int:
    """SHA-1 over every search's op counts in schedule order, as the
    integer value of its first 48 bits (exact in a float)."""
    sha = hashlib.sha1()
    for payload in payloads:
        response = payload and payload.get("response")
        if not response:
            continue
        profile = response["outcome"]["profile"]
        if profile["kind"] == "gpu":
            counts = [(sum(k["thread_work"]), sum(k["gather_work"]),
                       k["atomic_ops"])
                      for k in profile["kernel_stats"]]
            counts += [profile[f] for f in (
                "schedule_items", "redo_queries", "defaulted_queries",
                "raw_result_items", "result_items", "h2d_bytes",
                "d2h_bytes", "num_transfers")]
        else:
            counts = [profile[f] for f in (
                "node_visits", "comparisons", "result_items")]
        sha.update(repr((profile["engine"], counts)).encode())
    return int(sha.hexdigest()[:12], 16)
