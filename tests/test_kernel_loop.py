"""The incremental kernel loop, refereed from outside it.

``GpuEngineBase._search_once`` is the one invoke -> drain -> resubmit
loop all three GPU schemes run.  The per-thread oracle of
``test_batch_equivalence.py`` runs inside it too, so that file cannot
referee it (a wrong transfer order is wrong on both sides), and the e2e
workloads never need a second invocation.
This file holds it to digests captured by running commit 0a6c3ed — the
last tree in which each scheme carried a private copy of the loop —
through :func:`run_case` (``tests/data/make_kernel_loop_golden.py``
wrote ``tests/data/kernel_loop_golden.json``).

One case = one engine instance answering a ``d``-sequence that revisits
a value and is interrupted by a different query-set object, so nothing
an engine could keep between searches may change an answer.  Per case
the digest covers
what a caller, the cost model, the fault injector and a trace can
observe: result arrays in returned order, ``profile.to_dict()`` minus
wall time, the transfer ledger, every fault-hook call, the
``search_retry`` events and the span tree.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray, Trajectory
from repro.engines import (GpuSpatialConfig, GpuSpatialEngine,
                           GpuSpatioTemporalEngine, GpuTemporalEngine,
                           NO_RETRY, RetryPolicy)
from repro.engines import base
from repro.gpu.device import VirtualGPU
from repro.indexes import FlatGrid, SpatioTemporalIndex
from repro.obs import Telemetry
from tests.conftest import make_walk_trajectories

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "kernel_loop_golden.json"

#: each scheme's class and config fields.  Cases build through
#: ``from_config``, a call 0a6c3ed has too, so the golden maker still
#: runs there.
ENGINES = {
    "gpu_temporal": (GpuTemporalEngine, {"num_bins": 40}),
    "gpu_spatiotemporal": (GpuSpatioTemporalEngine, {
        "num_bins": 40, "num_subbins": 2, "strict_subbins": False}),
    "gpu_spatial": (GpuSpatialEngine, {"cells_per_dim": 8}),
}


def build_engine(engine_name: str, db, *, gpu, retry=None, **params):
    cls, fields = ENGINES[engine_name]
    engine = cls.from_config(db, gpu=gpu, **fields, **params)
    if retry is not None:
        engine.retry = retry
    return engine


#: buffer regimes every scheme meets: one invocation; multi-invocation
#: redo; a buffer no query fits, grown by the retry policy or refused.
BUFFERS = {
    "roomy": {"result_buffer_items": 100_000},
    "items37": {"result_buffer_items": 37},
    "items7": {"result_buffer_items": 7},
    "grow": {"result_buffer_items": 1,
             "retry": RetryPolicy(backoff_s=0.01)},
    "refuse": {"result_buffer_items": 1, "retry": NO_RETRY},
}
#: GPUSpatial's candidate buffer ``s`` against a roomy result buffer:
#: light ``U_k`` pressure, resubmitted halves that converge, halves that
#: run into the invocation limit, and a buffer one query overflows.
#: (No retry: growing the *result* buffer cannot help, and the growth
#: would carry over to the next search of the sequence.)
CANDIDATE_BUFFERS = {
    f"cand{s}": {"result_buffer_items": 100_000, "retry": NO_RETRY,
                 "candidate_buffer_items": s}
    for s in (20_000, 2_000, 600, 3)}

D_SEQUENCE = (2.5, 1.0, 4.0, 2.5)

CASES = [(engine, regime, join)
         for engine in ENGINES
         for regime in list(BUFFERS) + (
             list(CANDIDATE_BUFFERS) if engine == "gpu_spatial" else [])
         for join in ("fresh", "selfjoin")]


class FaultSpy:
    """A fault hook that never fires and remembers who asked."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str]] = []

    def check(self, site, *, label="", **_context) -> float:
        self.calls.append((site, label))
        return 1.0


def _database() -> SegmentArray:
    return SegmentArray.from_trajectories(
        make_walk_trajectories(30, 20, seed=42))


def _fresh_queries() -> SegmentArray:
    return SegmentArray.from_trajectories(
        [Trajectory(t.traj_id + 1000, t.times, t.positions)
         for t in make_walk_trajectories(5, 20, seed=99)])


def _sha(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True,
                             default=lambda o: o.item()).encode()
    return hashlib.sha256(payload).hexdigest()[:20]


#: ``engine.search`` attributes younger than the goldens (ISSUE 24: what
#: the reject removed).  Left out of the digest so the 0a6c3ed span
#: trees still compare; ``tests/test_refine_filter.py`` asserts them.
YOUNGER_THAN_GOLDEN = {"pairs_scheduled", "pairs_examined",
                       "pairs_refined"}


def _span_tree(span) -> list:
    return [span.name,
            sorted((k, v) for k, v in span.attributes.items()
                   if k not in YOUNGER_THAN_GOLDEN),
            [_span_tree(child) for child in span.children]]


def _host_index_bytes(index) -> int:
    """``profile.index_bytes`` as the goldens were made: the index's host
    arrays (int64 ids, four bin rows).  It now counts what the engine
    places on the device, which ``tests/test_memory_identity.py`` holds;
    the digest records the host count so the 0a6c3ed profiles still
    compare field for field."""
    if isinstance(index, FlatGrid):
        return (index.cell_ids.nbytes + index.cell_start.nbytes
                + index.cell_end.nbytes + index.lookup.nbytes)
    if isinstance(index, SpatioTemporalIndex):
        return (sum(a.nbytes for a in index.dim_arrays)
                + sum(o.nbytes for o in index.dim_offsets)
                + _host_index_bytes(index.temporal))
    return (index.bin_start.nbytes + index.bin_end.nbytes
            + index.bin_first.nbytes + index.bin_last.nbytes)


def run_case(engine_name: str, regime: str, join: str) -> dict:
    """Everything observable about one engine over the d-sequence, one
    list entry per search, keyed by what observes it."""
    db = _database()
    queries = db if join == "selfjoin" else _fresh_queries()
    # A second query-set object in the middle of the sweep: whatever
    # the engine remembered about `queries` has to be rebuilt after it.
    other = queries.take(np.arange(0, len(queries), 3))
    steps = [(queries, D_SEQUENCE[0]), (queries, D_SEQUENCE[1]),
             (other, D_SEQUENCE[1]),
             (queries, D_SEQUENCE[2]), (queries, D_SEQUENCE[3])]

    spy = FaultSpy()
    params = {**BUFFERS, **CANDIDATE_BUFFERS}[regime]
    engine = build_engine(engine_name, db, gpu=VirtualGPU(faults=spy),
                          **params)
    spy.calls.clear()   # the offline build's allocations are not the loop
    seen: dict[str, list] = {k: [] for k in (
        "results", "profile", "transfers", "faults", "retries", "spans",
        "invocations")}
    for q, d in steps:
        telemetry = Telemetry()
        try:
            with telemetry.activate():
                results, profile = engine.search(
                    q, d, exclude_same_trajectory=join == "selfjoin")
        except Exception as exc:  # noqa: BLE001 - the error is the datum
            seen["results"].append(
                [type(exc).__name__, str(exc),
                 getattr(exc, "required_items", None)])
            seen["profile"].append(None)
            seen["invocations"].append(None)
        else:
            seen["results"].append(_sha(b"".join(
                a.tobytes() for a in (results.q_ids, results.e_ids,
                                      results.t_lo, results.t_hi))))
            record = profile.to_dict()
            del record["wall_seconds"]
            record["index_bytes"] = _host_index_bytes(engine.index)
            seen["profile"].append(record)
            seen["invocations"].append(profile.num_kernel_invocations)
        seen["transfers"].append(
            [(r.direction, r.label, r.nbytes)
             for r in engine.gpu.transfers.records])
        seen["faults"].append(list(spy.calls))
        spy.calls.clear()
        seen["retries"].append(
            [e.fields for e in telemetry.events.of_kind("search_retry")])
        seen["spans"].append(
            [_span_tree(root) for root in telemetry.tracer.roots])
    return seen


def digest(seen: dict) -> dict:
    """The committed form of :func:`run_case`'s record: one hash per
    observer, plus the invocation counts in clear so the file shows
    which cases re-invoke."""
    out = {k: _sha(v) for k, v in seen.items() if k != "invocations"}
    out["invocations"] = seen["invocations"]
    return out


def case_id(case) -> str:
    return "-".join(case)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_same_as_0a6c3ed(case, golden):
    got = digest(run_case(*case))
    want = golden[case_id(case)]
    differing = [k for k in want if got[k] != want[k]]
    assert not differing, (
        f"{case_id(case)}: {differing} differ from commit 0a6c3ed "
        f"(invocations {got['invocations']} vs {want['invocations']})")


def test_the_matrix_exercises_what_it_names(golden):
    """The goldens are only a referee of the redo path if the small
    buffers really re-invoke, grow and refuse."""
    for engine in ENGINES:
        for join in ("fresh", "selfjoin"):
            def inv(regime):
                return golden[f"{engine}-{regime}-{join}"]["invocations"]
            assert inv("roomy") == [1] * 5
            assert max(inv("items37")) > 3 and max(inv("items7")) > 7
            assert inv("refuse") == [None] * 5
            assert None not in inv("grow")
    def spatial(regime, join):
        return golden[f"gpu_spatial-{regime}-{join}"]["invocations"]
    assert min(spatial("cand20000", "selfjoin")[:2]) > 1
    assert max(spatial("cand2000", "fresh")) > 50      # halving converges
    assert None in spatial("cand600", "fresh")         # ... or hits the limit
    assert spatial("cand3", "fresh") == [None] * 5     # one query > s


def test_invocation_limit_never_returns_a_partial_answer(monkeypatch):
    """The one place the loop may differ from 0a6c3ed: there, GPUSpatial
    checked the limit only after an invocation that left a redo list,
    so a last invocation whose halved live set all published returned
    normally with the rest of the pending queries never run (1 of 41
    results at limit 13 below)."""
    db, queries = _database(), _fresh_queries()
    truth = brute_force_search(queries, db, 2.5)
    outcomes = set()
    for limit in (*range(1, 20), 200):     # 101 invocations finish it
        monkeypatch.setattr(base, "MAX_KERNEL_INVOCATIONS", limit)
        engine = GpuSpatialEngine(
            db, GpuSpatialConfig(cells_per_dim=8, candidate_buffer_items=600,
                                 result_buffer_items=100_000),
            retry=NO_RETRY)
        try:
            results, _ = engine.search(queries, 2.5)
        except base.KernelInvocationLimitError:
            outcomes.add("refused")
        else:
            assert results.equivalent_to(truth), limit
            outcomes.add("answered")
    assert outcomes == {"refused", "answered"}

