"""Every engine refines its candidates a run of threads at a time, and
the runs are invisible.

``engines.base.refine`` is the one chunk loop of all five engines: a
thread's candidates stay row ranges until the run that solves them, and
a run takes whole threads, at most ``MAX_PAIRS_PER_CHUNK`` candidate
pairs, or one thread's own when it alone holds more.  With that size
patched down to 64 — run boundaries the default size never reaches at
test scale — on the differential harness's databases:

* results, profiles, per-invocation ``KernelStats`` and the
  ``engine.search`` span's pair and node counts are byte-identical to
  the default run;
* no candidate-row array a search builds is longer than max(64, one
  thread's own candidates): every ``core.ranges.expand_ranges`` call the
  engines and indexes make while searching is measured.  The R-tree
  walk's frontier of ``(query, node)`` pairs is not candidate rows.
"""

import sys

import numpy as np
import pytest

from repro.core import distance
from repro.engines import (GpuTemporalConfig, GpuTemporalEngine, NO_RETRY,
                           base, cpu_rtree, cpu_scan, gpu_spatial)
from repro.indexes import rtree, spatiotemporal, temporal
from repro.obs import Telemetry
from tests.test_batch_equivalence import _assert_equivalent
from tests.test_differential import ENGINE_FACTORIES, _make_db, _make_queries

CHUNK = 64
SEEDS = [0, 1, 2]
#: every module that imports ``expand_ranges`` into a search path.
MODULES = (base, cpu_scan, cpu_rtree, gpu_spatial, temporal, spatiotemporal,
           rtree, distance)
SPAN_KEYS = ("pairs_scheduled", "pairs_examined", "pairs_refined",
             "node_visits", "comparisons", "result_items")


def _measured(real, sizes):
    def expand_ranges(starts, lens):
        out = real(starts, lens)
        if sys._getframe(1).f_code.co_name != "_walk":
            sizes.append(out.shape[0])
        return out
    return expand_ranges


def _search(engine, queries, d, exclude):
    """One search with every ``expand_ranges`` output measured:
    ``((result, profile, kernel stats), span counts, sizes)``."""
    sizes = []
    telemetry = Telemetry()
    with pytest.MonkeyPatch.context() as patch:
        for module in MODULES:
            if hasattr(module, "expand_ranges"):
                patch.setattr(module, "expand_ranges",
                              _measured(module.expand_ranges, sizes))
        with telemetry.activate():
            result, profile = engine.search(
                queries, d, exclude_same_trajectory=exclude)
    stats = list(engine.gpu.kernel_stats) if hasattr(engine, "gpu") \
        else None
    attrs = telemetry.tracer.roots[-1].attributes
    return ((result, profile, stats),
            {key: attrs.get(key) for key in SPAN_KEYS}, sizes)


def _largest_thread(engine, queries, d, stats):
    """The most candidates one thread was handed, from the engine's own
    counts: per-thread ``thread_work`` on the device; a query's time
    window (``cpu_scan``) or its overlapping leaf MBBs (``cpu_rtree``:
    every ancestor box covers its leaves') on the host."""
    if stats is not None:
        return max((int(s.thread_work.max(initial=0)) for s in stats),
                   default=0)
    if isinstance(engine, cpu_scan.CpuScanEngine):
        db = engine.database
        reach = (db.te - db.ts).max()
        counts = np.searchsorted(db.ts, queries.te, side="right") \
            - np.searchsorted(db.ts, queries.ts - reach, side="left")
        return int(counts.max(initial=0))
    leaves = engine.index.levels[-1]
    q_lo = np.stack([np.minimum(queries.xs, queries.xe) - d,
                     np.minimum(queries.ys, queries.ye) - d,
                     np.minimum(queries.zs, queries.ze) - d,
                     queries.ts])[:leaves.lo.shape[0]]
    q_hi = np.stack([np.maximum(queries.xs, queries.xe) + d,
                     np.maximum(queries.ys, queries.ye) + d,
                     np.maximum(queries.zs, queries.ze) + d,
                     queries.te])[:leaves.lo.shape[0]]
    overlap = np.all((q_lo[:, :, None] <= leaves.hi[:, None, :])
                     & (leaves.lo[:, None, :] <= q_hi[:, :, None]), axis=0)
    length = leaves.ranges[:, 1] - leaves.ranges[:, 0] + 1
    return int((overlap @ length).max(initial=0))


def _assert_runs_invisible_and_bounded(monkeypatch, build, db, queries, d,
                                       exclude=False):
    engine = build(db)
    default, default_counts, _ = _search(engine, queries, d, exclude)
    engine = build(db)
    with monkeypatch.context() as patch:
        patch.setattr(base, "MAX_PAIRS_PER_CHUNK", CHUNK)
        runs, run_counts, sizes = _search(engine, queries, d, exclude)
    _assert_equivalent(runs, default)
    assert run_counts == default_counts
    bound = max(CHUNK, _largest_thread(engine, queries, d, runs[2]))
    assert sizes and max(sizes) <= bound, (max(sizes), bound)


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [0.0, 0.7, 2.5])
def test_runs_are_invisible_and_bounded(monkeypatch, engine_name, seed, d):
    db = _make_db(seed)
    _assert_runs_invisible_and_bounded(
        monkeypatch, ENGINE_FACTORIES[engine_name], db,
        _make_queries(seed, db), d)


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
def test_self_join_runs_are_invisible_and_bounded(monkeypatch,
                                                  engine_name):
    """Every row a query, own trajectory excluded: more threads than one
    R-tree walk block."""
    db = _make_db(3)
    assert len(db) > rtree._QUERY_BLOCK
    _assert_runs_invisible_and_bounded(
        monkeypatch, ENGINE_FACTORIES[engine_name], db, db, 1.2,
        exclude=True)


def test_redo_runs_are_invisible_and_bounded(monkeypatch):
    """Re-invocations under a tiny result buffer refine runs too."""
    def build(db):
        return GpuTemporalEngine(db, GpuTemporalConfig(
            num_bins=24, result_buffer_items=32), retry=NO_RETRY)

    db = _make_db(1)
    queries = _make_queries(1, db)
    assert build(db).search(queries, 8.0)[1].num_kernel_invocations > 1
    _assert_runs_invisible_and_bounded(monkeypatch, build, db, queries, 8.0)
