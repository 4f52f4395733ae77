"""Telemetry overhead: instrumented vs disabled warm-cache serving.

The observability layer (ISSUE: observability) must be cheap enough to
leave on: on a warm-cache ``submit_batch`` workload — the steady state
a long-lived service spends its life in — the wall-clock cost of full
telemetry (spans, metrics, events) must stay under 5 % of the
uninstrumented run.

The two services run one batch each, alternately, ``REPEATS`` times;
the overhead is the median of the per-pair time ratios.  A batch is
``BATCH_SIZE`` requests, ~18 ms on a shared 2-vCPU box, and telemetry
is ~4 % of it there: a min-of-N estimate swung between -6 % and +13 %
from run to run on that box, while the paired median held at 3-4 %.
"""

import statistics
import time

import numpy as np
import pytest
from .conftest import emit

from repro.data import random_dataset
from repro.obs import Telemetry
from repro.service import QueryService, SearchRequest

METHOD = "gpu_temporal"
PARAMS = {"num_bins": 40}
D = 1.0
BATCH_SIZE = 24
REPEATS = 200
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def workload():
    db = random_dataset(scale=0.05, rng=np.random.default_rng(7))
    rng = np.random.default_rng(123)
    batches = []
    for _ in range(BATCH_SIZE):
        tid = rng.choice(np.unique(db.traj_ids))
        rows = np.flatnonzero(db.traj_ids == tid)[:12]
        batches.append(db.take(rows))
    return db, batches


def _requests(batches):
    return [SearchRequest(queries=q, d=D, method=METHOD,
                          params=dict(PARAMS), request_id=f"r{i}")
            for i, q in enumerate(batches)]


def _timed_batch(service, batches) -> float:
    reqs = _requests(batches)
    t0 = time.perf_counter()
    service.submit_batch(reqs)
    return time.perf_counter() - t0


def test_telemetry_overhead_under_five_percent(workload):
    db, batches = workload

    svc_off = QueryService(db, num_devices=1,
                           telemetry=Telemetry(enabled=False))
    svc_on = QueryService(db, num_devices=1)
    # Warm both caches (and lazy imports) before timing.
    svc_off.submit_batch(_requests(batches))
    svc_on.submit_batch(_requests(batches))

    # Interleave the two services so machine drift (frequency scaling,
    # competing processes) hits both sides of a pair alike; the median
    # pair ratio filters the rest.
    base, instrumented = [], []
    for _ in range(REPEATS):
        base.append(_timed_batch(svc_off, batches))
        instrumented.append(_timed_batch(svc_on, batches))

    # The instrumented service really did record everything.
    assert svc_on.telemetry.tracer.roots
    assert len(svc_on.telemetry.events) >= BATCH_SIZE
    assert svc_on.telemetry.metrics.counter(
        "repro_requests_total").total() > 0
    assert not svc_off.telemetry.tracer.roots

    overhead = statistics.median(
        on / off for off, on in zip(base, instrumented)) - 1.0
    emit("obs_overhead",
         f"telemetry overhead (warm-cache submit_batch of {BATCH_SIZE}, "
         f"median of {REPEATS} interleaved pairs)\n"
         f"  disabled:     {statistics.median(base) * 1e3:9.3f} "
         "ms/batch (median)\n"
         f"  instrumented: {statistics.median(instrumented) * 1e3:9.3f} "
         "ms/batch (median)\n"
         f"  overhead:     {overhead * 100:+7.2f} %  "
         f"(budget {MAX_OVERHEAD * 100:.0f} %)")
    assert overhead < MAX_OVERHEAD
