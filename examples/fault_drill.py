"""Fault drill: kill device lane 1 mid-batch and watch the service
absorb it.

A two-lane service warms one GPU engine per lane, then a
:class:`~repro.faults.FaultInjector` blacks out lane 1 partway through
the second batch — the model of a card falling off the bus.  The drill
walks the full recovery arc:

* the in-flight request on lane 1 fails over down the engine ladder and
  still returns a complete (degraded) result, batch after batch,
* the third consecutive failure quarantines lane 1 (and opens the
  engine's circuit breaker); its cached engines are invalidated,
* after the operator "swaps the card" (``injector.revive``) the lane
  re-enters on probation and is readmitted on its first success,

with the telemetry event log narrating every step.

Run:  python examples/fault_drill.py
"""

import numpy as np

from repro.data import queries_from_database, random_dense_dataset
from repro.faults import FaultInjector, FaultSpec
from repro.obs import Telemetry
from repro.service import QueryService, SearchRequest

DRILL_KINDS = ("failover", "degradation", "lane_quarantined",
               "lane_probation", "lane_readmitted", "breaker_open",
               "breaker_closed")


def show_events(telemetry, start=0):
    shown = 0
    for event in list(telemetry.events)[start:]:
        if event.kind not in DRILL_KINDS:
            continue
        fields = ", ".join(f"{k}={v}" for k, v in event.fields.items())
        print(f"    [{event.kind}] {fields[:66]}")
        shown += 1
    if not shown:
        print("    (no resilience events)")
    return len(telemetry.events)


def batch(service, queries, tag):
    responses = service.submit_batch([
        SearchRequest(queries=q, d=0.05, method=m,
                      request_id=f"{tag}-{m}")
        for q, m in zip(queries, ("gpu_temporal", "gpu_spatial"))
    ])
    for resp in responses:
        m = resp.metrics
        note = (f"degraded after {m.failovers} failover hop(s): "
                f"{m.degradation_reason.split(':')[0]}"
                if m.degraded else
                "cache hit" if m.cache_hit else "cold build")
        print(f"  {resp.request_id:<22s} -> {m.engine:<12s} "
              f"{len(resp.outcome.results):4d} results  ({note})")
    return responses


def lane_states(service):
    return {lane: h["state"]
            for lane, h in service.stats()["lane_health"].items()}


def main():
    db = random_dense_dataset(scale=0.01)
    rng = np.random.default_rng(11)
    queries = [queries_from_database(db, 4, rng=rng) for _ in range(2)]

    # Lane 1 dies on its 12th operation: past the first batch's build
    # and search (10 ops), squarely inside the second batch's search.
    injector = FaultInjector(
        [FaultSpec(kind="lane_blackout", lanes=(1,), after=11, count=1)],
        seed=0)
    telemetry = Telemetry()
    service = QueryService(db, num_devices=2, faults=injector,
                           telemetry=telemetry,
                           breaker_reset_s=1e-7,
                           lane_quarantine_s=1e-7)

    print("== batch 1: both lanes healthy, one engine homed per lane ==")
    batch(service, queries, "warm")
    print(f"  lanes: {lane_states(service)}")
    seen = show_events(telemetry)

    # Three strikes quarantine a lane: the card stays dark for three
    # batches, each failing over the request homed on it.
    for strike in (1, 2, 3):
        print(f"\n== batch {strike + 1}: lane 1 is dark "
              f"(strike {strike}) ==")
        batch(service, queries, f"drill{strike}")
        print(f"  lanes: {lane_states(service)}  "
              f"dead: {sorted(injector.dead_lanes)}")
        seen = show_events(telemetry, seen)

    print("\n== operator swaps the card: revive lane 1, run a batch ==")
    injector.revive(1)
    batch(service, queries, "probe")
    print(f"  lanes: {lane_states(service)}")
    seen = show_events(telemetry, seen)

    stats = service.stats()
    print(f"\nsurvived: {stats['num_requests']} requests, "
          f"{stats['degradations']} degraded, "
          f"{stats['cache']['invalidations']} cache entries dropped "
          f"with the lane, 0 lost")


if __name__ == "__main__":
    main()
