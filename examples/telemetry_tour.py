"""The observability layer: span trees, metrics, events, and the
multi-lane trace for a served batch.

One ``submit_batch`` call against a two-device service, then every
view the telemetry hub offers on it:

* the span tree — service → engine → kernel, each span carrying wall
  seconds (what the simulator spent) and modeled seconds (where the
  work sits on the simulated machine's timeline),
* the metrics registry in Prometheus text (request-latency histogram,
  cache hit/miss counters),
* the structured event log as JSON lines,
* the slow-query log (threshold set low enough to catch everything),
* the chrome://tracing export with one track per device lane.

Run:  python examples/telemetry_tour.py
"""

import numpy as np

from repro.data import queries_from_database, random_dense_dataset
from repro.obs import Telemetry, write_service_trace
from repro.service import QueryService, SearchRequest


def show_span(span, depth=0):
    modeled = ("no modeled clock" if span.modeled_dur_s is None
               else f"modeled {span.modeled_dur_s * 1e3:8.3f} ms")
    print(f"  {'  ' * depth}{span.name:<28s} "
          f"wall {span.wall_dur_s * 1e3:8.3f} ms   {modeled}")
    for child in span.children:
        show_span(child, depth + 1)


def main():
    db = random_dense_dataset(scale=0.01)
    rng = np.random.default_rng(7)
    queries = [queries_from_database(db, 4, rng=rng) for _ in range(3)]

    # Catch every request in the slow-query log for the demo.
    telemetry = Telemetry(slow_query_threshold_s=1e-9)
    service = QueryService(db, num_devices=2, telemetry=telemetry)
    responses = service.submit_batch([
        SearchRequest(queries=q, d=0.05, method=m,
                      request_id=f"req-{i}")
        for i, (q, m) in enumerate(zip(
            queries, ("gpu_temporal", "gpu_spatial", "auto")))
    ])

    print("== span tree (one root per submit_batch) ==")
    for root in telemetry.tracer.roots:
        show_span(root)

    print("\n== metrics (Prometheus text, excerpt) ==")
    text = telemetry.metrics.to_prometheus_text()
    for line in text.splitlines():
        if ("repro_cache" in line or "repro_requests_total" in line
                or "latency_seconds_count" in line):
            print(f"  {line}")

    print("\n== structured events (JSON lines) ==")
    for line in telemetry.events.to_jsonl().splitlines():
        print(f"  {line[:76]}{'…' if len(line) > 76 else ''}")

    print(f"\n== {telemetry.slow_log.render()} ==")

    path = write_service_trace(responses, "results/telemetry_tour.json")
    lanes = {s['lane'] for r in responses
             for s in r.metrics.lane_spans}
    print(f"\nchrome://tracing timeline for {len(responses)} requests "
          f"on lanes {sorted(lanes)} -> {path}")

    # Everything above switches off with one constructor argument.
    quiet = QueryService(db, num_devices=2,
                         telemetry=Telemetry(enabled=False))
    quiet.submit(SearchRequest(queries=queries[0], d=0.05))
    print(f"disabled hub after a request: "
          f"{len(quiet.telemetry.tracer.roots)} spans, "
          f"{len(quiet.telemetry.events)} events")


if __name__ == "__main__":
    main()
