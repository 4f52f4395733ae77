"""Per-layer metrics: span self times plus exact counts.

Time comes from the traced server's spans (``server.py``): a span's
*self time* is its duration minus the part its children cover, summed
per layer and per request and then averaged over the search requests.
``gateway.http.self_ms`` is the one residual: what is left of the
client's round trip once every span of the request is subtracted —
socket, HTTP parse, JSON, and waiting for the event loop.
``bench.attributed_pct`` is the share of the round trips that spans
cover, residual excluded.  Counts come from the response JSON and the
``/metrics`` exposition, so they do not depend on tracing.

Every function returns ``{metric: (value, sample count)}``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from repro.service import SearchRequest

from benchmarks.e2e.loadgen import Reply
from benchmarks.e2e.workloads import Op

#: span name -> the layer metric its self time is charged to.
READ_LAYERS = {
    "gateway.app.search": "gateway.app.self_ms",
    "sharding.router.submit": "sharding.router.self_ms",
    "service.submit": "service.self_ms",
    "core.planner.plan_search": "core.planner.plan_ms",
    "engines.search": "engines.search_ms",
    "gpu.kernel.run": "gpu.kernel.run_ms",
    "ingest.overlay_search": "ingest.overlay_ms",
    "indexes.build": "indexes.build_in_request_ms",
    "core.result.to_dict": "core.result.to_dict_ms",
    "gateway.http.to_dict": "gateway.http.self_ms",
}


Stat = tuple[float, int]


def _mean(values) -> Stat:
    values = list(values)
    return (statistics.fmean(values) if values else 0.0), len(values)


def self_times(spans: list[dict]) -> list[float]:
    """Self seconds of every span (children are sequential calls, so
    covered time is the sum of child durations)."""
    own = [(s["end"] - s["start"]) if s["end"] is not None else 0.0
           for s in spans]
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_metrics(spans: list[dict], replies: list[Reply],
                 ops: list[Op]) -> dict[str, Stat]:
    """Mean self ms per layer over the search requests, the write-path
    spans per mutation, and the background totals."""
    own = self_times(spans)
    per_request: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    legs: dict[str, list[float]] = defaultdict(list)
    by_name: dict[str, list[float]] = defaultdict(list)
    for s, self_s in zip(spans, own):
        if s["end"] is None:
            continue
        duration = s["end"] - s["start"]
        by_name[s["name"]].append(duration)
        rid = s["request_id"]
        if rid is None:
            continue
        per_request[rid][s["name"]] += self_s
        per_request[rid]["_covered"] += self_s
        if s["name"] == "service.submit" and s["parent"] is not None \
                and spans[s["parent"]]["name"] == \
                "sharding.router.submit":
            legs[rid].append(duration)

    reads = [r for r in replies if ops[r.index].kind == "search"]
    rows: dict[str, list[float]] = defaultdict(list)
    covered_ms = 0.0
    for reply in reads:
        mine = per_request.get(f"op-{reply.index}", {})
        for name, metric in READ_LAYERS.items():
            rows[metric].append(mine.get(name, 0.0) * 1e3)
        # Added to the http row: the residual outside every span.
        rows["gateway.http.self_ms"][-1] += \
            reply.rtt_ms - mine.get("_covered", 0.0) * 1e3
        covered_ms += mine.get("_covered", 0.0) * 1e3
    out = {metric: _mean(values) for metric, values in rows.items()}
    rtts = [r.rtt_ms for r in reads]
    out["bench.traced_read_p50_ms"] = (statistics.median(rtts), len(rtts))
    out["bench.attributed_pct"] = (100.0 * covered_ms / sum(rtts),
                                   len(rtts))

    leg_rows = [legs.get(f"op-{r.index}", []) for r in reads]
    out["sharding.router.leg_ms_sum"] = _mean(
        sum(x) * 1e3 for x in leg_rows)
    out["sharding.router.leg_ms_max"] = _mean(
        max(x, default=0.0) * 1e3 for x in leg_rows)
    out["sharding.router.legs_per_req"] = _mean(
        len(x) for x in leg_rows)

    out["ingest.append_ms"] = _mean(
        x * 1e3 for x in by_name["ingest.append"])
    out["durability.wal_append_ms"] = _mean(
        x * 1e3 for x in by_name["durability.wal_append"])
    for metric, name in (
            ("ingest.compact_s_total", "service.compaction"),
            ("durability.checkpoint_s_total", "durability.checkpoint")):
        out[metric] = (sum(by_name[name]), len(by_name[name]))
    return out


def prometheus_total(text: str, name: str) -> float:
    """Sum of every series of ``name`` in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name)] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def count_metrics(replies: list[Reply], payloads: list[dict | None],
                  ops: list[Op], metrics_text: str, stats: dict
                  ) -> dict[str, Stat]:
    """Exact counts from response JSON, ``/metrics`` and ``/stats``;
    a total read once from the server has sample count 1."""
    searches = [(r, p) for r, p in zip(replies, payloads)
                if ops[r.index].kind == "search" and p is not None]
    n = len(searches)
    per_search = 1.0 / max(1, n)
    results = comparisons = invocations = redo = hits = 0
    delta_rows = 0
    for _, payload in searches:
        response = payload["response"]
        profile = response["outcome"]["profile"]
        results += profile["result_items"]
        hits += bool(response["metrics"]["cache_hit"])
        delta_rows += response["metrics"]["delta_segments"]
        if profile["kind"] == "gpu":
            stats_ = profile["kernel_stats"]
            invocations += len(stats_)
            comparisons += sum(sum(k["thread_work"]) for k in stats_)
            redo += profile["redo_queries"]
        else:
            comparisons += profile["comparisons"]
    total = prometheus_total
    waits = int(total(metrics_text,
                      "repro_gateway_queue_wait_seconds_count"))
    wal_bytes = total(metrics_text, "repro_wal_bytes_total")
    ingests = [ops[r.index].segments for r in replies
               if ops[r.index].kind == "ingest"]
    user_bytes = sum(s.nbytes() for s in ingests)
    return {
        "gateway.http.request_bytes": _mean(
            len(ops[r.index].body) for r, _ in searches),
        "gateway.http.response_bytes": _mean(
            len(r.body) for r, _ in searches),
        "gateway.app.queue_wait_ms": (1e3 * total(
            metrics_text, "repro_gateway_queue_wait_seconds_sum")
            / max(1, waits), waits),
        "gateway.app.refused": (float(stats["rejected"]), 1),
        "service.cache_hit_ratio": (hits * per_search, n),
        "engines.candidates_per_result": (
            comparisons / max(1, results), results),
        "engines.redo_queries": (float(redo), n),
        "gpu.kernel.invocations_per_req": (invocations * per_search, n),
        "gpu.kernel.comparisons_per_req": (comparisons * per_search, n),
        "core.result.results_per_req": (results * per_search, n),
        "ingest.delta_rows_mean": (delta_rows * per_search, n),
        "ingest.compactions": (
            total(metrics_text, "repro_compactions_total"), 1),
        "durability.wal_bytes": (wal_bytes, 1),
        "durability.checkpoints": (
            total(metrics_text, "repro_checkpoints_total"), 1),
        "durability.bytes_per_user_byte": (
            wal_bytes / user_bytes if user_bytes else 0.0,
            len(ingests)),
    }


def replay_codec_ms(replies: list[Reply], payloads: list[dict | None],
                    ops: list[Op], sample: int = 40
                    ) -> tuple[Stat, Stat]:
    """Direct replay, in this process, of what the HTTP layer does to a
    search body (``json.loads`` + ``SearchRequest.from_dict``, a fresh
    decode per call) and to its answer (``json.dumps`` of the response
    dict); mean ms over an evenly spaced sample."""
    searches = [(r, p) for r, p in zip(replies, payloads)
                if ops[r.index].kind == "search" and p is not None]
    picked = searches[::max(1, len(searches) // sample)][:sample]
    decode, encode = [], []
    for reply, payload in picked:
        body = ops[reply.index].body
        t0 = time.perf_counter()
        SearchRequest.from_dict(json.loads(body))
        t1 = time.perf_counter()
        json.dumps(payload)
        t2 = time.perf_counter()
        decode.append((t1 - t0) * 1e3)
        encode.append((t2 - t1) * 1e3)
    return _mean(decode), _mean(encode)
