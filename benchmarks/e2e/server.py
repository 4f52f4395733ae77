"""The server child: the real ``GatewayHTTPServer`` over a public-API
backend, optionally with the benchmark's own spans around each layer.

    python -m benchmarks.e2e.server --scenario S1-random --seed 0 \\
        --backend single|sharded|durable [--durability-dir DIR] \\
        [--trace --spans-out FILE]

Prints one JSON ready-line ``{"port", "setup_s"}`` once bound, serves
until SIGTERM (or until its stdin closes, so it cannot outlive the
benchmark), then shuts the backend down and — under ``--trace`` —
writes the spans it held in memory.

``--trace`` wraps, from this file and before anything is built, the
callables listed in :func:`install_tracing`; ``src/`` is not edited.
A span is ``{name, start, end, parent, request_id}`` on
``time.perf_counter`` (CLOCK_MONOTONIC, shared with the benchmark
process).
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import json
import os
import signal
import sys
import time
from pathlib import Path

from benchmarks.e2e.workloads import API_KEY, SCENARIOS, make_database


class SpanRecorder:
    """In-memory spans; the parent of a span is whatever span is open
    in the calling context, except that a call carrying a request id
    is re-homed under that request's open gateway span (the gateway's
    drain worker runs searches outside the requesting task's context).
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent index | None, request_id | None]``
        self.spans: list[list] = []
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("bench_span", default=None)
        self._open_roots: dict[str, int] = {}

    def _open(self, name: str, request_id: str | None, root: bool):
        parent = self._current.get()
        if request_id is not None:
            request_id = request_id.split("#", 1)[0]  # router leg ids
            if parent is None or self.spans[parent][4] != request_id:
                parent = self._open_roots.get(request_id)
        elif parent is not None:
            request_id = self.spans[parent][4]
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, request_id]
        self.spans.append(span)
        if root and request_id is not None:
            self._open_roots[request_id] = index
        return span, self._current.set(index)

    def _close(self, span: list, token, root: bool) -> None:
        span[2] = time.perf_counter()
        self._current.reset(token)
        if root:
            self._open_roots.pop(span[4], None)

    def wrap(self, owner, attr: str, name: str, request_id=None, *,
             root: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.
        ``request_id(*args, **kwargs)`` extracts the id, if the call
        carries one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        rec = self

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                rid = request_id(*args, **kwargs) if request_id else None
                span, token = rec._open(name, rid, root)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec._close(span, token, root)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rid = request_id(*args, **kwargs) if request_id else None
                span, token = rec._open(name, rid, root)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._close(span, token, root)
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request_id")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dict(zip(keys, s)) for s in self.spans]))


def install_tracing() -> SpanRecorder:
    """Wrap every layer's entry points (see the README's layer table)."""
    from repro.core.search import SearchOutcome
    from repro.durability import DurabilityManager
    from repro.durability.wal import WriteAheadLog
    from repro.engines import SearchEngine, available, get_engine
    from repro.gateway import Gateway
    from repro.gateway.admission import GatewayResponse
    from repro.gpu.kernel import KernelLauncher
    from repro.ingest import VersionedDatabase
    from repro.service import QueryService, scheduler
    from repro.sharding import ShardedService

    rec = SpanRecorder()

    def of_request(_self, request, *a, **k):
        return request.request_id

    def of_kwarg(*a, **k):
        return k.get("request_id") or None

    rec.wrap(Gateway, "search", "gateway.app.search",
             lambda _s, _key, request, **k: request.request_id,
             root=True)
    rec.wrap(Gateway, "ingest", "gateway.app.ingest", of_kwarg,
             root=True)
    rec.wrap(Gateway, "delete", "gateway.app.delete", of_kwarg,
             root=True)
    rec.wrap(GatewayResponse, "to_dict", "gateway.http.to_dict",
             lambda self: self.request_id or None)
    rec.wrap(SearchOutcome, "to_dict", "core.result.to_dict")
    rec.wrap(ShardedService, "submit", "sharding.router.submit",
             of_request)
    rec.wrap(ShardedService, "ingest", "sharding.router.ingest")
    rec.wrap(ShardedService, "delete_trajectory",
             "sharding.router.delete")
    rec.wrap(QueryService, "submit", "service.submit", of_request)
    rec.wrap(QueryService, "ingest", "service.ingest")
    rec.wrap(QueryService, "delete_trajectory", "service.delete")
    # The one non-public callable: auto-compaction (fold + prewarm +
    # checkpoint) has no public entry point on the ingest path.
    rec.wrap(QueryService, "_compact", "service.compaction")
    rec.wrap(scheduler, "plan_search", "core.planner.plan_search")
    rec.wrap(scheduler, "overlay_search", "ingest.overlay_search")
    rec.wrap(SearchEngine, "from_config", "indexes.build")
    wrapped: set[type] = set()
    for engine in available():
        owner = next(c for c in get_engine(engine).__mro__
                     if "search" in c.__dict__)
        if owner not in wrapped:
            wrapped.add(owner)
            rec.wrap(owner, "search", "engines.search")
    rec.wrap(KernelLauncher, "run", "gpu.kernel.run")
    rec.wrap(VersionedDatabase, "append", "ingest.append")
    rec.wrap(VersionedDatabase, "compact", "ingest.compact")
    rec.wrap(WriteAheadLog, "append", "durability.wal_append")
    rec.wrap(DurabilityManager, "checkpoint", "durability.checkpoint")
    return rec


def build_backend(kind: str, database, durability_dir: str | None):
    from repro.service import QueryService
    from repro.sharding import ShardedService
    if kind == "single":
        return QueryService(database)
    if kind == "sharded":
        return ShardedService(database, num_shards=3,
                              replicas_per_shard=2)
    if kind == "durable":
        if not durability_dir:
            raise SystemExit("--backend durable needs --durability-dir")
        return QueryService(database, durability_dir=durability_dir)
    raise SystemExit(f"unknown backend {kind!r}")


async def serve(gateway, started: float) -> None:
    from repro.gateway.http import GatewayHTTPServer
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def parent_gone() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            stop.set()

    loop.add_reader(sys.stdin.fileno(), parent_gone)
    async with GatewayHTTPServer(gateway) as server:
        print(json.dumps({"port": server.port,
                          "setup_s": time.perf_counter() - started}),
              flush=True)
        await stop.wait()


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True,
                        choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--backend", required=True,
                        choices=("single", "sharded", "durable"))
    parser.add_argument("--durability-dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    # The scale is pinned in workloads.SCALE; make sure nothing else
    # in the process can pick a different one up.
    os.environ.pop("REPRO_SCALE", None)

    recorder = install_tracing() if args.trace else None
    from repro.gateway import Gateway
    from repro.gateway.tenants import TenantConfig
    _, database = make_database(args.scenario, args.seed)
    backend = build_backend(args.backend, database, args.durability_dir)
    gateway = Gateway(
        backend, [TenantConfig("bench", API_KEY, rate=1e9, burst=1e9)],
        queue_depth=64)
    try:
        asyncio.run(serve(gateway, started))
    finally:
        backend.shutdown()
        if recorder is not None and args.spans_out:
            recorder.dump(Path(args.spans_out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
