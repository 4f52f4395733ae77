"""Traffic census: which public functions does the program's own traffic
call?

Runs, in this one process under ``sys.settrace`` (and
``threading.settrace`` for the threads it starts):

1. the five campaigns (``python -m repro campaign <name> --seed 0``);
2. every CLI subcommand once, on a ``generate random --scale 0.005``
   database in a temporary directory;
3. one request per gateway route (``GET /metrics``, ``GET /stats``,
   ``POST /v1/search``, ``/v1/ingest``, ``/v1/delete``) against an
   in-process :class:`~repro.gateway.http.GatewayHTTPServer`;
4. ``pytest benchmarks -q --benchmark-disable`` — pytest-benchmark
   pauses any tracer while it times a target, so benchmark-only code
   is traced only when the benchmarks run once, untimed;

then prints every public top-level function and every public method of
a top-level class under ``src/repro`` that none of them called.  The
tracer records code objects, not names, so a method is not counted as
called because another class has a same-named one (the blind spot of
``tests/test_public_api.py::test_no_public_name_only_tests_call``).

Usage (from the repository root; a few minutes on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/traffic_census.py

Exit status 1 when a sentinel (benchmark-only code the census must see)
went unrecorded.  Not part of CI: the timing-gated benchmarks fail
under the tracer (they are counted, not fatal), and the ``pytest
benchmarks`` step rewrites ``results/*.txt`` as any benchmark run does.
Code run in child processes (``benchmarks/test_memory_cost.py``'s
build) is not traced.
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import http.client
import io
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: code only benchmarks reach; unrecorded means the tracer was paused.
SENTINELS = ("experiments/sensitivity.py::sensitivity_analysis",
             "engines/hybrid.py::HybridEngine.balanced_split")

_called: set[tuple[str, int]] = set()


def _tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(str(SRC)):
        _called.add((code.co_filename, code.co_firstlineno))
    return None  # no per-line tracing


def public_functions() -> dict[tuple[str, int], str]:
    """``{(file, first line): "path::Qual.name"}`` for every public
    top-level function and public method of a top-level class (the
    first line of a decorated function is its first decorator's, as
    in its code object); abstract methods are left out."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text()).body:
            members = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                members = [(fn, f"{node.name}.{fn.name}")
                           for fn in node.body
                           if isinstance(fn, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))]
            for fn, qualname in members:
                if fn.name.startswith("_") or any(
                        "abstractmethod" in ast.unparse(d)
                        for d in fn.decorator_list):
                    continue
                first = min([fn.lineno]
                            + [d.lineno for d in fn.decorator_list])
                found[(str(path), first)] = f"{where}::{qualname}"
    return found


def _cli(*argv: str) -> int:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return int(exc.code or 0)


def run_campaigns() -> dict[str, int]:
    from repro.campaigns import SCENARIOS
    return {name: _cli("campaign", name, "--seed", "0")
            for name in SCENARIOS}


def run_cli(tmp: Path) -> dict[str, int]:
    db, dur = str(tmp / "db.npz"), str(tmp / "durable")
    results = tmp / "results"
    results.mkdir()
    for txt in (ROOT / "results").glob("*.txt"):
        (results / txt.name).write_text(txt.read_text())
    calls = {
        "generate": ("generate", "random", "--scale", "0.005",
                     "--out", db),
        "info": ("info", db),
        "search": ("search", db, "--d", "2.0", "--verify",
                   "--trace", str(tmp / "search.json")),
        "batch": ("batch", db, "--d", "2.0", "--batches", "2",
                  "--out", str(tmp / "responses.json")),
        "metrics": ("metrics", db, "--d", "2.0", "--batches", "2"),
        "trace": ("trace", db, "--d", "2.0", "--batches", "2",
                  "--out", str(tmp / "trace.json"),
                  "--spans", str(tmp / "spans.json"),
                  "--events", str(tmp / "events.jsonl")),
        "knn": ("knn", db, "--k", "3"),
        "plan": ("plan", db, "--d", "2.0"),
        "stats": ("stats", db),
        "report": ("report", "--results-dir", str(results)),
        "figures": ("figures", "all", "--scale", "0.005"),
        "calibrate": ("calibrate",),
        "shard": ("shard", db, "--d", "2.0", "--batches", "2",
                  "--kill-shard", "0", "--recover"),
        "ingest": ("ingest", db, "--d", "2.0", "--rounds", "3",
                   "--delete-every", "2", "--durable-dir", dur),
        "checkpoint": ("checkpoint", dur),
        "recover": ("recover", dur),
    }
    return {name: _cli(*argv) for name, argv in calls.items()}


def _http(port: int, method: str, path: str, body: dict | None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"X-Api-Key": "census", "Content-Type": "application/json",
               "Connection": "close"}
    conn.request(method, path,
                 body=None if body is None else json.dumps(body),
                 headers=headers)
    response = conn.getresponse()
    response.read()
    conn.close()
    return response.status


async def _serve_routes(db) -> dict[str, int]:
    from repro.data import queries_from_database
    from repro.gateway import Gateway
    from repro.gateway.http import GatewayHTTPServer
    from repro.gateway.tenants import TenantConfig
    from repro.service import QueryService, SearchRequest

    queries = queries_from_database(db, 2)
    fresh = db.take(np.arange(8)).to_dict()
    traj = int(db.traj_ids[0])
    routes = {
        "GET /metrics": ("GET", "/metrics", None),
        "GET /stats": ("GET", "/stats", None),
        "POST /v1/search": ("POST", "/v1/search", SearchRequest(
            queries=queries, d=2.0, method="auto").to_dict()),
        "POST /v1/ingest": ("POST", "/v1/ingest", {"segments": fresh}),
        "POST /v1/delete": ("POST", "/v1/delete", {"traj_id": traj}),
    }
    service = QueryService(db)
    gateway = Gateway(service, [TenantConfig("census", "census",
                                             rate=1e9, burst=1e9)])
    loop = asyncio.get_running_loop()
    statuses = {}
    try:
        async with GatewayHTTPServer(gateway) as server:
            for name, (method, path, body) in routes.items():
                statuses[name] = await loop.run_in_executor(
                    None, _http, server.port, method, path, body)
    finally:
        service.shutdown()
    return statuses


def run_gateway() -> dict[str, int]:
    from repro.data import random_dataset
    return asyncio.run(_serve_routes(random_dataset(scale=0.005)))


def run_benchmarks() -> dict[str, int]:
    import pytest
    os.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["benchmarks", "-q", "--benchmark-disable",
                            "-p", "no:cacheprovider"])
    return {"pytest benchmarks": int(code)}


def main() -> int:
    functions = public_functions()
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    phases = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, run in (("campaigns", run_campaigns),
                               ("cli", lambda: run_cli(Path(tmp))),
                               ("gateway", run_gateway),
                               ("benchmarks", run_benchmarks)):
                t0 = time.perf_counter()
                phases[label] = (run(), time.perf_counter() - t0)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for label, (codes, seconds) in phases.items():
        shown = " ".join(f"{k}={v}" for k, v in codes.items())
        print(f"# {label} ({seconds:.0f} s): {shown}")
    uncalled = sorted(name for key, name in functions.items()
                      if key not in _called)
    print(f"# {len(functions)} public functions under src/repro, "
          f"{len(functions) - len(uncalled)} called, "
          f"{len(uncalled)} not called:")
    for name in uncalled:
        print(name)
    missed = [s for s in SENTINELS if s in uncalled]
    if missed:
        print(f"# sentinel(s) not recorded — tracer paused? {missed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
