"""Traffic census: does the program's own traffic call every public
function?

Runs, in this one process under ``sys.settrace`` (and
``threading.settrace`` for the threads it starts), what CI runs:

1. the campaigns with CI's matrix arguments (:func:`campaign_calls`);
2. every CLI subcommand once, plus ``metrics --format json``, on a
   ``generate random --scale 0.005`` database in a temporary directory
   (:func:`cli_calls`);
3. every gateway route against both backends
   ``benchmarks/e2e/server.py`` serves, a ``QueryService`` and a small
   ``ShardedService``, plus a ``gpu_temporal`` search whose one-item
   result buffer overflows and is retried, and a ``cpu_rtree`` one
   (:func:`gateway_routes`);
4. every ``examples/*.py``, in-process as ``__main__``;

then lists every public top-level function and every public method of
a top-level class under ``src/repro`` that none of them called.  The
tracer records code objects, not names, so a method is not counted as
called because another class has a same-named one (the blind spot of
``tests/test_public_api.py::test_no_public_name_only_tests_call``).

Exit status 1 when a public function outside :data:`KEPT` went
unrecorded, when a :data:`KEPT` name was recorded (its entry is stale),
or when a campaign, CLI call, route or example failed.  So a name that
goes dead fails CI's ``census`` job, which runs (~70 s on 2 vCPUs;
it writes only to a temporary directory)::

    PYTHONPATH=src python benchmarks/traffic_census.py

Code run in a child process is not traced; none of the traffic above
starts one.
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import http.client
import io
import json
import runpy
import shutil
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: public functions no traffic above reaches that stay, each with why.
KEPT = {
    # Reached only by benchmarks: the pytest-benchmark files are not
    # traced (their timing pauses any tracer, and a run rewrites
    # results/), so each names the file that calls it.
    "experiments/asciichart.py::line_chart":
        "draws the figure of benchmarks/test_fig4_random.py (and fig5, "
        "fig6)",
    "experiments/scenarios.py::default_scale":
        "REPRO_SCALE for the scenarios of benchmarks/conftest.py",
    "experiments/sensitivity.py::ProfileSet.price":
        "sensitivity_analysis, for benchmarks/test_ablation_sensitivity.py",
    "experiments/sensitivity.py::SensitivityRow.describe":
        "a row of benchmarks/test_ablation_sensitivity.py's table",
    "experiments/sensitivity.py::collect_profiles":
        "benchmarks/test_ablation_sensitivity.py",
    "experiments/sensitivity.py::crossover_distance":
        "sensitivity_analysis, for benchmarks/test_ablation_sensitivity.py",
    "experiments/sensitivity.py::sensitivity_analysis":
        "benchmarks/test_ablation_sensitivity.py",
    "obs/events.py::EventLog.of_kind":
        "benchmarks/test_compaction_cost.py counts builds and checkpoints",
    "obs/metrics.py::Histogram.sum":
        "benchmarks/test_compaction_cost.py reads the compaction seconds",
    "obs/tracing.py::Span.walk":
        "benchmarks/test_planner_cost.py collects the service.plan spans",
    "obs/tracing.py::Tracer.clear":
        "benchmarks/test_planner_cost.py drops the warm-up's spans",
    # Reached by a process the census cannot trace.
    "core/result.py::ResultSet.from_dict":
        "benchmarks/e2e/verify.py decodes every served answer with it",
    # Inverses of calls the standing campaign makes.
    "service/scheduler.py::QueryService.unregister_subscription":
        "the inverse of register_subscription: a caller that can "
        "subscribe can unsubscribe",
    "standing/manager.py::StandingQueryManager.unregister":
        "the inverse of StandingQueryManager.register, which "
        "unregister_subscription calls",
    # Reached only on a refusal no traffic provokes.
    "sharding/router.py::Replica.name":
        "names the replica in recover_replica's refusals",
}

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


def campaign_calls(tmp: Path) -> dict[str, tuple[str, ...]]:
    """The argv of each campaign run CI's ``campaigns`` job makes at
    seed 0, with its matrix arguments."""
    bench = tmp / "BENCH_gateway.json"
    seed = ("--seed", "0", "--json")
    return {
        "chaos": ("campaign", "chaos", *seed),
        "crash": ("campaign", "crash", *seed, "--crash-on-op", "5"),
        "shards": ("campaign", "shards", *seed),
        "standing": ("campaign", "standing", *seed),
        "standing checkpoint_mid": ("campaign", "standing", *seed,
                                    "--kill-point", "checkpoint_mid"),
        "standing compact_mid": ("campaign", "standing", *seed,
                                 "--kill-point", "compact_mid"),
        # As CI's BENCH_gateway.json step: the text report, not --json.
        "overload": ("campaign", "overload", "--seed", "0",
                     "--bench-out", str(bench)),
    }


def run_campaigns(tmp: Path) -> dict[str, int]:
    # --bench-out rewrites its file: give it a copy.
    shutil.copy(ROOT / "benchmarks" / "BENCH_gateway.json", tmp)
    return {name: _cli(*argv)
            for name, argv in campaign_calls(tmp).items()}


def cli_calls(tmp: Path) -> dict[str, tuple[str, ...]]:
    """The argv of each CLI call, in order (``generate`` first)."""
    db, dur = str(tmp / "db.npz"), str(tmp / "durable")
    return {
        "generate": ("generate", "random", "--scale", "0.005",
                     "--out", db),
        "info": ("info", db),
        "search": ("search", db, "--d", "2.0", "--verify",
                   "--trace", str(tmp / "search.json")),
        "batch": ("batch", db, "--d", "2.0", "--batches", "2",
                  "--out", str(tmp / "responses.json")),
        "metrics": ("metrics", db, "--d", "2.0", "--batches", "2"),
        "metrics json": ("metrics", db, "--d", "2.0", "--batches", "2",
                         "--format", "json"),
        "trace": ("trace", db, "--d", "2.0", "--batches", "2",
                  "--out", str(tmp / "trace.json"),
                  "--spans", str(tmp / "spans.json"),
                  "--events", str(tmp / "events.jsonl")),
        "plan": ("plan", db, "--d", "2.0"),
        "stats": ("stats", db),
        "report": ("report", "--results-dir", str(tmp / "results")),
        "figures": ("figures", "all", "--scale", "0.005"),
        "calibrate": ("calibrate",),
        "shard": ("shard", db, "--d", "2.0", "--batches", "2",
                  "--kill-shard", "0", "--recover"),
        "ingest": ("ingest", db, "--d", "2.0", "--rounds", "3",
                   "--delete-every", "2", "--durable-dir", dur),
        "checkpoint": ("checkpoint", dur),
        "recover": ("recover", dur),
    }


def run_cli(tmp: Path) -> dict[str, int]:
    shutil.copytree(ROOT / "results", tmp / "results")
    return {name: _cli(*argv) for name, argv in cli_calls(tmp).items()}


def gateway_routes(db) -> dict[str, tuple[str, str, dict | None]]:
    """``{name: (method, path, JSON body)}``: every route once, plus a
    search that overflows a one-item result buffer and is retried
    (``grow_result_buffer``, ``RetryPolicy.backoff_for``) and one
    answered by a CPU engine."""
    from repro.data import queries_from_database
    from repro.service import SearchRequest
    queries = queries_from_database(db, 2)
    return {
        "GET /metrics": ("GET", "/metrics", None),
        "GET /stats": ("GET", "/stats", None),
        "POST /v1/search": ("POST", "/v1/search", SearchRequest(
            queries=queries, d=2.0, method="auto").to_dict()),
        "POST /v1/search overflow": ("POST", "/v1/search", SearchRequest(
            queries=queries, d=2.0, method="gpu_temporal",
            params={"result_buffer_items": 1}).to_dict()),
        # A CPU engine's profile on the wire, as sharded_scatter sends.
        "POST /v1/search cpu_rtree": ("POST", "/v1/search", SearchRequest(
            queries=queries, d=2.0, method="cpu_rtree").to_dict()),
        "POST /v1/ingest": ("POST", "/v1/ingest",
                            {"segments": db.take(np.arange(8)).to_dict()}),
        "POST /v1/delete": ("POST", "/v1/delete",
                            {"traj_id": int(db.traj_ids[0])}),
    }


def _http(port: int, method: str, path: str, body: dict | None) -> int:
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


async def _serve_routes(backend, routes) -> dict[str, int]:
    from repro.gateway import Gateway
    from repro.gateway.http import GatewayHTTPServer
    from repro.gateway.tenants import TenantConfig

    gateway = Gateway(backend, [TenantConfig("census", "census",
                                             rate=1e9, burst=1e9)])
    loop = asyncio.get_running_loop()
    statuses = {}
    async with GatewayHTTPServer(gateway) as server:
        for name, (method, path, body) in routes.items():
            statuses[name] = await loop.run_in_executor(
                None, _http, server.port, method, path, body)
    return statuses


def run_gateway() -> dict[str, int]:
    """Every route against each backend; an answer other than 200 is
    a failure (the exit code is ``status != 200``)."""
    from repro.data import random_dataset
    from repro.service import QueryService
    from repro.sharding import ShardedService
    db = random_dataset(scale=0.005)
    routes = gateway_routes(db)
    codes = {}
    for label, backend in (
            ("single", lambda: QueryService(db)),
            ("sharded", lambda: ShardedService(
                db, num_shards=3, replicas_per_shard=2))):
        service = backend()
        try:
            statuses = asyncio.run(_serve_routes(service, routes))
        finally:
            service.shutdown()
        codes.update({f"{label} {name}": int(status != 200)
                      for name, status in statuses.items()})
    return codes


def run_examples() -> dict[str, int]:
    """Each ``examples/*.py`` as ``__main__``; any exception or
    non-zero exit is a failure.  The helper modules (``astro.py``,
    ``gps.py``) run too, doing nothing, and are imported from
    ``examples/`` as when a script runs directly."""
    codes = {}
    sys.path.insert(0, str(EXAMPLES))
    try:
        for script in sorted(EXAMPLES.glob("*.py")):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(script), run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) \
                    else int(exc.code is not None)
            except Exception:  # noqa: BLE001 - reported, then fatal
                traceback.print_exc()
                code = 1
            codes[script.name] = code
    finally:
        sys.path.remove(str(EXAMPLES))
    return codes


def main() -> int:
    functions = public_functions()
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    phases = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, run in (("campaigns", lambda: run_campaigns(
                                    Path(tmp))),
                               ("cli", lambda: run_cli(Path(tmp))),
                               ("gateway", run_gateway),
                               ("examples", run_examples)):
                t0 = time.perf_counter()
                phases[label] = (run(), time.perf_counter() - t0)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    failed = []
    for label, (codes, seconds) in phases.items():
        shown = " ".join(f"{k}={v}" for k, v in codes.items())
        print(f"# {label} ({seconds:.0f} s): {shown}")
        failed += [f"{label}: {k}" for k, v in codes.items() if v]
    uncalled = {name for key, name in functions.items()
                if key not in _called}
    dead = sorted(uncalled - KEPT.keys())
    stale = sorted(KEPT.keys() - uncalled)
    print(f"# {len(functions)} public functions under src/repro, "
          f"{len(functions) - len(uncalled)} called, "
          f"{len(uncalled)} not called ({len(KEPT.keys() & uncalled)} "
          f"of them kept):")
    for name in sorted(KEPT.keys() & uncalled):
        print(f"{name}  # kept: {KEPT[name]}")
    for name in dead:
        print(f"{name}  # DEAD: no traffic calls it")
    for name in stale:
        print(f"{name}  # STALE: kept, but traffic calls it"
              if name in functions.values() else
              f"{name}  # STALE: kept, but no such function")
    for name in failed:
        print(f"# FAILED {name}")
    return int(bool(dead or stale or failed))


if __name__ == "__main__":
    sys.exit(main())
