"""End-to-end wall-clock benchmark: real HTTP through every layer.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload dense_batch --seed 3
    python3 benchmarks/e2e/run.py --workload dense_batch --trace

(or ``PYTHONPATH=src python -m benchmarks.e2e.run ...``).  One run
starts the real ``GatewayHTTPServer`` in a child process, drives the
workload's fixed seeded schedule over loopback from this process,
checks every answer against ``cpu_scan`` and prints each metric by
name with its unit and sample count.  With ``--workload`` the last
stdout line is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics of an untraced pass, or with
``--trace`` the per-layer metrics of a traced pass over the same
schedule.  Exit status is non-zero on any failed op.  See README.md
here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e needs the repro package at {ROOT}/src")
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from benchmarks.e2e import layers, verify  # noqa: E402
from benchmarks.e2e.loadgen import (Connection, Reply,  # noqa: E402
                                    nagle_selftest, run_closed_loop,
                                    wire_bytes)
from benchmarks.e2e.workloads import (API_KEY, WORKLOADS, Op,  # noqa: E402
                                      Schedule, Workload, build)

#: servers set up per untraced run; ``setup_s`` is their median.
SETUPS = 3

Stats = dict[str, layers.Stat]     # metric -> (value, samples)


class Server:
    """One server child: spawn, wait for its ready-line, warm it."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 warmup: list[bytes], *,
                 spans_out: Path | None = None) -> None:
        spawned = time.perf_counter()
        argv = [sys.executable, "-m", "benchmarks.e2e.server",
                "--scenario", workload.scenario, "--seed", str(seed),
                "--backend", workload.backend]
        if workload.backend == "durable":
            # A fresh directory per server: attach refuses old state.
            argv += ["--durability-dir",
                     str(workdir / f"wal-{time.monotonic_ns()}")]
        if spans_out is not None:
            argv += ["--trace", "--spans-out", str(spans_out)]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_SCALE"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before binding")
            self.port = json.loads(line)["port"]
            with Connection(self.port) as conn:
                warm = [Reply(j, 0, *conn.request(w))
                        for j, w in enumerate(warmup)]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - spawned
        #: a warm-up that was not answered 200/ok is a failed op.
        self.warm_payloads = [verify.parse(r) for r in warm]
        self.warm_failures = [
            f"warm-up {r.index}: HTTP {r.status}"
            for r, p in zip(warm, self.warm_payloads) if p is None]

    def get(self, path: str) -> bytes:
        with Connection(self.port) as conn:
            return conn.get(path)

    def rss_peak_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        line = next(x for x in status.splitlines()
                    if x.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0

    def stop(self) -> None:
        """SIGTERM, then wait for the child to have ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def wires_of(ops: list[Op]) -> list[bytes]:
    return [wire_bytes(op.path, op.body, op.headers, api_key=API_KEY)
            for op in ops]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Pass:
    """The schedule driven once against one server: replies, then
    (after the server is gone) parsed payloads and the referee's
    verdict."""

    def __init__(self, schedule: Schedule, server: Server) -> None:
        workload = schedule.workload
        self.ops = schedule.ops + schedule.probes
        self.replies, self.elapsed, self.late_ms = run_closed_loop(
            server.port, wires_of(schedule.ops), workload.connections)
        #: replies[:timed] are the timed ops; probes follow, untimed.
        self.timed = len(self.replies)
        if schedule.probes:
            probes, _, _ = run_closed_loop(
                server.port, wires_of(schedule.probes), 1)
            for reply in probes:
                reply.index += len(schedule.ops)
            self.replies = self.replies + probes
        self.metrics_text = server.get("/metrics").decode()
        self.stats = json.loads(server.get("/stats"))
        self.rss_peak_mb = server.rss_peak_mb()
        self.server = server

    def judge(self, schedule: Schedule, reference: dict | None) -> None:
        self.payloads = [verify.parse(r) for r in self.replies]
        check = verify.check_mixed if schedule.probes \
            else verify.check_read_only
        self.failures = self.server.warm_failures + check(
            schedule, self.ops, self.replies, self.payloads)
        self.failures += verify.check_exact(
            reference, self.payloads[:self.timed])

    @property
    def attempted(self) -> int:
        return len(self.server.warm_payloads) + len(self.replies)

    def rtts(self, *kinds: str) -> list[float]:
        return [r.rtt_ms for r in self.replies[:self.timed]
                if self.ops[r.index].kind in kinds]

    @property
    def ops_per_s(self) -> float:
        ok = sum(r.status == 200 for r in self.replies[:self.timed])
        return ok / self.elapsed


def one_pass(schedule: Schedule, seed: int, workdir: Path,
             reference: dict | None, *,
             spans_out: Path | None = None) -> Pass:
    """Fresh server (traced when ``spans_out`` is given), warm-up, one
    pass, server stopped, referee."""
    server = Server(schedule.workload, seed, workdir,
                    wires_of(schedule.warmup), spans_out=spans_out)
    try:
        run = Pass(schedule, server)
    finally:
        server.stop()
    run.judge(schedule, reference)
    return run


def end_to_end(schedule: Schedule, seed: int, workdir: Path,
               reference: dict | None) -> tuple[Stats, Pass]:
    """The untraced run: one pass over the schedule.  ``setup_s`` is
    the median over ``SETUPS`` servers, of which the last serves the
    pass and the others are set up, warmed and stopped."""
    spares = []
    for _ in range(SETUPS - 1):
        spare = Server(schedule.workload, seed, workdir,
                       wires_of(schedule.warmup))
        spare.stop()
        spares.append(spare)
    run = one_pass(schedule, seed, workdir, reference)
    for spare in spares:
        run.failures += spare.warm_failures
    reads = run.rtts("search")
    return {
        "setup_s": (statistics.median(
            [s.setup_s for s in spares] + [run.server.setup_s]), SETUPS),
        "ops_per_s": (run.ops_per_s, run.timed),
        "read_p50_ms": (statistics.median(reads), len(reads)),
        "rss_peak_mb": (run.rss_peak_mb, 1),
        "modeled_s_per_req": (
            verify.modeled_s_per_req(run.payloads[:run.timed]),
            len(reads)),
    }, run


def per_layer(schedule: Schedule, seed: int, workdir: Path,
              reference: dict | None) -> tuple[Stats, Pass]:
    """The traced run: the same schedule against one traced server."""
    from benchmarks.bench_kernels import CalibrationProbe
    spans_path = HERE / "results" / f"spans-{schedule.workload.name}.json"
    traced = one_pass(schedule, seed, workdir, reference,
                      spans_out=spans_path)
    spans = json.loads(spans_path.read_text())

    ops = traced.ops
    replies = traced.replies[:traced.timed]
    payloads = traced.payloads[:traced.timed]
    reads = traced.rtts("search")
    writes = traced.rtts("ingest", "delete")
    metrics = layers.span_metrics(spans, replies, ops)
    metrics.update(layers.count_metrics(
        replies, payloads, ops, traced.metrics_text, traced.stats))
    metrics["gateway.http.decode_ms"], \
        metrics["gateway.http.encode_ms"] = \
        layers.replay_codec_ms(replies, payloads, ops)
    metrics["gateway.http.rtt_p90_ms"] = (percentile(reads, 0.90),
                                          len(reads))
    metrics["ingest.write_rtt_p50_ms"] = (
        statistics.median(writes) if writes else 0.0, len(writes))
    comparisons, _ = metrics["gpu.kernel.comparisons_per_req"]
    run_ms, _ = metrics["gpu.kernel.run_ms"]
    metrics["gpu.kernel.ns_per_comparison"] = (
        run_ms * 1e6 / comparisons if comparisons else 0.0, len(reads))
    metrics["engines.profile_digest"] = (
        float(verify.profile_digest(payloads)), len(reads))
    warm = [p for p in traced.server.warm_payloads if p is not None]
    metrics["indexes.build_s"] = (
        sum(p["response"]["metrics"]["engine_build_s"] for p in warm),
        len(warm))
    probe = CalibrationProbe()
    for _ in range(3):
        probe.sample()
    metrics["bench.probe_s"] = (probe.best, 3)
    metrics["bench.client_late_ms"] = (
        traced.late_ms, traced.timed - schedule.workload.connections)
    metrics["bench.traced_ops_per_s"] = (traced.ops_per_s, traced.timed)
    return metrics, traced


def run_one(name: str, seed: int, trace: bool, spec: dict,
            reference: dict | None) -> dict:
    """One (workload, mode) run; returns the result object.  ``spec``
    is BENCHMARK.json: the run must yield exactly the metrics it
    declares for the mode, and prints them with its units."""
    workload = WORKLOADS[name]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    schedule = build(workload, seed)
    workdir = HERE / ".work" / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True)
    try:
        metrics, run = (per_layer if trace else end_to_end)(
            schedule, seed, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"-- {name} seed={seed} "
          f"{'per-layer (traced)' if trace else 'end-to-end'}: "
          f"{run.timed} timed ops in {run.elapsed:.2f} s, "
          f"{run.attempted} attempted, {len(run.failures)} failed, "
          f"closed loop on {workload.connections} connection(s)")
    for metric in sorted(metrics):
        value, n = metrics[metric]
        print(f"{metric:38s} {value:16.6g} {units[metric]:6s} n={n}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, (v, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, help="accepted and "
                        "ignored: the benchmark driver passes "
                        "run_seconds, which the fixed op counts in "
                        "workloads.py are sized for")
    parser.add_argument("--out", help="all-workloads mode: write every "
                        "result to this JSON file (the new baseline, "
                        "so it is not held to the committed one)")
    args = parser.parse_args(argv)

    latest = json.loads((HERE / "results" / "latest.json").read_text())
    reference = latest["workloads"] \
        if latest["seed"] == args.seed and not args.out else {}

    echo_ms = nagle_selftest()
    print(f"loopback echo RTT p50 {echo_ms:.4f} ms (< 5 ms: no "
          f"Nagle/delayed-ACK floor)")
    if args.workload:
        result = run_one(args.workload, args.seed, bool(args.trace),
                         spec, reference.get(args.workload))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    everything = {}
    for name in WORKLOADS:
        plain, traced = (run_one(name, args.seed, trace, spec,
                                 reference.get(name))
                         for trace in (False, True))
        # One pair of passes: no better than the box's run-to-run noise.
        overhead = 100.0 * (
            plain["metrics"]["ops_per_s"]["value"]
            / traced["metrics"]["bench.traced_ops_per_s"]["value"] - 1.0)
        print(f"{'bench.trace_overhead_pct':38s} {overhead:16.6g} "
              f"{'%':6s} n=1")
        everything[name] = {"end_to_end": plain, "per_layer": traced,
                            "bench.trace_overhead_pct": overhead}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "workloads": everything},
            indent=1) + "\n")
    correct = all(w[mode]["correct"] for w in everything.values()
                  for mode in ("end_to_end", "per_layer"))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
