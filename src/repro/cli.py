"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   build one of the paper's datasets and save it as .npz
info       summarize a saved dataset (sizes, extents, densities)
search     run a distance-threshold search (--verify for an independent
           result check, --trace for a chrome://tracing timeline)
batch      serve repeated query batches through the query service
           (engine cache + planner-driven 'auto' method)
metrics    serve batches and export the service metrics registry
           (Prometheus text or JSON snapshot)
trace      serve batches and export telemetry: a multi-lane
           chrome://tracing timeline, span trees, and the structured
           event log
plan       rank the engines for a workload without running a search
stats      index-statistics report for a dataset
figures    regenerate the paper's figures (series tables) at a scale
report     assemble results/ artifacts into results/REPORT.md
calibrate  re-fit and verify the cost-model constants
campaign   run one seeded failure campaign and print its report:
           chaos (device faults under a request storm), crash (process
           death at every durable-write kill point), shards (replica
           kills and shard blackouts), standing (standing queries
           pinned epoch by epoch across a crash) or overload (a
           many-tenant storm past the gateway's saturation); every
           answer is checked byte for byte against a cpu_scan referee,
           and each scenario's config fields are its flags
shard      serve query batches through a sharded, replicated service
           (scatter-gather merges checked against a whole-database
           referee; --kill-shard demonstrates partial answers and
           --recover the crash-recovery rejoin)
ingest     replay a dataset as a live ingestion stream: part of the
           trajectories seed the base index, the rest arrive in rounds
           interleaved with query batches (delta overlay + compaction)

Examples
--------
python -m repro generate merger --scale 0.01 --out merger.npz
python -m repro info merger.npz
python -m repro search merger.npz --d 1.5 --method gpu_spatiotemporal \\
    --num-bins 1000 --num-subbins 8 --query-trajectories 8
python -m repro batch merger.npz --d 1.5 --batches 8 --method auto \\
    --num-devices 2 --out responses.json
python -m repro metrics merger.npz --d 1.5 --batches 8
python -m repro trace merger.npz --d 1.5 --num-devices 2 \\
    --out trace.json --spans spans.json --events events.jsonl
python -m repro figures fig5 --scale 0.01
python -m repro campaign chaos --seed 7 --num-requests 200 \\
    --injection-rate 0.15
python -m repro campaign crash --seed 7 --crash-on-op 5
python -m repro campaign shards --seed 7 --num-shards 3 --kill-every 11
python -m repro campaign standing --seed 7 --stream-epochs 16 --json
python -m repro campaign overload --seed 7 \\
    --bench-out benchmarks/BENCH_gateway.json
python -m repro shard merger.npz --d 1.5 --shards 3 --replicas 2 \\
    --kill-shard 1 --recover
python -m repro ingest merger.npz --d 1.5 --rounds 6 \\
    --arrivals-per-round 2 --max-delta 256
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
import zipfile

import numpy as np

from .core.search import DistanceThresholdSearch
from .engines import ConfigError, available
from .data.io import load_segments, save_segments
from .data.merger import MergerConfig, merger_dataset
from .data.queries import queries_from_database
from .data.random_walk import random_dataset, random_dense_dataset
from .durability import DurabilityError
from .obs.tracing import TRACES_MAXLEN
from .sharding import PARTITION_STRATEGIES
from .standing import StandingStoreError

__all__ = ["main", "build_parser"]


def _checked(kind: type, test, requirement: str):
    """An argparse ``type=``: parse the flag with ``kind``, then turn a
    value failing ``test`` into a usage error (exit 2) that says
    ``requirement``."""
    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {requirement}")
        return value
    # argparse names the type in its "invalid <name> value" message.
    parse.__name__ = kind.__name__
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
#: a distance threshold: >= 0, and NaN fails the comparison too.
_DISTANCE = _checked(float, lambda v: v >= 0, ">= 0")
_RATE = _checked(float, lambda v: 0 <= v <= 1, "within [0, 1]")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "within (0, 1)")
#: an instance scale relative to the paper, the range REPRO_SCALE takes.
_SCALE = _checked(float, lambda v: 0 < v <= 1, "within (0, 1]")

#: what reading a bad input file raises: the file is missing or
#: unreadable (OSError), is not the format at all (ValueError, EOFError,
#: BadZipFile), or lacks a field or has one of the wrong type (KeyError,
#: TypeError); ValueError also covers a SegmentArray or SearchRequest
#: refusing the values read.
_UNREADABLE = (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError,
               ValueError)


def _read_input(path: str, read):
    """``read(path)``, with a file that cannot be read that way turned
    into a :class:`ConfigError` naming it (exit 2, not a traceback)."""
    try:
        return read(path)
    except _UNREADABLE as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) \
            else f"{type(exc).__name__}: {exc}"
        raise ConfigError(f"cannot read {path}: {what}") from exc


def _load_requests(path: str) -> list:
    """The ``--requests`` file: a JSON list of SearchRequest dicts."""
    from .service import SearchRequest
    with open(path) as fh:
        payload = json.load(fh)
    if not (isinstance(payload, list)
            and all(isinstance(p, dict) for p in payload)):
        raise ValueError("expected a JSON list of SearchRequest objects")
    return [SearchRequest.from_dict(p) for p in payload]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU distance-threshold trajectory search "
                    "(Gowanlock & Casanova 2015 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset -> .npz")
    p.add_argument("dataset",
                   choices=["random", "random-dense", "merger"])
    p.add_argument("--scale", type=_SCALE, default=0.01,
                   help="instance scale relative to the paper, in (0, 1] "
                        "(default 0.01)")
    p.add_argument("--out", required=True, help="output .npz path")

    p = sub.add_parser("info", help="summarize a saved dataset")
    p.add_argument("path")

    p = sub.add_parser("search", help="run a distance-threshold search")
    _add_search_args(p)
    p.add_argument("--d", type=_DISTANCE, required=True,
                   help="query distance threshold")
    p.add_argument("--show", type=int, default=5,
                   help="print the first N result items")
    p.add_argument("--verify", action="store_true",
                   help="independently verify the result set")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON of the modeled "
                        "timeline (GPU engines only)")

    p = sub.add_parser(
        "batch", help="serve repeated query batches through the "
                      "query service")
    _add_batch_args(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write all responses as JSON")

    p = sub.add_parser(
        "metrics", help="serve batches and export the service "
                        "metrics registry")
    _add_batch_args(p)
    p.add_argument("--format", choices=["prometheus", "json"],
                   default="prometheus",
                   help="exposition format (default: prometheus text)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the exposition to a file instead of "
                        "stdout")

    p = sub.add_parser(
        "trace", help="serve batches and export telemetry (chrome "
                      "trace, span trees, event log)")
    _add_batch_args(p)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="chrome://tracing JSON of the batch across "
                        "device lanes")
    p.add_argument("--spans", default=None, metavar="PATH",
                   help="write the span trees the tracer holds (the "
                        f"newest {TRACES_MAXLEN:,}) as JSON")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="write the structured event log as JSON lines")
    p.add_argument("--slow-ms", type=float, default=1000.0,
                   help="slow-query threshold in modeled milliseconds "
                        "(default 1000)")

    p = sub.add_parser("plan", help="rank engines for a workload")
    _add_search_args(p)
    p.add_argument("--d", type=_DISTANCE, required=True)

    p = sub.add_parser("stats", help="index statistics for a dataset")
    p.add_argument("database")
    p.add_argument("--num-bins", type=_POSITIVE_INT, default=1000)
    p.add_argument("--num-subbins", type=_POSITIVE_INT, default=4)
    p.add_argument("--cells-per-dim", type=_POSITIVE_INT, default=50)
    p.add_argument("--segments-per-mbb", type=_POSITIVE_INT, default=4)

    p = sub.add_parser("report",
                       help="assemble results/ into results/REPORT.md")
    p.add_argument("--results-dir", default="results")

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("which",
                   choices=["fig4", "fig5", "fig6", "fig7", "all"])
    p.add_argument("--scale", type=_SCALE, default=None,
                   help="override REPRO_SCALE for this run, in (0, 1]")

    sub.add_parser("calibrate",
                   help="re-fit and verify cost-model constants")

    _add_campaign_parsers(sub)

    p = sub.add_parser(
        "shard", help="serve query batches through a sharded, "
                      "replicated service with scatter-gather merges")
    p.add_argument("database", help=".npz produced by 'generate'")
    p.add_argument("--d", type=_DISTANCE, required=True,
                   help="query distance threshold")
    p.add_argument("--shards", type=_POSITIVE_INT, default=3,
                   help="number of shards (default 3)")
    p.add_argument("--replicas", type=_POSITIVE_INT, default=2,
                   help="replicas per shard (default 2)")
    p.add_argument("--strategy", default="round_robin",
                   choices=list(PARTITION_STRATEGIES),
                   help="partition strategy (default round_robin)")
    p.add_argument("--batches", type=_POSITIVE_INT, default=6,
                   help="query batches to serve (default 6)")
    p.add_argument("--method", default="auto",
                   choices=list(available()) + ["auto"],
                   help="engine, or 'auto' for planner-driven "
                        "selection")
    p.add_argument("--query-trajectories", type=_POSITIVE_INT, default=4,
                   help="trajectories sampled as the repeated query "
                        "batch (default 4)")
    p.add_argument("--kill-shard", type=int, default=None, metavar="S",
                   help="black out shard S halfway through the "
                        "batches (demonstrates partial answers)")
    p.add_argument("--recover", action="store_true",
                   help="crash-recover the blacked-out shard after "
                        "the batches and verify exactness returns")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="root for per-replica WAL + checkpoints "
                        "(shard-<i>/replica-<r>); default: in-memory "
                        "replicas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the run summary as JSON instead of the "
                        "rendered report")

    p = sub.add_parser(
        "ingest", help="replay a dataset as a live ingestion stream "
                       "against the query service")
    p.add_argument("database", help=".npz produced by 'generate'")
    p.add_argument("--d", type=_DISTANCE, required=True,
                   help="query distance threshold")
    p.add_argument("--method", default="auto",
                   choices=list(available()) + ["auto"],
                   help="engine, or 'auto' for planner-driven "
                        "selection")
    p.add_argument("--rounds", type=_POSITIVE_INT, default=6,
                   help="ingest+query rounds to drive (default 6)")
    p.add_argument("--arrivals-per-round", type=_POSITIVE_INT, default=2,
                   help="trajectories ingested per round (default 2)")
    p.add_argument("--initial-fraction", type=_FRACTION, default=0.6,
                   help="fraction of trajectories seeding the base "
                        "index; the rest arrive as the stream "
                        "(default 0.6)")
    p.add_argument("--delete-every", type=_NON_NEGATIVE_INT, default=0,
                   help="tombstone the oldest ingested trajectory "
                        "every Nth round (0 = never)")
    p.add_argument("--max-delta", type=_POSITIVE_INT, default=None,
                   help="compaction trigger: delta rows before the "
                        "service folds the delta into a fresh base "
                        "(default: the policy default)")
    p.add_argument("--num-devices", type=_POSITIVE_INT, default=1,
                   help="size of the simulated GPU pool")
    p.add_argument("--query-trajectories", type=_POSITIVE_INT, default=4,
                   help="trajectories sampled as the repeated query "
                        "batch (default 4)")
    p.add_argument("--rate", type=_RATE, default=0.0,
                   help="fault-injection rate for a chaos-flavoured "
                        "run (0 = no faults; faults can then fire "
                        "mid-compaction)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the final stats as JSON instead of the "
                        "rendered summary")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="make the run durable: WAL every mutation "
                        "into DIR and checkpoint periodically, so a "
                        "crash is recoverable with 'repro recover'")

    p = sub.add_parser(
        "checkpoint", help="force a durable checkpoint of a "
                           "durability directory")
    p.add_argument("dir", help="durability directory (as passed to "
                               "'ingest --durable-dir')")
    p.add_argument("--database", default=None, metavar="NPZ",
                   help="bootstrap: attach this dataset as a new "
                        "durable database (the directory must be "
                        "empty of durable state)")
    p.add_argument("--json", action="store_true",
                   help="emit stats as JSON instead of a summary")

    p = sub.add_parser(
        "recover", help="rebuild a service from a durability "
                        "directory and report the recovery")
    p.add_argument("dir", help="durability directory to recover")
    p.add_argument("--checkpoint", action="store_true",
                   help="write a fresh checkpoint after recovery "
                        "(folds the replayed WAL tail in)")
    p.add_argument("--json", action="store_true",
                   help="emit the recovery summary as JSON")
    return parser


def _add_campaign_parsers(sub) -> None:
    """``campaign <name>``: one sub-subcommand per scenario, its flags
    generated from the scenario's config fields."""
    from .campaigns import SCENARIOS

    p = sub.add_parser(
        "campaign", help="run a seeded failure campaign (chaos, crash, "
                         "shards, standing, overload), every answer "
                         "refereed byte for byte against cpu_scan")
    names = p.add_subparsers(dest="name", required=True)
    for name, (config_cls, _run) in SCENARIOS.items():
        doc = sys.modules[config_cls.__module__].__doc__
        q = names.add_parser(
            name, help=doc.partition("\n")[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog=inspect.getdoc(config_cls))
        hints = typing.get_type_hints(config_cls)
        for f in dataclasses.fields(config_cls):
            flag = "--" + f.name.replace("_", "-")
            hint = hints[f.name]
            # ``int | None`` parses as int; a plain type as itself.
            kind = [t for t in typing.get_args(hint) or (hint,)
                    if t is not type(None)][0]
            if kind is bool:
                q.add_argument(flag, default=f.default,
                               action=argparse.BooleanOptionalAction)
            elif typing.get_origin(hint) is tuple:
                q.add_argument(flag, nargs="+", default=f.default,
                               help=f"default: {' '.join(f.default)}")
            else:
                q.add_argument(flag, type=kind, default=f.default,
                               help=f"default: {f.default}")
        q.add_argument("--json", action="store_true",
                       help="emit the full report as JSON instead of "
                            "the rendered table")
        if name == "overload":
            q.add_argument("--bench-out", default=None, metavar="PATH",
                           help="merge this run's modeled latency/"
                                "outcome entry (keyed by seed) into a "
                                "benchmark JSON file")
        q.set_defaults(parser=q)


def _add_batch_args(p: argparse.ArgumentParser) -> None:
    """Arguments shared by the service-driving subcommands
    (``batch`` / ``metrics`` / ``trace``)."""
    p.add_argument("database", help=".npz produced by 'generate'")
    p.add_argument("--d", type=_DISTANCE, default=None,
                   help="query distance threshold (required unless "
                        "--requests supplies per-request values)")
    p.add_argument("--batches", type=_POSITIVE_INT, default=8,
                   help="number of query batches to synthesize "
                        "(default 8); ignored with --requests")
    p.add_argument("--requests", default=None, metavar="PATH",
                   help="JSON file with a list of SearchRequest dicts "
                        "(overrides batch synthesis)")
    p.add_argument("--method", default="auto",
                   choices=list(available()) + ["auto"],
                   help="engine, or 'auto' for planner-driven selection")
    p.add_argument("--num-devices", type=_POSITIVE_INT, default=1,
                   help="size of the simulated GPU pool")
    p.add_argument("--query-trajectories", type=_POSITIVE_INT, default=4,
                   help="trajectories sampled per synthesized batch")
    p.add_argument("--num-bins", type=_POSITIVE_INT, default=1000)
    p.add_argument("--num-subbins", type=_POSITIVE_INT, default=4)
    p.add_argument("--cells-per-dim", type=_POSITIVE_INT, default=50)
    p.add_argument("--segments-per-mbb", type=_POSITIVE_INT, default=4)
    p.add_argument("--seed", type=int, default=0)


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("database", help=".npz produced by 'generate'")
    p.add_argument("--method", default="gpu_spatiotemporal",
                   choices=list(available()))
    p.add_argument("--queries", default=None,
                   help=".npz query set (default: sample from the "
                        "database)")
    p.add_argument("--query-trajectories", type=_POSITIVE_INT, default=4,
                   help="trajectories to sample as queries when no "
                        "--queries file is given")
    p.add_argument("--num-bins", type=_POSITIVE_INT, default=1000)
    p.add_argument("--num-subbins", type=_POSITIVE_INT, default=4)
    p.add_argument("--cells-per-dim", type=_POSITIVE_INT, default=50)
    p.add_argument("--segments-per-mbb", type=_POSITIVE_INT, default=4)
    p.add_argument("--exclude-same-trajectory", action="store_true")
    p.add_argument("--seed", type=int, default=0)


def _sample_queries(args: argparse.Namespace, database, seed: int):
    """``--query-trajectories`` whole trajectories of ``database`` as a
    query set; asking for more than it holds is a usage error."""
    wanted, held = args.query_trajectories, database.num_trajectories
    if wanted > held:
        raise ConfigError(f"--query-trajectories {wanted} exceeds the "
                          f"{held} trajectories in {args.database}")
    return queries_from_database(database, wanted,
                                 rng=np.random.default_rng(seed))


def _load_workload(args: argparse.Namespace):
    database = _read_input(args.database, load_segments)
    if args.queries:
        queries = _read_input(args.queries, load_segments)
    else:
        queries = _sample_queries(args, database, args.seed)
    return database, queries


def cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "random":
        db = random_dataset(scale=args.scale)
    elif args.dataset == "random-dense":
        db = random_dense_dataset(scale=args.scale)
    else:
        n = max(1, int(round(65_536 * args.scale)))
        db = merger_dataset(cfg=MergerConfig(particles_per_disk=n))
    save_segments(args.out, db)
    print(f"wrote {args.out}: {len(db)} segments, "
          f"{db.num_trajectories} trajectories")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    db = _read_input(args.path, load_segments)
    mins, maxs = db.spatial_bounds()
    t_lo, t_hi = db.temporal_extent
    ext = db.max_spatial_extent()
    print(f"{args.path}")
    print(f"  segments:        {len(db)}")
    print(f"  trajectories:    {db.num_trajectories}")
    print(f"  spatial bounds:  {np.round(mins, 3)} .. "
          f"{np.round(maxs, 3)}")
    print(f"  temporal extent: [{t_lo:.3f}, {t_hi:.3f}]")
    print(f"  max segment spatial extent per dim: {np.round(ext, 4)}")
    print(f"  device footprint: {db.nbytes() / (1 << 20):.1f} MiB")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    database, queries = _load_workload(args)
    search = DistanceThresholdSearch(database, method=args.method,
                                     **_batch_params(args))
    outcome = search.run(
        queries, args.d,
        exclude_same_trajectory=args.exclude_same_trajectory)
    rs = outcome.results
    print(f"engine {args.method}: {len(rs)} results for "
          f"{len(queries)} query segments at d = {args.d}")
    print(f"modeled response time: {outcome.modeled_seconds:.6f} s "
          f"(compute {outcome.modeled.compute:.6f}, transfers "
          f"{outcome.modeled.transfers:.6f})")
    prof = outcome.profile
    if hasattr(prof, "num_kernel_invocations"):
        print(f"kernel invocations: {prof.num_kernel_invocations}, "
              f"comparisons: {prof.total_comparisons}, "
              f"divergence: {prof.divergence_factor():.2f}")
    for i in range(min(args.show, len(rs))):
        print(f"  q{rs.q_ids[i]} ~ e{rs.e_ids[i]} during "
              f"[{rs.t_lo[i]:.4f}, {rs.t_hi[i]:.4f}]")
    if args.trace:
        from .gpu.profiler import SearchProfile
        if isinstance(prof, SearchProfile):
            from .gpu.trace import write_trace
            path = write_trace(prof, args.trace)
            print(f"trace written to {path}")
        else:
            print("--trace requires a GPU engine; skipped")
    if args.verify:
        from .core.verify import verify_results
        report = verify_results(
            rs, queries, search.engine.database, args.d,
            exclude_same_trajectory=args.exclude_same_trajectory)
        print(f"verification: "
              f"{'PASS' if report.ok else 'FAIL'} "
              f"({report.items_checked} items, "
              f"{report.pairs_spot_checked} spot pairs)")
        if not report.ok:
            return 1
    return 0


def _batch_requests(args: argparse.Namespace, database):
    """Load or synthesize the request list for the service commands."""
    from .service import SearchRequest

    if args.requests:
        return _read_input(args.requests, _load_requests)
    if args.d is None:
        print(f"repro {args.command}: error: --d is required when "
              f"synthesizing batches (no --requests)", file=sys.stderr)
        return None
    # Repeated batches over the same database: the workload the
    # engine cache exists for.
    params = {} if args.method == "auto" else _batch_params(args)
    requests = []
    for i in range(args.batches):
        queries = _sample_queries(args, database, args.seed + i)
        requests.append(SearchRequest(
            queries=queries, d=args.d, method=args.method,
            params=params, request_id=f"batch-{i}"))
    return requests


def _run_service(args: argparse.Namespace, telemetry=None):
    """Build the service, serve the batches, return both (or None on a
    usage error already reported to stderr)."""
    from .service import QueryService

    database = _read_input(args.database, load_segments)
    requests = _batch_requests(args, database)
    if requests is None:
        return None, None
    service = QueryService(database, num_devices=args.num_devices,
                           telemetry=telemetry)
    responses = [service.submit(req) for req in requests]
    return service, responses


def cmd_batch(args: argparse.Namespace) -> int:
    service, responses = _run_service(args)
    if service is None:
        return 2
    for resp in responses:
        m = resp.metrics
        if not resp.ok:
            print(f"{resp.request_id or '-':>10s}  "
                  f"{'rejected: ' + resp.status:18s} "
                  f"{'-':>6s} results  wait {m.queue_wait_s:.6f} s")
            continue
        flags = []
        if m.cache_hit:
            flags.append("cache-hit")
        if m.degraded:
            flags.append(f"degraded({m.degradation_reason.split(':')[0]})")
        print(f"{resp.request_id or '-':>10s}  {m.engine:18s} "
              f"{len(resp.outcome.results):6d} results  "
              f"modeled {m.modeled_seconds:.6f} s  "
              f"wait {m.queue_wait_s:.6f} s"
              f"{'  [' + ', '.join(flags) + ']' if flags else ''}")
    stats = service.stats()
    cache = stats["cache"]
    print(f"served {stats['num_requests']} batches on "
          f"{stats['num_devices']} device(s): cache {cache['hits']} "
          f"hits / {cache['misses']} misses / {cache['evictions']} "
          f"evictions, {stats['degradations']} degradations, "
          f"modeled makespan {stats['clock_s']:.6f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_dict() for r in responses], fh)
        print(f"responses written to {args.out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    service, _responses = _run_service(args)
    if service is None:
        return 2
    registry = service.telemetry.metrics
    if args.format == "json":
        text = json.dumps(registry.snapshot(), indent=2)
    else:
        text = registry.to_prometheus_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"metrics written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Telemetry, write_service_trace

    telemetry = Telemetry(slow_query_threshold_s=args.slow_ms / 1e3)
    service, responses = _run_service(args, telemetry=telemetry)
    if service is None:
        return 2
    path = write_service_trace(responses, args.out)
    print(f"chrome trace written to {path} "
          f"({len(responses)} requests, "
          f"{service.pool.num_devices} lanes)")
    if args.spans:
        tracer = telemetry.tracer
        with open(args.spans, "w") as fh:
            json.dump([s.to_dict() for s in tracer.roots], fh)
        print(f"span trees written to {args.spans} "
              f"({len(tracer.roots)} trees, {tracer.dropped_roots} "
              f"dropped by the ring)")
    if args.events:
        telemetry.events.write_jsonl(args.events)
        print(f"event log written to {args.events} "
              f"({len(telemetry.events)} events)")
    if len(telemetry.slow_log):
        print(telemetry.slow_log.render())
    return 0


def _batch_params(args: argparse.Namespace) -> dict:
    if args.method == "gpu_temporal":
        return {"num_bins": args.num_bins}
    if args.method == "gpu_spatiotemporal":
        return {"num_bins": args.num_bins,
                "num_subbins": args.num_subbins,
                "strict_subbins": False}
    if args.method == "gpu_spatial":
        return {"cells_per_dim": args.cells_per_dim}
    if args.method == "cpu_rtree":
        return {"segments_per_mbb": args.segments_per_mbb}
    return {}


def cmd_plan(args: argparse.Namespace) -> int:
    from .core.planner import plan_search
    from .service import QueryService
    database, queries = _load_workload(args)
    # Plan with the sample ``method="auto"`` serves with, so the
    # ranking printed here is the one the service acts on.
    try:
        plans = plan_search(database, queries, args.d,
                            num_bins=args.num_bins,
                            num_subbins=args.num_subbins,
                            cells_per_dim=args.cells_per_dim,
                            segments_per_mbb=args.segments_per_mbb,
                            sample=QueryService.PLANNER_SAMPLE)
    except ValueError as exc:   # a threshold the planner refuses
        raise ConfigError(str(exc)) from exc
    print(f"engine ranking for |D|={len(database)}, "
          f"|Q|={len(queries)}, d={args.d}:")
    for rank, p in enumerate(plans, 1):
        print(f"  {rank}. {p.engine:20s} ~{p.est_seconds:.6f} s "
              f"(~{p.est_candidates_per_query:.0f} candidates/query)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .indexes import (FlatGrid, RTree, SpatioTemporalIndex,
                          TemporalIndex, describe)
    db = _read_input(args.database, load_segments)
    grid = FlatGrid.build(db, args.cells_per_dim)
    print("FSG:", describe(grid, db))
    print("Temporal:", describe(TemporalIndex.build(db, args.num_bins)))
    print("SpatioTemporal:", describe(SpatioTemporalIndex.build(
        db, args.num_bins, args.num_subbins, strict=False)))
    print("RTree:", describe(RTree.build(
        db, segments_per_mbb=args.segments_per_mbb)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments.paper_report import write_report
    path = write_report(args.results_dir)
    print(f"wrote {path}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import (fig4_random, fig5_merger,
                              fig6_random_dense, fig7_ratios,
                              records_to_series, series_table)
    wanted = (["fig4", "fig5", "fig6", "fig7"] if args.which == "all"
              else [args.which])
    for which in wanted:
        if which == "fig7":
            ratios = fig7_ratios(args.scale)
            print("Fig. 7 — GPU/CPU response-time ratios")
            for scen, rows in ratios.items():
                for d, eng, ratio in rows:
                    print(f"  {scen:18s} d={d:<8g} {eng:20s} "
                          f"{ratio:6.2f}x")
            continue
        fn = {"fig4": fig4_random, "fig5": fig5_merger,
              "fig6": fig6_random_dense}[which]
        records = fn(args.scale)
        d, series = records_to_series(records)
        print(series_table(f"{which} (modeled seconds)", d, series))
        print()
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .experiments.calibration import (PAPER_ANCHORS, fit_cpu_cycles,
                                          fit_gpu_cycles,
                                          verify_calibration)
    gpu = fit_gpu_cycles([PAPER_ANCHORS["gpu_temporal_merger_d0.001"],
                          PAPER_ANCHORS["gpu_st_v1_merger_equiv"]])
    cpu = fit_cpu_cycles([PAPER_ANCHORS["cpu_rtree_merger_d0.001"]])
    print("fitted GPU cycle costs:", {k: round(v, 1)
                                      for k, v in gpu.cycles.items()})
    print("fitted CPU cycle costs:", {k: round(v, 1)
                                      for k, v in cpu.cycles.items()})
    errors = verify_calibration()
    print("shipped-constant residuals vs paper anchors:")
    for name, err in errors.items():
        print(f"  {name:32s} {100 * err:+6.1f} %")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import pathlib

    from .campaigns import SCENARIOS

    config_cls, run = SCENARIOS[args.name]
    values = {}
    for f in dataclasses.fields(config_cls):
        value = getattr(args, f.name)
        # nargs="+" collects a list; the configs hold tuples.
        values[f.name] = (tuple(value) if isinstance(value, list)
                          else value)
    try:
        config = config_cls(**values)
    except ValueError as exc:
        args.parser.error(str(exc))
    report = run(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if getattr(args, "bench_out", None):
        path = pathlib.Path(args.bench_out)
        bench: dict = {"benchmark": "gateway_overload", "entries": []}
        if path.exists():
            bench = json.loads(path.read_text())
        entry = report.bench_entry()
        entries = [e for e in bench.get("entries", [])
                   if e.get("seed") != entry["seed"]]
        entries.append(entry)
        bench["entries"] = sorted(entries, key=lambda e: e["seed"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"bench entry (seed {entry['seed']}) merged into {path}")
    return 0 if report.ok else 1


def cmd_shard(args: argparse.Namespace) -> int:
    from .campaigns.harness import result_bytes
    from .engines.cpu_scan import CpuScanEngine
    from .service import SearchRequest
    from .sharding import ShardedService

    if args.kill_shard is not None \
            and not 0 <= args.kill_shard < args.shards:
        raise ConfigError(f"--kill-shard {args.kill_shard} is outside "
                          f"[0, {args.shards})")
    database = _read_input(args.database, load_segments)
    queries = _sample_queries(args, database, args.seed)
    truth = result_bytes(
        CpuScanEngine(database).search(queries, args.d)[0])
    kill_at = (args.batches // 2
               if args.kill_shard is not None else None)
    summary: dict = {
        "layout": None, "statuses": {}, "exact": 0,
        "partial": 0, "killed": 0, "recovered": 0,
        "final_exact": None,
    }
    with ShardedService(database, num_shards=args.shards,
                        replicas_per_shard=args.replicas,
                        strategy=args.strategy,
                        durability_root=args.durable_dir) as svc:
        summary["layout"] = svc.plan.describe()
        for i in range(args.batches):
            if kill_at is not None and i == kill_at:
                summary["killed"] = svc.blackout_shard(
                    args.kill_shard)
            resp = svc.submit(SearchRequest(
                queries=queries, d=args.d, method=args.method,
                request_id=f"b{i:03d}"))
            summary["statuses"][resp.status] = \
                summary["statuses"].get(resp.status, 0) + 1
            if resp.status == "ok":
                if result_bytes(resp.outcome.results) == truth:
                    summary["exact"] += 1
            elif resp.status == "partial":
                summary["partial"] += 1
        if args.recover and args.kill_shard is not None:
            shard = svc.shards[args.kill_shard]
            for replica in shard.replicas:
                if not replica.live:
                    svc.recover_replica(args.kill_shard,
                                        replica.index)
                    summary["recovered"] += 1
            resp = svc.submit(SearchRequest(
                queries=queries, d=args.d, method=args.method,
                request_id="final"))
            summary["final_exact"] = bool(
                resp.ok
                and result_bytes(resp.outcome.results) == truth)
        summary["stats"] = svc.stats()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        lay = summary["layout"]
        print(f"sharded service: {lay['num_shards']} shards "
              f"x {args.replicas} replicas ({lay['strategy']})")
        print(f"  segments per shard  {lay['shard_segments']}")
        print(f"  batches served      {summary['statuses']}")
        print(f"  exact full answers  {summary['exact']}")
        if args.kill_shard is not None:
            print(f"  shard {args.kill_shard} blacked out: "
                  f"{summary['killed']} replicas killed, "
                  f"{summary['partial']} partial answers")
        if summary["final_exact"] is not None:
            state = "exact" if summary["final_exact"] else "WRONG"
            print(f"  recovered {summary['recovered']} replicas; "
                  f"post-recovery answer {state}")
    ok_answers = summary["statuses"].get("ok", 0)
    failed = summary["exact"] != ok_answers or \
        summary["final_exact"] is False
    return 1 if failed else 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .ingest import CompactionPolicy
    from .service import QueryService, SearchRequest

    database = _read_input(args.database, load_segments)
    ids = np.unique(database.traj_ids)
    if len(ids) < 2:
        print("repro ingest: error: the dataset needs at least two "
              "trajectories to split into base + stream",
              file=sys.stderr)
        return 2
    k = min(len(ids) - 1,
            max(1, int(round(len(ids) * args.initial_fraction))))
    base_ids, stream_ids = ids[:k], ids[k:]
    base = database.take(
        np.flatnonzero(np.isin(database.traj_ids, base_ids)))
    queries = _sample_queries(args, database, args.seed)

    faults = None
    if args.rate > 0:
        from .campaigns.chaos import fault_specs
        from .faults import FaultInjector
        faults = FaultInjector(fault_specs(args.rate), seed=args.seed)
    policy = (CompactionPolicy(max_delta_segments=args.max_delta)
              if args.max_delta is not None else None)
    svc = QueryService(base, num_devices=args.num_devices,
                       faults=faults, compaction=policy,
                       durability_dir=args.durable_dir)

    print(f"base: {len(base)} segments / {len(base_ids)} trajectories; "
          f"stream: {len(stream_ids)} trajectories over "
          f"{args.rounds} rounds")
    ingested: list[int] = []
    deleted = 0
    for r in range(args.rounds):
        lo = r * args.arrivals_per_round
        arriving = stream_ids[lo:lo + args.arrivals_per_round]
        line = f"round {r + 1}:"
        if len(arriving):
            rows = database.take(
                np.flatnonzero(np.isin(database.traj_ids, arriving)))
            receipt = svc.ingest(rows)
            ingested.extend(int(t) for t in arriving)
            line += (f" +{receipt.num_segments} seg "
                     f"({len(arriving)} traj)")
        if (args.delete_every and ingested
                and (r + 1) % args.delete_every == 0):
            victim = ingested.pop(0)
            hidden = svc.delete_trajectory(victim)
            deleted += 1
            line += f"  -traj {victim} ({hidden} seg tombstoned)"
        resp = svc.submit(SearchRequest(
            queries=queries, d=args.d, method=args.method,
            request_id=f"round-{r}"))
        m = resp.metrics
        if resp.ok:
            line += (f"  epoch {m.snapshot_epoch}  delta "
                     f"{m.delta_segments:5d}  {m.engine:18s} "
                     f"{len(resp.outcome.results):6d} results  "
                     f"modeled {m.modeled_seconds:.6f} s  "
                     f"(delta scan {m.delta_scan_s:.6f} s)  "
                     f"{'cache-hit' if m.cache_hit else 'built'}")
        else:
            line += f"  rejected: {resp.status}"
        print(line)
    stats = svc.stats()
    svc.shutdown()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    ing = stats["ingest"]
    cache = stats["cache"]
    print(f"ingested {ing['appended_segments']} segments over "
          f"{ing['appends']} appends, {deleted} deletes, "
          f"{ing['compactions']} compactions "
          f"(base v{ing['base_version']}, epoch {ing['epoch']}); "
          f"cache {cache['hits']} hits / {cache['misses']} misses / "
          f"{cache['invalidations']} invalidations")
    if args.durable_dir:
        dur = stats["durability"]
        print(f"durable state in {dur['directory']}: "
              f"{dur['wal_appends']} WAL records "
              f"({dur['wal_bytes']} bytes), "
              f"{dur['checkpoints_written']} checkpoints "
              f"(last at epoch {dur['last_checkpoint_epoch']})")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from .durability import DurabilityManager
    from .service import QueryService

    manager = DurabilityManager(args.dir)
    if not manager.has_state:
        if args.database is None:
            print(f"repro checkpoint: error: {args.dir} holds no "
                  f"durable state; pass --database to bootstrap one",
                  file=sys.stderr)
            return 2
        database = _read_input(args.database, load_segments)
        svc = QueryService(database, durability_dir=args.dir)
        action = "bootstrapped"
    else:
        if args.database is not None:
            print(f"repro checkpoint: error: {args.dir} already holds "
                  f"a durable database; --database would overwrite it",
                  file=sys.stderr)
            return 2
        svc = QueryService.recover(args.dir)
        svc.checkpoint()
        action = "checkpointed"
    stats = svc.stats()
    svc.shutdown()
    if args.json:
        print(json.dumps(stats["durability"], indent=2))
        return 0
    dur = stats["durability"]
    print(f"{action} {dur['directory']} at epoch "
          f"{stats['ingest']['epoch']}: "
          f"{dur['checkpoints_written']} checkpoints this session, "
          f"last at epoch {dur['last_checkpoint_epoch']}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from .service import QueryService

    svc = QueryService.recover(args.dir)
    result = svc.last_recovery
    if args.checkpoint:
        svc.checkpoint()
    summary = {
        **result.to_dict(),
        "ingest": svc.stats()["ingest"],
    }
    svc.shutdown()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"recovered {args.dir}: checkpoint epoch "
          f"{result.checkpoint_epoch} + {result.replayed} WAL "
          f"records replayed -> epoch {result.epoch}"
          + (f" ({result.torn_dropped} torn record dropped)"
             if result.torn_dropped else ""))
    if result.invalid_checkpoints or result.tmp_dirs_removed:
        print(f"  swept {result.tmp_dirs_removed} crashed-checkpoint "
              f"tmp dirs, skipped {result.invalid_checkpoints} "
              f"corrupt checkpoints")
    print(f"  prewarm recipes: "
          + (", ".join(r.method for r in result.engines) or "none"))
    if args.checkpoint:
        print("  fresh checkpoint written (WAL tail folded in)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": cmd_generate,
        "info": cmd_info,
        "search": cmd_search,
        "batch": cmd_batch,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "plan": cmd_plan,
        "stats": cmd_stats,
        "report": cmd_report,
        "figures": cmd_figures,
        "calibrate": cmd_calibrate,
        "campaign": cmd_campaign,
        "shard": cmd_shard,
        "ingest": cmd_ingest,
        "checkpoint": cmd_checkpoint,
        "recover": cmd_recover,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, DurabilityError, StandingStoreError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
