"""What the ``dense_batch`` engine pair costs in host memory, stage by stage.

``benchmarks/e2e``'s ``dense_batch`` serves S3-random-dense at 2 %
(251,712 segments, 19.2 MB as structure-of-arrays) from a GPUTemporal
and a GPUSpatioTemporal engine.  This benchmark builds that pair in a
fresh child process, so the process's peak resident set (``VmHWM``) is
the pair's alone, and reads ``VmHWM`` / ``VmRSS`` after each stage: the
database, each build, each engine's first search (a ``dense_batch``
body: 240 segments of two trajectories, d = 0.05).

Two structural facts are gated, whatever the box:

* the two builds raise the peak by at most 2.5x the database's bytes —
  the engines reserve device memory instead of copying into it, share
  one time-sorted copy of the base, and the index builds keep no
  ``(n, 3)`` temporaries (each engine copying everything it placed and
  sorting its own base cost 5.8x);
* the two engines hold the *same* time-sorted copy, and it is freed
  with the last of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from .conftest import emit

SCALE = 0.02
METHODS = ("gpu_temporal", "gpu_spatiotemporal")
D = 0.05
MAX_BUILD_GROWTH = 2.5     # x the database's bytes
ROOT = Path(__file__).resolve().parent.parent


def _status_mb(*keys: str) -> dict[str, float]:
    """``VmHWM`` / ``VmRSS`` of this process, in MB."""
    out = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in keys:
            out[key] = int(value.split()[0]) / 1024
    return out


def _new_arrays_mb(engine, seen: set) -> float:
    """MB of the host arrays ``engine`` holds (its database, index and
    memos; not its device ledger) that no earlier stage already held."""
    import numpy as np

    total, visited = 0, set()
    stack = [v for k, v in vars(engine).items() if k != "gpu"]
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is None and id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return total / 2 ** 20


def measure() -> None:
    """The child process: print one JSON line of per-stage readings."""
    import gc
    import weakref

    import numpy as np

    from repro.data import random_dense_dataset
    from repro.engines import get_engine
    from repro.experiments import scenario_s3_random_dense

    def stage(name, held_mb=0.0):
        stages.append((name, {**_status_mb("VmHWM", "VmRSS"),
                              "held": held_mb}))

    stages = []
    stage("imports")
    scenario = scenario_s3_random_dense(SCALE)
    database = random_dense_dataset(scale=SCALE,
                                    rng=np.random.default_rng(0))
    seen = {id(a) for a in vars(database).values()}   # array ids held
    stage("database", database.nbytes() / 2 ** 20)
    engines = {}
    for method in METHODS:
        engines[method] = get_engine(method).from_config(
            database, result_buffer_items=scenario.result_buffer_items,
            **scenario.engine_configs[method])
        stage(f"build {method}", _new_arrays_mb(engines[method], seen))
    traj = np.unique(database.traj_ids)[:2]
    queries = database.take(
        np.flatnonzero(np.isin(database.traj_ids, traj))[:240])
    for method, engine in engines.items():
        engine.search(queries, D)
        stage(f"first search {method}", _new_arrays_mb(engine, seen))

    temporal, spatiotemporal = engines.values()
    shared = temporal.database is spatiotemporal.database
    sorted_copy = weakref.ref(temporal.database)
    del temporal, spatiotemporal, engine
    engines.clear()
    gc.collect()
    print(json.dumps({"database_bytes": database.nbytes(),
                      "segments": len(database),
                      "stages": stages, "shared": shared,
                      "freed": sorted_copy() is None}))


def test_memory_cost():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    child = subprocess.run(
        [sys.executable, "-c",
         "from benchmarks.test_memory_cost import measure; measure()"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    report = json.loads(child.stdout.splitlines()[-1])
    stages = report["stages"]
    db_mb = report["database_bytes"] / 2 ** 20

    # "+ held": host arrays the stage added and kept (database, sorted
    # copy, index, memos; the device ledger excluded); the rest of
    # "+ MB" is build temporaries and host copies of device arrays.
    rows = [f"{'stage':<34s} {'VmHWM MB':>9s} {'+ MB':>8s} "
            f"{'+ held MB':>10s} {'VmRSS MB':>9s}"]
    previous = stages[0][1]["VmHWM"]
    for name, status in stages:
        rows.append(f"{name:<34s} {status['VmHWM']:9.1f} "
                    f"{status['VmHWM'] - previous:8.1f} "
                    f"{status['held']:10.1f} {status['VmRSS']:9.1f}")
        previous = status["VmHWM"]
    hwm = dict((name, status["VmHWM"]) for name, status in stages)
    growth = hwm[f"build {METHODS[-1]}"] - hwm["database"]
    rows.append(f"two builds raise the peak {growth:.1f} MB = "
                f"{growth / db_mb:.2f}x the database "
                f"({db_mb:.1f} MB, {report['segments']} segments); "
                f"gate {MAX_BUILD_GROWTH}x")
    rows.append(f"one time-sorted copy shared: {report['shared']}; "
                f"freed with the last engine: {report['freed']}")
    emit("memory_cost",
         "dense_batch engine pair, S3-random-dense at 2 %, fresh child "
         "process\n" + "\n".join(rows))

    assert report["shared"], "the engines sorted their own copies"
    assert report["freed"], "the sorted copy outlived its engines"
    assert growth <= MAX_BUILD_GROWTH * db_mb, \
        f"builds grew the peak {growth / db_mb:.2f}x the database"
