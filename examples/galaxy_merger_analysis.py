"""Search the galaxy-merger dataset: who wins, CPU or GPU, as the query
distance grows (the paper's §V-D experiment in miniature).

Also demonstrates the kind of domain question the result set answers:
when during the merger do particles from *different* progenitor disks
first interpenetrate?

Run:  python examples/galaxy_merger_analysis.py
"""

import numpy as np

from repro.data import MergerConfig, merger_dataset, queries_from_database
from repro.engines import (CpuRTreeEngine, GpuSpatioTemporalEngine,
                           GpuTemporalEngine)
from repro.gpu.costmodel import price


def main():
    cfg = MergerConfig(particles_per_disk=512)
    db = merger_dataset(cfg=cfg)
    queries = queries_from_database(db, 8,
                                    rng=np.random.default_rng(1))
    print(f"merger dataset: {db.num_trajectories} particles, "
          f"{len(db)} segments; {len(queries)} query segments\n")

    engines = {
        "cpu_rtree": CpuRTreeEngine(db, segments_per_mbb=4),
        "gpu_temporal": GpuTemporalEngine(db, num_bins=500),
        "gpu_spatiotemporal": GpuSpatioTemporalEngine(
            db, num_bins=500, num_subbins=8, strict_subbins=False),
    }

    print(f"{'d':>6s} " + " ".join(f"{n:>20s}" for n in engines))
    for d in (0.01, 0.5, 1.5, 5.0):
        row = []
        for name, engine in engines.items():
            _, prof = engine.search(queries, d)
            row.append(price(prof).total)
        best = min(row)
        cells = [f"{t:17.5f}s{'*' if t == best else ' '}" for t in row]
        print(f"{d:6.2f} " + " ".join(f"{c:>20s}" for c in cells))
    print("(* = fastest modeled engine; note the CPU->GPU crossover)\n")

    # Domain question: first contact between the two progenitor disks.
    results, _ = engines["gpu_spatiotemporal"].search(
        queries, 1.0, exclude_same_trajectory=True)
    half = db.num_trajectories // 2   # disk A: ids < half; disk B: rest
    tid = {int(s): int(t) for s, t in zip(db.seg_ids, db.traj_ids)}
    qtid = {int(s): int(t) for s, t in zip(queries.seg_ids,
                                           queries.traj_ids)}
    cross = [(lo, q, e) for q, e, lo in zip(results.q_ids,
                                            results.e_ids,
                                            results.t_lo)
             if (qtid[int(q)] < half) != (tid[int(e)] < half)]
    if cross:
        t_first, q, e = min(cross)
        print(f"first inter-disk approach within d=1.0: particles "
              f"{qtid[int(q)]} and {tid[int(e)]} at t = {t_first:.2f}")
        print(f"{len(cross)} inter-disk proximity events in total — "
              "the merger is well underway.")
    else:
        print("no inter-disk approaches at this d (disks still apart)")


if __name__ == "__main__":
    main()
