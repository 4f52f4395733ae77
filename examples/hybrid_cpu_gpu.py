"""Hybrid CPU+GPU search — the paper's stated future direction (§VI):
"hybrid implementations of the distance threshold search that use the CPU
and the GPU concurrently."

The query set is split between a GPU engine and the CPU R-tree; the
balanced split (estimated from a pilot run) should beat either device
alone whenever their standalone times are comparable.

Run:  python examples/hybrid_cpu_gpu.py
"""

import numpy as np

from repro.data import MergerConfig, merger_dataset, queries_from_database
from repro.engines import (CpuRTreeEngine, GpuSpatioTemporalEngine,
                           HybridEngine)
from repro.gpu.costmodel import price


def main():
    db = merger_dataset(cfg=MergerConfig(particles_per_disk=512))
    queries = queries_from_database(db, 6,
                                    rng=np.random.default_rng(3))
    d = 1.5   # near the paper's CPU/GPU crossover on Merger

    gpu = GpuSpatioTemporalEngine(db, num_bins=500, num_subbins=8,
                                  strict_subbins=False)
    cpu = CpuRTreeEngine(db, segments_per_mbb=4)

    _, gp = gpu.search(queries, d)
    _, cp = cpu.search(queries, d)
    t_gpu = price(gp).total
    t_cpu = price(cp).total
    print(f"standalone GPU: {t_gpu:.6f} s   standalone CPU: "
          f"{t_cpu:.6f} s")

    f = HybridEngine.balanced_split(gpu, cpu, queries, d)
    print(f"balanced split: {100 * f:.0f}% of queries to the GPU\n")

    print(f"{'gpu share':>10s} {'modeled':>12s}")
    for frac in (0.0, 0.25, round(f, 2), 0.75, 1.0):
        hybrid = HybridEngine(gpu, cpu, gpu_fraction=frac)
        res, prof = hybrid.search(queries, d)
        t = prof.modeled_time().total
        marker = "  <- balanced" if frac == round(f, 2) else ""
        print(f"{frac:10.2f} {t:10.6f} s{marker}")

    print("\nconcurrent execution: response time = max(side times); the")
    print("balanced split equalizes the two sides.")


if __name__ == "__main__":
    main()
