"""Index-parameter tuning walkthrough: the knobs §V sweeps, on one small
dataset — temporal bin count, spatial subbin count, FSG resolution and
the R-tree's r.

Run:  python examples/tuning_parameters.py
"""

import numpy as np

from repro.data import random_dataset
from repro.data.random_walk import make_random_walks
from repro.core.types import SegmentArray
from repro.engines import (GpuSpatialEngine, GpuSpatioTemporalEngine,
                           GpuTemporalEngine)
from repro.engines.cpu_rtree import tune_segments_per_mbb
from repro.gpu.costmodel import price
from repro.indexes import SpatioTemporalIndex


def main():
    db = random_dataset(scale=0.01)
    queries = SegmentArray.from_trajectories(make_random_walks(
        num_trajectories=3, num_timesteps=400,
        box_side=215.0, step_sigma=1.0, start_time_range=(0, 100),
        rng=np.random.default_rng(5), first_traj_id=10_000))
    d = 20.0
    print(f"|D| = {len(db)}, |Q| = {len(queries)}, d = {d}\n")

    print("GPUTemporal: temporal bin count m (more bins -> better")
    print("selectivity, saturating):")
    for m in (10, 100, 1000, 10000):
        engine = GpuTemporalEngine(db, num_bins=m)
        _, prof = engine.search(queries, d)
        print(f"  m={m:>6d}: {prof.total_comparisons:>9d} comparisons, "
              f"{price(prof).total:9.6f} s")

    vmax = SpatioTemporalIndex.max_admissible_subbins(db)
    print(f"\nGPUSpatioTemporal: subbin count v (admissible v <= {vmax}"
          " by the segment-extent constraint):")
    for v in (1, 2, 4, 8):
        engine = GpuSpatioTemporalEngine(db, num_bins=1000,
                                         num_subbins=v,
                                         strict_subbins=False)
        _, prof = engine.search(queries, d)
        nq = len(queries)
        print(f"  v={v}: {prof.total_comparisons:>9d} comparisons, "
              f"{price(prof).total:9.6f} s, "
              f"{100 * prof.defaulted_queries / nq:5.1f}% defaulted")

    print("\nGPUSpatial: FSG resolution (coarse -> poor selectivity,")
    print("fine -> duplicates and probes):")
    for cells in (10, 25, 50, 100):
        engine = GpuSpatialEngine(db, cells_per_dim=cells)
        _, prof = engine.search(queries, d)
        print(f"  {cells:>3d} cells/dim: {prof.total_comparisons:>9d} "
              f"comparisons, {prof.num_kernel_invocations} invocations, "
              f"{price(prof).total:9.6f} s")

    print("\nCPU-RTree: segments per MBB r (the paper reports only the")
    print("best r per experiment):")
    best, times = tune_segments_per_mbb(db, queries, d,
                                        r_values=(1, 2, 4, 8, 16))
    for r, t in sorted(times.items()):
        marker = "  <- best" if r == best else ""
        print(f"  r={r:>2d}: {t:9.6f} s{marker}")


if __name__ == "__main__":
    main()
