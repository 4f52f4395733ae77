"""The kernel launch API: LaunchSpec -> vectorized kernel body ->
its value, plus one ``KernelStats`` on the device.

Every engine invocation goes through ``KernelLauncher.run``: a typed
``LaunchSpec`` describes the grid (name, logical thread count, h2d
inputs to charge), the kernel body executes the whole grid's work as
vectorized NumPy passes while recording per-thread op counts, ``run``
returns the body's value, and the invocation's ``KernelStats`` is
appended to ``gpu.kernel_stats``.

This script drives the API directly with a toy kernel, then shows the
same stats flowing out of a real engine search.

Run:  python examples/kernel_launch_api.py
"""

import numpy as np

from repro.engines import GpuTemporalConfig, GpuTemporalEngine
from repro.gpu.device import VirtualGPU
from repro.gpu.kernel import KernelLauncher, LaunchSpec

from quickstart import make_dataset


def toy_launch():
    print("=" * 64)
    print("1. A toy kernel through the launch API")
    print("=" * 64)
    gpu = VirtualGPU()
    launcher = KernelLauncher(gpu)

    work = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
    spec = LaunchSpec(name="toy", num_threads=work.size,
                      inputs=(("toy_schedule", work.size * 16),))

    def kernel(k):
        # The whole grid in one pass: each logical thread "performs"
        # its scheduled work; two threads issue an atomic append.
        k.thread_work[:] = work
        k.add_atomics(2)
        return int(work.sum())

    value = launcher.run(spec, kernel)
    stats = gpu.kernel_stats[-1]
    print(f"kernel body returned      {value}")
    print(f"stats.num_threads         {stats.num_threads}")
    print(f"stats.thread_work         {stats.thread_work}")
    print(f"stats.atomic_ops          {stats.atomic_ops}")
    print(f"divergence (warp of 4)    "
          f"{stats.divergence_factor(4):.2f}")
    print(f"h2d transfers charged     "
          f"{[(t.label, t.nbytes) for t in gpu.transfers.records]}\n")


def engine_stats():
    print("=" * 64)
    print("2. The same stats out of a real engine search")
    print("=" * 64)
    db = make_dataset(num_traj=120, steps=30, seed=1)
    queries = make_dataset(num_traj=8, steps=30, seed=42)

    engine = GpuTemporalEngine(db, GpuTemporalConfig(num_bins=64))
    _, profile = engine.search(queries, d=3.0)
    for i, stats in enumerate(engine.gpu.kernel_stats):
        print(f"invocation {i}: {stats.num_threads} threads, "
              f"{stats.total_comparisons} comparisons, "
              f"{stats.atomic_ops} atomics")
    print(f"modeled profile: {profile.num_kernel_invocations} "
          f"invocation(s), {profile.result_items} results")


def main():
    toy_launch()
    engine_stats()


if __name__ == "__main__":
    main()
