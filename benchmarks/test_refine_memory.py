"""What one search holds on the host, as structure.

Every engine refines through ``engines.base.refine``, one run of threads
at a time: a thread's candidates stay row ranges until the run that
solves them, and a run holds at most ``MAX_PAIRS_PER_CHUNK`` candidate
pairs (or one thread's own).  So a search's host working set is one
run's solve (~200 B per pair, ~0.4 GB at the default run size) plus its
answer, whatever the batch — not an array of every query's candidate
rows.  ``cpu_rtree`` used to build that array from its walk (3.04 GiB
at the paper's §V-D size, where it died) and ``cpu_scan`` from every
query's time window (~160 GB there).

This benchmark builds each scenario engine on S3-random-dense at 2 % and
5 %, warms it with one search of the scenario's queries at d = 0.09,
and gates the ``tracemalloc`` peak of a second search at
``MAX_PEAK_BYTES[engine]`` on both scales: one ceiling per engine, so
a working set that grows with the database or the batch fails at 5 %.
"""

import tracemalloc

from .conftest import emit

from repro.experiments import ExperimentRunner, scenario_s3_random_dense

SCALES = (0.02, 0.05)
D = 0.09
#: at seed 0 (2 % / 5 %): cpu_scan 437.6 / 474.1 MB (a full run's solve
#: plus the answer; the whole-batch window expansion read 451.0 / 653.0),
#: cpu_rtree 17.0 / 41.1 MB (106.1 / 244.4 with every block's rows in one
#: array), gpu_temporal 4.5 / 7.2 MB and gpu_spatiotemporal 6.3 / 10.7 MB
#: (27.9 / 27.9 with every invocation's survivors in one batch).  Each
#: ceiling is the 5 % reading plus 15-70 % headroom, under the old one.
MAX_PEAK_BYTES = {"cpu_scan": 550_000_000,
                  "cpu_rtree": 60_000_000,
                  "gpu_temporal": 12_000_000,
                  "gpu_spatiotemporal": 16_000_000}


def test_refine_memory():
    peaks = {}
    rows = [f"{'engine':20s} {'scale':>6s} {'rows':>8s} {'queries':>8s} "
            f"{'peak MB':>8s} {'ceiling':>8s}"]
    for scale in SCALES:
        runner = ExperimentRunner(scenario_s3_random_dense(scale))
        for method in sorted(MAX_PEAK_BYTES):
            engine = runner.engine(method)
            engine.search(runner.queries, D)                 # warm
            tracemalloc.start()
            try:
                engine.search(runner.queries, D)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[method, scale] = peak
            rows.append(f"{method:20s} {scale:6.2f} "
                        f"{len(runner.database):8d} "
                        f"{len(runner.queries):8d} {peak / 1e6:8.1f} "
                        f"{MAX_PEAK_BYTES[method] / 1e6:8.1f}")
        del runner
    emit("refine_memory",
         f"Warm search tracemalloc peak, S3-random-dense, d = {D}\n"
         + "\n".join(rows))
    for (method, scale), peak in peaks.items():
        assert peak <= MAX_PEAK_BYTES[method], (method, scale, peak)
