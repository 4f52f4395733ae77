"""T-RTREE — §V-B in-text: the CPU baseline's r (segments per MBB) sweep,
plus the index-construction variants this reproduction documents.

The paper executes CPU-RTree "with a range of values for r and only
report[s] on results for the r value that leads to the lowest response
time".  This benchmark reproduces that protocol on each dataset and also
reports the two construction ablations DESIGN.md calls out: Guttman
insertion vs STR bulk loading, and 3-D spatial vs 4-D spatiotemporal
boxes (see EXPERIMENTS.md for why the 3-D variant models the paper's
baseline on Random-dense).
"""


from repro.engines.config import CpuRTreeConfig
from repro.engines.cpu_rtree import CpuRTreeEngine
from repro.gpu.costmodel import price

from .conftest import emit

R_VALUES = (1, 2, 4, 8, 16)


def test_rtree_r_sweep(benchmark, s1_runner, s2_runner):

    def sweep():
        out = {}
        for name, runner, d in [("random", s1_runner, 25.0),
                                ("merger", s2_runner, 1.0)]:
            for r in R_VALUES:
                rec, _ = runner.run_one("cpu_rtree", d,
                                        segments_per_mbb=r)
                out[(name, r)] = rec.modeled_seconds
        return out

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["T-RTREE — CPU-RTree response time vs r (segments/MBB)",
             "=" * 56]
    for name in ("random", "merger"):
        row = [times[(name, r)] for r in R_VALUES]
        best = R_VALUES[row.index(min(row))]
        lines.append(f"{name:8s} " + "  ".join(
            f"r={r}:{t:.5f}s" for r, t in zip(R_VALUES, row))
            + f"   best r = {best}")
    emit("ablation_rtree_r", "\n".join(lines))

    # The sweep is a genuine trade-off: the best r is interior or at
    # least the endpoints are not uniformly optimal for both datasets.
    for name in ("random", "merger"):
        row = [times[(name, r)] for r in R_VALUES]
        assert min(row) < row[0] * 1.01 or min(row) < row[-1] * 1.01


def test_rtree_construction_variants(benchmark, s3_runner):
    """Guttman vs STR and 3-D vs 4-D on Random-dense: the stronger
    variants win — quantifying how much baseline strength the paper's
    Fig. 6 result presupposes giving up."""
    db = s3_runner.database
    queries = s3_runner.queries

    def run():
        out = {}
        for label, kw in [
            ("guttman-3d", dict(build_method="guttman",
                                temporal_axis=False)),
            ("guttman-4d", dict(build_method="guttman",
                                temporal_axis=True)),
            ("str-4d", dict(build_method="str", temporal_axis=True)),
        ]:
            engine = CpuRTreeEngine(
                db, CpuRTreeConfig(segments_per_mbb=4, **kw))
            _, prof = engine.search(queries, 0.05)
            out[label] = (price(prof).total,
                          prof.comparisons, prof.node_visits)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["T-RTREE — construction variants at d=0.05 (Random-dense)",
             "=" * 58]
    for label, (t, cmp_, visits) in out.items():
        lines.append(f"{label:12s} t={t:.5f}s comparisons={cmp_} "
                     f"node_visits={visits}")
    emit("ablation_rtree_variants", "\n".join(lines))

    # 4-D boxes add temporal selectivity => far fewer refinements.
    assert out["guttman-4d"][1] < out["guttman-3d"][1]
    # STR packing is at least as good as insertion on visits.
    assert out["str-4d"][2] <= out["guttman-4d"][2]
