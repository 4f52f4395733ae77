"""Consolidated reproduction report.

Assembles everything the benchmark suite wrote under ``results/`` into
one markdown document (default: ``results/REPORT.md``) with the paper's
expected findings alongside, so a reviewer can audit the reproduction
from a single file.  Regenerate with::

    pytest benchmarks/ --benchmark-only     # produces results/*.txt
    python -m repro.experiments.paper_report
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["ARTIFACTS", "build_report", "write_report"]


@dataclass(frozen=True)
class Artifact:
    """One regenerated figure/table and its paper-side expectation."""

    file: str
    title: str
    paper_claim: str


ARTIFACTS: list[Artifact] = [
    Artifact("fig4_random", "Figure 4 — S1 (Random)",
             "CPU-RTree best across all query distances; GPUSpatial the "
             "best GPU scheme for d < 20 but non-scalable in d (the "
             "optimistic curve shows the same trend); GPUTemporal flat; "
             "GPUSpatioTemporal below GPUTemporal."),
    Artifact("fig5_merger", "Figure 5 — S2 (Merger)",
             "CPU best at low d (GPU 330.4% slower at d = 0.001); "
             "GPUSpatioTemporal overtakes at d ~ 1.5 and beats "
             "GPUTemporal by >= 23.6%; GPU 58.8% faster at d = 5."),
    Artifact("fig6_random_dense", "Figure 6 — S3 (Random-dense)",
             "CPU best only for d <~ 0.02; GPU engines 223% faster at "
             "d = 0.05; response dominated by result-buffer pressure at "
             "large d."),
    Artifact("fig7_ratios", "Figure 7 — GPU/CPU ratios",
             "CPU preferable on small/sparse data; GPU wins on large "
             "and/or dense datasets unless d is small."),
    Artifact("ablation_fsg_resolution", "T-FSG — FSG resolution",
             "~50 cells/dim optimal on Random; rapid growth with d at "
             "any resolution."),
    Artifact("ablation_temporal_bins", "T-BINS — temporal bin count",
             "Selectivity saturates at ~10,000 bins (Random) / ~1,000 "
             "(Merger); independent of d."),
    Artifact("ablation_subbins_random", "T-SUBB — subbin count (Random)",
             "More subbins help at small d; defaults to temporal rise "
             "with d."),
    Artifact("ablation_subbins_dense",
             "T-SUBB — default rate (Random-dense)",
             "Dense data defaults much more often (40% at v=2, d=0.03 "
             "in the paper)."),
    Artifact("ablation_indirection", "T-IND — extra indirection",
             "+12.4% response time at d = 50 with v = 1."),
    Artifact("ablation_result_buffer", "T-BUF — result-buffer size",
             "5.0e7 -> 9.2e7 items cuts response time 65.76% at "
             "d = 0.09."),
    Artifact("ablation_rtree_r", "T-RTREE — segments per MBB",
             "Best r reported per experiment (sweep protocol)."),
    Artifact("ablation_rtree_variants", "T-RTREE — construction variants",
             "(Reproduction-added) quantifies baseline-strength "
             "assumptions behind Fig. 6."),
    Artifact("extension_cluster_scaling", "EXT — cluster scaling",
             "(Beyond paper) the §III multi-node deployment."),
]


def build_report(results_dir: str | Path) -> str:
    """Markdown report from whatever artifacts exist in ``results_dir``."""
    results_dir = Path(results_dir)
    lines = [
        "# Reproduction report",
        "",
        "Regenerated by `pytest benchmarks/ --benchmark-only`; see",
        "EXPERIMENTS.md for the full paper-vs-measured discussion.",
        "",
    ]
    missing = []
    for art in ARTIFACTS:
        path = results_dir / f"{art.file}.txt"
        lines.append(f"## {art.title}")
        lines.append("")
        lines.append(f"**Paper:** {art.paper_claim}")
        lines.append("")
        if path.exists():
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(art.file)
            lines.append("*(not regenerated yet — run the benchmark "
                         "suite)*")
        lines.append("")
    if missing:
        lines.append(f"Missing artifacts: {', '.join(missing)}")
    return "\n".join(lines)


def write_report(results_dir: str | Path = "results",
                 out: str | Path | None = None) -> Path:
    """Write the consolidated report (default: results/REPORT.md)."""
    results_dir = Path(results_dir)
    out = Path(out) if out else results_dir / "REPORT.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(build_report(results_dir))
    return out


if __name__ == "__main__":  # pragma: no cover
    path = write_report()
    print(f"wrote {path}")
