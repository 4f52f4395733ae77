"""Tests for the consolidated report builder."""

from pathlib import Path


from repro.experiments.paper_report import (ARTIFACTS, build_report,
                                            write_report)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class TestReport:
    def test_report_includes_available_artifacts(self, tmp_path):
        (tmp_path / "fig4_random.txt").write_text("THE FIG4 TABLE")
        report = build_report(tmp_path)
        assert "THE FIG4 TABLE" in report
        assert "Figure 4" in report
        # Unavailable artifacts are flagged, not silently dropped.
        assert "not regenerated yet" in report
        assert "Missing artifacts:" in report

    def test_every_artifact_documented(self):
        names = {a.file for a in ARTIFACTS}
        # One entry per figure, per in-text table, per extension.
        assert {"fig4_random", "fig5_merger", "fig6_random_dense",
                "fig7_ratios"} <= names
        assert any(n.startswith("ablation_") for n in names)
        assert any(n.startswith("extension_") for n in names)
        # Paper claims are non-empty prose.
        assert all(len(a.paper_claim) > 20 for a in ARTIFACTS)

    def test_write_report(self, tmp_path):
        (tmp_path / "fig5_merger.txt").write_text("table")
        out = write_report(tmp_path)
        assert Path(out).exists()
        assert "Figure 5" in Path(out).read_text()

    def test_complete_report_has_no_missing_section(self, tmp_path):
        for art in ARTIFACTS:
            (tmp_path / f"{art.file}.txt").write_text("data")
        report = build_report(tmp_path)
        assert "Missing artifacts" not in report

    def test_committed_report_is_current(self, tmp_path):
        # REPORT.md is rendered from results/*.txt; one regenerated
        # without the other once kept a stale table.  Rendered into a
        # temporary file, the committed results give the committed
        # report, byte for byte.
        out = write_report(RESULTS_DIR, tmp_path / "REPORT.md")
        assert out.read_bytes() == (RESULTS_DIR / "REPORT.md").read_bytes(), \
            "results/REPORT.md is stale: run python -m repro report"
