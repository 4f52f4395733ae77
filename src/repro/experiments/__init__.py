"""Experiment scenarios, runner, figure regeneration and reporting."""

from .asciichart import line_chart
from .calibration import (PAPER_ANCHORS, fit_cpu_cycles, fit_gpu_cycles,
                          verify_calibration)
from .figures import fig4_random, fig5_merger, fig6_random_dense, fig7_ratios
from .harness import ExperimentRunner, RunRecord
from .report import records_to_series, series_table
from .paper_report import build_report, write_report
from .sensitivity import (ProfileSet, SensitivityRow, collect_profiles,
                          sensitivity_analysis)
from .scenarios import (DEFAULT_SCALE, Scenario, default_scale,
                        scenario_s1_random, scenario_s2_merger,
                        scenario_s3_random_dense)

__all__ = [
    "DEFAULT_SCALE", "ExperimentRunner", "PAPER_ANCHORS", "ProfileSet",
    "RunRecord", "Scenario", "SensitivityRow",
    "default_scale",
    "build_report", "collect_profiles", "fig4_random", "fig5_merger",
    "fig6_random_dense", "fig7_ratios", "fit_cpu_cycles",
    "fit_gpu_cycles", "records_to_series", "sensitivity_analysis", "series_table",
    "line_chart", "verify_calibration", "write_report",
    "scenario_s1_random", "scenario_s2_merger",
    "scenario_s3_random_dense",
]
