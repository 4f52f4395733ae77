"""Tests for the cost-model calibration machinery."""

import pytest

from repro.experiments import calibration
from repro.experiments.calibration import (Anchor, PAPER_ANCHORS,
                                           fit_cpu_cycles,
                                           fit_gpu_cycles,
                                           verify_calibration)
from repro.gpu.costmodel import CpuCostModel, GpuCostModel


def _max_abs_residual(res):
    return max(abs(r) for r in res.residuals.values())


class TestFits:
    def test_gpu_fit_recovers_shipped_constants(self):
        res = fit_gpu_cycles(
            [PAPER_ANCHORS["gpu_temporal_merger_d0.001"],
             PAPER_ANCHORS["gpu_st_v1_merger_equiv"]])
        shipped = GpuCostModel()
        assert res.cycles["cycles_per_comparison"] == pytest.approx(
            shipped.cycles_per_comparison, rel=0.05)
        assert res.cycles["cycles_per_gather"] == pytest.approx(
            shipped.cycles_per_gather, rel=0.35)
        assert _max_abs_residual(res) < 1e-9  # exact fit: 2 eqs, 2 unknowns

    def test_cpu_fit_recovers_shipped_constants(self):
        res = fit_cpu_cycles([PAPER_ANCHORS["cpu_rtree_merger_d0.001"]])
        shipped = CpuCostModel()
        assert res.cycles["cycles_per_comparison"] == pytest.approx(
            shipped.cycles_per_comparison, rel=0.05)
        assert _max_abs_residual(res) < 1e-9

    def test_gpu_fit_overdetermined_residuals(self):
        """With an inconsistent third anchor the fit reports residuals."""
        bogus = Anchor("bogus", seconds=100.0, comparisons=1e9)
        res = fit_gpu_cycles(
            [PAPER_ANCHORS["gpu_temporal_merger_d0.001"],
             PAPER_ANCHORS["gpu_st_v1_merger_equiv"], bogus])
        assert _max_abs_residual(res) > 0.0


class TestVerification:
    def test_shipped_constants_pass(self):
        errors = verify_calibration()
        assert set(errors) == set(PAPER_ANCHORS)
        assert all(abs(e) < 0.25 for e in errors.values())

    def test_drifted_constants_fail(self, monkeypatch):
        monkeypatch.setattr(calibration, "GPU_MODEL", GpuCostModel(
            cycles_per_comparison=10_000.0))
        with pytest.raises(AssertionError, match="calibration drift"):
            verify_calibration()

    def test_tolerance_adjustable(self, monkeypatch):
        monkeypatch.setattr(calibration, "GPU_MODEL", GpuCostModel(
            cycles_per_comparison=3300.0))  # +10 %
        errors = verify_calibration(tolerance=0.2)
        assert max(abs(e) for e in errors.values()) > 0.05
