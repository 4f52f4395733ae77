"""Tests for the analytic cost model and profiles."""

import numpy as np
import pytest

from repro.gpu.costmodel import (CostBreakdown, CpuCostModel, GpuCostModel,
                                 XEON_W3690)
from repro.gpu.device import VirtualGPU
from repro.gpu.kernel import KernelLauncher, KernelStats, LaunchSpec
from repro.gpu.profiler import CpuSearchProfile, SearchProfile


def make_stats(work, atomics=0, gather=None):
    n = len(work)
    return KernelStats("k", n, np.asarray(work, dtype=np.int64),
                       np.asarray(gather if gather is not None
                                  else np.zeros(n), dtype=np.int64),
                       atomic_ops=atomics)


class TestCostBreakdown:
    def test_total_and_add(self):
        a = CostBreakdown(compute=1.0, transfers=0.5)
        b = CostBreakdown(launches=0.25, host=0.25)
        c = a + b
        assert c.total == 2.0
        assert c.compute == 1.0 and c.launches == 0.25


class TestGpuCostModel:
    def test_kernel_time_scales_with_work(self):
        m = GpuCostModel()
        t1 = m.kernel_time(make_stats([100] * 64)).compute
        t2 = m.kernel_time(make_stats([200] * 64)).compute
        assert t2 == pytest.approx(2 * t1)

    def test_divergence_costs(self):
        """Same total work, concentrated in one lane per warp => slower."""
        m = GpuCostModel()
        uniform = make_stats([10] * 32)
        hot = make_stats([320] + [0] * 31)
        assert m.kernel_time(hot).compute \
            > m.kernel_time(uniform).compute

    def test_throughput_matches_hand_calc(self):
        """14 concurrent warps x 32 lanes / 3000 cycles at 1.15 GHz."""
        m = GpuCostModel()
        n = 448 * 10
        stats = make_stats([3000] * n)  # 3000 comparisons/thread
        t = m.kernel_time(stats, include_launch=False).compute
        expect = (n / 32) * 3000 * m.cycles_per_comparison \
            / (14 * 1.15e9)
        assert t == pytest.approx(expect)

    def test_launch_overhead_charged_once_per_kernel(self):
        m = GpuCostModel()
        with_l = m.kernel_time(make_stats([1]))
        without = m.kernel_time(make_stats([1]), include_launch=False)
        assert with_l.launches == m.spec.kernel_launch_s
        assert without.launches == 0.0

    def test_atomic_serialization(self):
        m = GpuCostModel()
        t = m.kernel_time(make_stats([0], atomics=14 * 1000))
        expect = 14_000 * m.cycles_per_atomic / (14 * 1.15e9)
        assert t.atomics == pytest.approx(expect)

    def test_gather_cheaper_than_comparison(self):
        m = GpuCostModel()
        cmp_t = m.kernel_time(make_stats([100] * 32)).compute
        gth_t = m.kernel_time(make_stats([0] * 32,
                                         gather=[100] * 32)).compute
        assert gth_t < cmp_t


class TestCpuCostModel:
    def test_spec(self):
        assert XEON_W3690.cores == 6
        assert XEON_W3690.parallel_efficiency == pytest.approx(0.8)

    def test_throughput(self):
        m = CpuCostModel()
        t = m.search_time(node_visits=0, comparisons=1_000_000,
                          num_queries=0)
        expect = 1e6 * m.cycles_per_comparison \
            / (6 * 0.8 * 3.46e9)
        assert t.total == pytest.approx(expect)

    def test_components_additive(self):
        m = CpuCostModel()
        t_all = m.search_time(node_visits=100, comparisons=100,
                              num_queries=10, result_items=5).total
        t_parts = (m.search_time(node_visits=100, comparisons=0,
                                 num_queries=0).total
                   + m.search_time(node_visits=0, comparisons=100,
                                   num_queries=0).total
                   + m.search_time(node_visits=0, comparisons=0,
                                   num_queries=10, result_items=5).total)
        assert t_all == pytest.approx(t_parts)


class TestSearchProfile:
    def _profile(self):
        gpu = VirtualGPU()
        launcher = KernelLauncher(gpu)

        def kernel(k):
            k.thread_work[:] = 10
            k.add_atomics(5)

        for _ in range(3):
            launcher.run(LaunchSpec("k", 64), kernel)
        gpu.transfers.h2d("q", 1000)
        gpu.transfers.d2h("r", 2000)
        return SearchProfile.capture("engine", gpu, num_queries=64,
                                     schedule_items=64)

    def test_aggregates(self):
        p = self._profile()
        assert p.num_kernel_invocations == 3
        assert p.total_comparisons == 3 * 640
        assert sum(s.atomic_ops for s in p.kernel_stats) == 15
        assert p.h2d_bytes == 1000 and p.d2h_bytes == 2000

    def test_optimistic_discounts_reinvocations(self):
        """Fig. 4's optimistic curve: launch overhead charged once."""
        p = self._profile()
        m = GpuCostModel()
        full = p.modeled_time(m)
        opt = p.modeled_time(m, discount_reinvocations=True)
        assert opt.total < full.total
        assert full.launches == pytest.approx(3 * m.spec.kernel_launch_s)
        assert opt.launches == pytest.approx(m.spec.kernel_launch_s)

    def test_modeled_total_positive_components(self):
        p = self._profile()
        t = p.modeled_time(GpuCostModel())
        assert t.compute > 0 and t.transfers > 0 and t.host > 0
        assert t.total == pytest.approx(t.compute + t.atomics
                                        + t.launches + t.transfers
                                        + t.host)

    def test_cpu_profile_modeled(self):
        p = CpuSearchProfile("cpu_rtree", num_queries=10, node_visits=50,
                             comparisons=500, result_items=3)
        assert p.modeled_time(CpuCostModel()).total > 0

    def test_divergence_factor_converged(self):
        p = self._profile()
        assert p.divergence_factor() == pytest.approx(1.0)


class TestPaperCalibration:
    """The model constants reproduce the paper's anchor measurements
    (§V-D) when fed the paper's approximate operation counts."""

    def test_merger_small_d_anchor(self):
        """GPUTemporal at d=0.001 on Merger: 41.75 s for ~141k
        comparisons x 50,880 query threads."""
        m = GpuCostModel()
        n_threads = 50_880
        per_thread = 141_000
        stats = make_stats(np.full(n_threads, per_thread))
        t = m.kernel_time(stats, include_launch=False).compute
        assert t == pytest.approx(41.75, rel=0.15)

    def test_gpu_cpu_ratio_anchor(self):
        """CPU-RTree at the same point: 9.70 s => ratio ~4.3."""
        cpu = CpuCostModel()
        # ~5.3k refinement-equivalent ops per query reproduces 9.7 s.
        t = cpu.search_time(node_visits=0,
                            comparisons=50_880 * 5_280,
                            num_queries=50_880).total
        assert t == pytest.approx(9.70, rel=0.2)
