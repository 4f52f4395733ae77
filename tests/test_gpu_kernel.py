"""Tests for the SIMT kernel model, the launcher and transfer ledger."""

import numpy as np
import pytest

from repro.gpu.device import DeviceSpec, TESLA_C2075, VirtualGPU
from repro.gpu.kernel import (KernelLauncher, KernelStats, LaunchSpec,
                              warp_work)
from repro.gpu.transfers import TransferLedger


class TestDeviceSpec:
    def test_c2075_architecture(self):
        assert TESLA_C2075.num_cores == 448
        assert TESLA_C2075.num_sms == 14
        assert TESLA_C2075.concurrent_warps == 14
        assert TESLA_C2075.global_mem_bytes == 6 * 2 ** 30

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", 100, 4, 32, 1e9, 1, 1, 1, 1)  # 100 % 32 != 0
        with pytest.raises(ValueError):
            DeviceSpec("x", 0, 4, 32, 1e9, 1, 1, 1, 1)


class TestWarpWork:
    def test_empty(self):
        assert warp_work(np.zeros(0, dtype=np.int64), 32) == 0

    def test_uniform_no_divergence(self):
        w = np.full(64, 7, dtype=np.int64)
        assert warp_work(w, 32) == 14  # 2 warps x max 7

    def test_single_hot_lane(self):
        """One busy lane stalls its whole warp — the SIMT cost GPUSpatial
        suffers from and the schedule sort mitigates."""
        w = np.zeros(32, dtype=np.int64)
        w[5] = 100
        assert warp_work(w, 32) == 100

    def test_partial_warp_padded(self):
        w = np.array([3, 9], dtype=np.int64)
        assert warp_work(w, 32) == 9

    def test_sorting_reduces_divergence(self):
        """Grouping similar work into warps lowers warp-work — why the
        spatiotemporal schedule is sorted by array selector."""
        rng = np.random.default_rng(0)
        w = rng.integers(0, 100, 256)
        assert warp_work(np.sort(w), 32) <= warp_work(w, 32)

    def test_divergence_factor(self):
        stats = KernelStats("k", 32,
                            thread_work=np.r_[np.full(16, 10),
                                              np.zeros(16)].astype(int),
                            gather_work=np.zeros(32, dtype=np.int64))
        # warp max 10 * 32 lanes / 160 actual = 2.0
        assert stats.divergence_factor(32) == pytest.approx(2.0)


class TestKernelLauncher:
    def test_launch_records_stats(self):
        gpu = VirtualGPU()
        launcher = KernelLauncher(gpu)

        def kernel(k):
            k.thread_work[:] = 5
            k.add_atomics(3)

        assert launcher.run(LaunchSpec("k1", num_threads=10),
                            kernel) is None
        assert len(gpu.kernel_stats) == 1
        s = gpu.kernel_stats[0]
        assert s.name == "k1"
        assert s.total_comparisons == 50
        assert s.atomic_ops == 3

    def test_failed_launch_not_recorded(self):
        gpu = VirtualGPU()
        launcher = KernelLauncher(gpu)

        def kernel(k):
            raise RuntimeError("kernel crashed")

        with pytest.raises(RuntimeError):
            launcher.run(LaunchSpec("bad", num_threads=4), kernel)
        assert len(gpu.kernel_stats) == 0

    def test_negative_counts_rejected(self):
        gpu = VirtualGPU()
        launcher = KernelLauncher(gpu)
        with pytest.raises(ValueError):
            LaunchSpec("k", num_threads=-1)

        def kernel(k):
            with pytest.raises(ValueError):
                k.add_atomics(-2)
            k.add_atomics(0)

        launcher.run(LaunchSpec("k", num_threads=1), kernel)

    def test_reset_counters_keeps_memory(self):
        gpu = VirtualGPU()
        gpu.memory.alloc("db", 10)
        KernelLauncher(gpu).run(LaunchSpec("k", 1), lambda k: None)
        gpu.transfers.h2d("q", 100)
        gpu.reset_counters()
        assert len(gpu.kernel_stats) == 0
        assert gpu.transfers.num_transfers == 0
        assert "db" in gpu.memory


class TestTransferLedger:
    def test_direction_totals(self):
        t = TransferLedger()
        t.h2d("queries", np.zeros(10))        # 80 bytes
        t.h2d("schedule", 16)
        t.d2h("results", 320)
        assert t.h2d_bytes == 96
        assert t.d2h_bytes == 320
        assert t.num_transfers == 3

    def test_negative_rejected(self):
        t = TransferLedger()
        with pytest.raises(ValueError):
            t.h2d("x", -1)
