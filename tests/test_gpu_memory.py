"""Tests for device memory management and OOM behaviour."""

import numpy as np
import pytest

from repro.gpu.memory import (DeviceArray, DeviceOutOfMemoryError,
                              MemoryManager)


class TestMemoryManager:
    def test_alloc_and_accounting(self):
        mem = MemoryManager(capacity_bytes=10_000)
        a = mem.alloc("a", 100, dtype=np.float64)
        assert isinstance(a, DeviceArray)
        assert a.nbytes == 800
        assert mem.allocated_bytes == 800
        assert mem.free_bytes == 9_200
        assert "a" in mem
        assert len(mem.alloc("b", 3, dtype=np.float32)) == 3

    def test_oom_raises(self):
        mem = MemoryManager(capacity_bytes=1_000, device_name="test-gpu")
        mem.alloc("big", 100, dtype=np.float64)  # 800 bytes
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            mem.alloc("more", 100, dtype=np.float64)
        assert exc.value.requested == 800
        assert exc.value.free == 200
        assert "test-gpu" in str(exc.value)

    def test_resize_releases_old_bytes(self):
        mem = MemoryManager(capacity_bytes=1_000)
        mem.alloc("a", 100, dtype=np.float64)
        mem.resize("a", 120, dtype=np.float64)  # 960 fits once 800 go
        assert mem.allocated_bytes == 960

    def test_duplicate_name_rejected(self):
        mem = MemoryManager(capacity_bytes=1_000)
        mem.alloc("a", 10, dtype=np.int32)
        with pytest.raises(ValueError, match="already exists"):
            mem.alloc("a", 10, dtype=np.int32)

    def test_resize_unknown_raises(self):
        mem = MemoryManager(capacity_bytes=1_000)
        with pytest.raises(KeyError):
            mem.resize("ghost", 1)

    def test_peak_tracking(self):
        mem = MemoryManager(capacity_bytes=10_000)
        mem.alloc("a", 500, dtype=np.float64)  # 4000
        mem.resize("a", 50, dtype=np.float64)  # 400
        mem.alloc("b", 100, dtype=np.float64)  # 800
        assert mem.peak_bytes == 4_000

    def test_allocations_snapshot(self):
        mem = MemoryManager(capacity_bytes=10_000)
        mem.alloc("a", 10, dtype=np.float64)
        mem.alloc("b", (5, 2), dtype=np.int64)
        assert mem.allocations() == {"a": 80, "b": 80}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryManager(capacity_bytes=0)


class TestDatabaseFitsOnDevice:
    def test_full_scale_merger_fits_c2075(self):
        """The paper's headline claim that D + index fit in 6 GiB: the
        25.2M-segment Merger database is ~2 GiB as SoA float64 + ids."""
        from repro.gpu.device import TESLA_C2075
        full_merger_segments = 25_165_824
        db_bytes = 80 * full_merger_segments
        index_bytes = 4 * 8 * 1_000              # 1,000 temporal bins
        xyz_bytes = 3 * 4 * full_merger_segments  # X/Y/Z id arrays
        result_buffer = 32 * 50_000_000
        total = db_bytes + index_bytes + xyz_bytes + result_buffer
        assert total < TESLA_C2075.global_mem_bytes
