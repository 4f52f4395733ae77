"""Device global-memory management for the virtual GPU.

The paper stresses (§III) that GPU memory management is the hard part of
this problem: "there is no true dynamic memory allocation on the GPU, one
must statically allocate buffers and handle buffer overflow".  We model
that discipline:

* Allocations are explicit, named, and bounded by the device capacity —
  exceeding it raises :class:`DeviceOutOfMemoryError`, exactly the
  constraint that forces the paper to process query sets incrementally.
* The ledger *is* the model: names, bytes, ``allocated_bytes`` and
  ``peak_bytes`` are what a real card would hold.  Kernels run on the
  engines' host arrays and nothing reads a device array's contents, so
  engines *reserve* their database and index with :meth:`MemoryManager.
  alloc` (shape and dtype of what a card would hold) rather than copying
  host arrays in — every array stays resident once, on the host.  The
  PCIe cost of shipping data is recorded separately, in the transfer
  ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DeviceArray", "MemoryManager", "DeviceOutOfMemoryError",
           "layout_nbytes"]


def layout_nbytes(layout: dict[str, tuple[tuple[int, ...], type]]) -> int:
    """Bytes of a device layout ``{name: (shape, dtype)}`` — what an
    index's ``device_arrays()`` reserves."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in layout.values())


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation would exceed device global memory.

    Under a :class:`~repro.service.DevicePool` the message also names
    the device lane and snapshots the resident allocations, so a pool
    OOM is attributable to one card's contents rather than "a GPU".
    """

    def __init__(self, requested: int, free: int, device: str, *,
                 lane: int | None = None,
                 allocations: dict | None = None) -> None:
        msg = (f"{device}: cannot allocate {requested} bytes "
               f"({free} bytes free)")
        if lane is not None:
            msg += f" on lane {lane}"
        if allocations:
            resident = ", ".join(
                f"{name}={nbytes}" for name, nbytes in
                sorted(allocations.items()))
            msg += f"; resident: {resident}"
        super().__init__(msg)
        self.requested = requested
        self.free = free
        self.lane = lane
        self.allocations = dict(allocations or {})


@dataclass
class DeviceArray:
    """A named allocation in device global memory.

    Only :attr:`nbytes` and ``len`` are read.  ``data`` is zero-filled
    (:meth:`MemoryManager.alloc`; the pages are never touched, so they
    cost no resident memory).  Host logic that ships data goes through
    :class:`repro.gpu.transfers.TransferLedger` so that modeled PCIe
    traffic matches what a real implementation would send over the bus.
    """

    name: str
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __len__(self) -> int:
        return int(self.data.shape[0])


class MemoryManager:
    """Tracks named allocations against a fixed global-memory capacity."""

    def __init__(self, capacity_bytes: int, device_name: str = "gpu", *,
                 faults=None, lane: int | None = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.device_name = device_name
        #: fault injector consulted on every allocation (duck-typed,
        #: see :mod:`repro.faults`); None = no injection.
        self.faults = faults
        #: device-pool lane this memory belongs to (None = not pooled).
        self.lane = lane
        self._allocations: dict[str, DeviceArray] = {}
        self.peak_bytes = 0

    # -- allocation ------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return sum(a.nbytes for a in self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def alloc(self, name: str, shape: tuple[int, ...] | int,
              dtype: np.dtype | type = np.float64) -> DeviceArray:
        """Reserve a zero-initialized device array of ``shape`` and
        ``dtype`` — how engines place their database and index."""
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        data = np.zeros(shape, dtype=dtype)
        if self.faults is not None:
            self.faults.check("alloc", lane=self.lane, label=name,
                              requested=int(data.nbytes),
                              free=self.free_bytes,
                              device=self.device_name,
                              allocations=self.allocations())
        if data.nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(data.nbytes, self.free_bytes,
                                         self.device_name,
                                         lane=self.lane,
                                         allocations=self.allocations())
        arr = DeviceArray(name=name, data=data)
        self._allocations[name] = arr
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        return arr

    def resize(self, name: str, shape: tuple[int, ...] | int,
               dtype: np.dtype | type = np.float64) -> DeviceArray:
        """Replace an allocation with a zero-initialized one of a new
        shape (capacity-checked against the memory freed by the old one).

        Used by the engines' retry policy to grow the device result
        buffer in place without juggling temporary names.
        """
        if name not in self._allocations:
            raise KeyError(f"no allocation named {name!r}")
        old = self._allocations.pop(name)
        try:
            return self.alloc(name, shape, dtype)
        except DeviceOutOfMemoryError:
            self._allocations[name] = old  # roll back
            raise

    def __contains__(self, name: str) -> bool:
        return name in self._allocations

    def allocations(self) -> dict[str, int]:
        """Snapshot of {name: nbytes} for reporting."""
        return {k: v.nbytes for k, v in self._allocations.items()}
