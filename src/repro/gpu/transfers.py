"""Host <-> device transfer accounting (the PCIe bus model).

Every byte an engine moves between host and GPU is recorded here.  The
paper's response-time behaviour depends heavily on this traffic: result
sets are transferred back after every kernel invocation, ``redo`` lists
ping-pong for GPUSpatial, and GPUSpatioTemporal's whole design trades
wasteful device computation for *less* data shipped to the device
("Experiments show that the induced wasteful computation on the GPU is
worth the savings in amount of data sent to the GPU", §IV-C.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TransferLedger", "TransferRecord"]


@dataclass(frozen=True)
class TransferRecord:
    """One host<->device copy."""

    direction: str  # "h2d" | "d2h"
    label: str
    nbytes: int


@dataclass
class TransferLedger:
    """Append-only log of PCIe transfers with direction totals.

    ``faults`` (duck-typed, see :mod:`repro.faults`) is consulted before
    a copy is recorded; an injected :class:`~repro.faults.TransferFault`
    models a PCIe transaction failing mid-flight, so the failed copy
    never appears in the ledger.
    """

    records: list[TransferRecord] = field(default_factory=list)
    faults: object | None = None
    lane: int | None = None

    def h2d(self, label: str, payload: np.ndarray | int) -> None:
        """Record a host-to-device copy of ``payload`` (array or #bytes)."""
        self._record("h2d", label, payload)

    def d2h(self, label: str, payload: np.ndarray | int) -> None:
        """Record a device-to-host copy of ``payload`` (array or #bytes)."""
        self._record("d2h", label, payload)

    def _record(self, direction: str, label: str,
                payload: np.ndarray | int) -> None:
        nbytes = int(payload.nbytes if isinstance(payload, np.ndarray)
                     else payload)
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if self.faults is not None:
            self.faults.check(direction, lane=self.lane, label=label)
        self.records.append(TransferRecord(direction, label, nbytes))

    # -- summaries ---------------------------------------------------------------

    @property
    def h2d_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if r.direction == "h2d")

    @property
    def d2h_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if r.direction == "d2h")

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    @property
    def num_transfers(self) -> int:
        return len(self.records)

