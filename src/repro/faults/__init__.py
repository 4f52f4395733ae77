"""Deterministic fault injection.

:mod:`repro.faults.injector` supplies the failures — a seed-driven
:class:`FaultInjector` threaded through the virtual GPU stack so device
OOM, transfer faults, kernel aborts/stalls, and lane blackouts can be
injected at exact, replayable operations.  The seeded storms that use
it to prove the serving layers survive live in :mod:`repro.campaigns`.
"""

from .injector import (FAULT_KINDS, FaultInjector, FaultSpec,
                       InjectedFault, KernelAbortError,
                       LaneBlackoutError, TransferFault)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "KernelAbortError",
    "LaneBlackoutError",
    "TransferFault",
]
