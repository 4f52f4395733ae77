"""Deterministic, seed-driven fault injection for the virtual GPU stack.

The paper's pipeline already survives one failure mode — result-buffer
overflow drives host-side kernel re-invocation (§V-D) — but a serving
deployment must also survive device OOM, PCIe transfer faults, kernel
aborts, slow lanes, and whole-device blackouts.  This module supplies the
*failures*: a :class:`FaultInjector` threaded through
:class:`~repro.gpu.device.VirtualGPU` (and from there into the memory
manager, the transfer ledger, and the kernel launcher) so that any
modeled GPU operation can fail on demand.

Determinism is the design center: every activation decision is a pure
function of ``(seed, spec index, eligible-op ordinal)``, so a campaign
replayed with the same seed injects exactly the same faults at exactly
the same operations — which is what lets the chaos CLI and the CI job
make exact assertions about recovery behaviour.

Fault taxonomy (``FaultSpec.kind``):

``oom``
    The next device allocation at an eligible site raises
    :class:`~repro.gpu.memory.DeviceOutOfMemoryError` (with the real
    requested/free numbers and the lane's allocation snapshot).
``h2d`` / ``d2h``
    A host→device / device→host copy raises :class:`TransferFault`.
``kernel_abort``
    A kernel launch raises :class:`KernelAbortError` before executing.
``kernel_stall``
    A kernel runs to completion but ``stall_factor`` times slower (the
    per-thread work is inflated, so modeled time reflects the slow lane;
    results are unaffected).
``lane_blackout``
    The device lane dies: the triggering operation and *every*
    subsequent operation on that lane raise :class:`LaneBlackoutError`
    until :meth:`FaultInjector.revive` is called — the model of a card
    falling off the bus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..gpu.memory import DeviceOutOfMemoryError

__all__ = ["FAULT_KINDS", "FaultInjector", "FaultSpec", "InjectedFault",
           "KernelAbortError", "LaneBlackoutError", "TransferFault"]

#: every fault kind a :class:`FaultSpec` may name.
FAULT_KINDS = ("oom", "h2d", "d2h", "kernel_abort", "kernel_stall",
               "lane_blackout")

#: operation sites instrumented in the gpu layer.
SITES = ("alloc", "h2d", "d2h", "kernel")

#: which sites each fault kind is eligible to fire at.
_KIND_SITES = {
    "oom": ("alloc",),
    "h2d": ("h2d",),
    "d2h": ("d2h",),
    "kernel_abort": ("kernel",),
    "kernel_stall": ("kernel",),
    "lane_blackout": SITES,
}


class InjectedFault(RuntimeError):
    """Base class of every failure raised by the injector."""


class TransferFault(InjectedFault):
    """A host<->device copy failed (modeled PCIe fault)."""

    def __init__(self, direction: str, label: str,
                 lane: int | None) -> None:
        super().__init__(
            f"injected {direction} transfer fault on {label!r}"
            f"{_lane_suffix(lane)}")
        self.direction = direction
        self.label = label
        self.lane = lane


class KernelAbortError(InjectedFault):
    """A kernel invocation aborted before completing."""

    def __init__(self, kernel: str, lane: int | None) -> None:
        super().__init__(
            f"injected abort of kernel {kernel!r}{_lane_suffix(lane)}")
        self.kernel = kernel
        self.lane = lane


class LaneBlackoutError(InjectedFault):
    """Every operation on a dead lane fails until the lane is revived."""

    def __init__(self, lane: int | None, site: str) -> None:
        super().__init__(
            f"device lane {lane} is blacked out ({site} refused)")
        self.lane = lane
        self.site = site


def _lane_suffix(lane: int | None) -> str:
    return "" if lane is None else f" (lane {lane})"


@dataclass(frozen=True)
class FaultSpec:
    """One entry of the activation plan: where, what, and how often.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Activation probability per eligible operation (1.0 = the next
        eligible operation fails for sure).
    after:
        Skip the first ``after`` eligible operations — the knob that
        places a fault *mid-batch* instead of at the first touch.
    count:
        Maximum number of activations (``None`` = unlimited).
    lanes:
        Restrict to these device lanes; ``None`` matches any lane,
        including operations on a device not yet homed on a lane.
    stall_factor:
        ``kernel_stall`` only: how many times slower the stalled kernel
        runs.
    """

    kind: str
    rate: float = 1.0
    after: int = 0
    count: int | None = None
    lanes: tuple[int, ...] | None = None
    stall_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be within [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None)")
        if self.stall_factor <= 1.0:
            raise ValueError("stall_factor must be > 1")
        if self.lanes is not None:
            object.__setattr__(self, "lanes", tuple(self.lanes))

    def matches(self, site: str, lane: int | None) -> bool:
        if site not in _KIND_SITES[self.kind]:
            return False
        if self.lanes is None:
            return True
        return lane is not None and lane in self.lanes

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"kind": self.kind, "rate": self.rate, "after": self.after,
                "count": self.count,
                "lanes": list(self.lanes) if self.lanes else None,
                "stall_factor": self.stall_factor}


@dataclass
class _SpecState:
    """Mutable per-spec bookkeeping (the spec itself is frozen)."""

    eligible_ops: int = 0
    fired: int = 0


class FaultInjector:
    """Evaluates the activation plan at every instrumented GPU operation.

    The gpu layer calls :meth:`check` at each site; the injector either
    returns a stall factor (1.0 = run normally) or raises the injected
    failure.  Sites and the injector are duck-typed: the gpu modules
    never import this package, so a ``faults=None`` device pays only a
    single ``is None`` test per operation.
    """

    def __init__(self, specs: list[FaultSpec] | tuple = (),
                 *, seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        self.enabled = True
        self.dead_lanes: set[int] = set()
        self._states = [_SpecState() for _ in self.specs]
        #: operations observed per site (fired or not).
        self.ops_by_site: dict[str, int] = {}
        #: activations per fault kind.
        self.fired_by_kind: dict[str, int] = {}

    # -- the hook ---------------------------------------------------------------

    def check(self, site: str, *, lane: int | None = None,
              label: str = "", requested: int = 0, free: int = 0,
              device: str = "gpu",
              allocations: dict | None = None) -> float:
        """Evaluate the plan for one operation at ``site``.

        Returns the stall factor to apply (1.0 = none).  Raises the
        injected failure when a failing spec activates.  The keyword
        context (label, requested/free bytes, allocation snapshot) only
        feeds error messages.
        """
        if not self.enabled:
            return 1.0
        self.ops_by_site[site] = self.ops_by_site.get(site, 0) + 1
        if lane is not None and lane in self.dead_lanes:
            raise LaneBlackoutError(lane, site)
        stall = 1.0
        for i, spec in enumerate(self.specs):
            if not spec.matches(site, lane):
                continue
            state = self._states[i]
            state.eligible_ops += 1
            if spec.rate <= 0.0:
                continue  # can never fire; skip the (costly) roll
            if state.eligible_ops <= spec.after:
                continue
            if spec.count is not None and state.fired >= spec.count:
                continue
            if spec.rate < 1.0 and not self._roll(i, state.eligible_ops,
                                                  spec.rate):
                continue
            state.fired += 1
            self.fired_by_kind[spec.kind] = \
                self.fired_by_kind.get(spec.kind, 0) + 1
            if spec.kind == "kernel_stall":
                stall = max(stall, spec.stall_factor)
                continue
            self._raise(spec, site, lane=lane, label=label,
                        requested=requested, free=free, device=device,
                        allocations=allocations)
        return stall

    def _roll(self, spec_index: int, ordinal: int, rate: float) -> bool:
        """Deterministic Bernoulli draw for one (spec, eligible op)."""
        rng = random.Random(f"{self.seed}:{spec_index}:{ordinal}")
        return rng.random() < rate

    def _raise(self, spec: FaultSpec, site: str, *, lane, label,
               requested, free, device, allocations) -> None:
        if spec.kind == "oom":
            raise DeviceOutOfMemoryError(requested, free, device,
                                         lane=lane,
                                         allocations=allocations)
        if spec.kind in ("h2d", "d2h"):
            raise TransferFault(spec.kind, label, lane)
        if spec.kind == "kernel_abort":
            raise KernelAbortError(label, lane)
        # lane_blackout: the lane dies and stays dead.
        if lane is not None:
            self.dead_lanes.add(lane)
        raise LaneBlackoutError(lane, site)

    # -- lane lifecycle ----------------------------------------------------------

    def revive(self, lane: int) -> None:
        """Bring a blacked-out lane back (the operator swapped the card)."""
        self.dead_lanes.discard(lane)

    # -- reporting ---------------------------------------------------------------

    @property
    def total_fired(self) -> int:
        return sum(self.fired_by_kind.values())

    @property
    def total_ops(self) -> int:
        return sum(self.ops_by_site.values())

    def report(self) -> dict:
        """Activation summary for the chaos survival report."""
        return {
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
            "ops_by_site": dict(sorted(self.ops_by_site.items())),
            "fired_by_kind": dict(sorted(self.fired_by_kind.items())),
            "total_ops": self.total_ops,
            "total_fired": self.total_fired,
            "dead_lanes": sorted(self.dead_lanes),
        }
