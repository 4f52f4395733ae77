"""Typed per-engine configuration (the façade's validated surface).

Historically :class:`~repro.core.search.DistanceThresholdSearch` forwarded
an untyped ``**engine_params`` bag to whichever engine class the ``method``
named; a misspelled parameter surfaced as a late ``TypeError`` deep inside
the engine constructor (or worse, was silently absorbed).  This module
replaces that bag with one frozen dataclass per engine:

* every field is a documented tuning knob with its paper default;
* values are validated at construction (positive sizes, known enums);
* unknown or misspelled keys raise :class:`ConfigError` naming the engine
  and suggesting the nearest valid key.

Each engine's constructor takes its config (``GpuTemporalEngine(db,
GpuTemporalConfig(num_bins=40))``) and reads every knob from it, so a
knob, its default and its validation are declared here and nowhere
else.  The configs are plain data — JSON-friendly via
:meth:`EngineConfig.to_dict` — so service requests can carry them across
process boundaries.
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, fields

import numpy as np

__all__ = [
    "ConfigError",
    "CpuRTreeConfig",
    "CpuScanConfig",
    "EngineConfig",
    "GpuSpatialConfig",
    "GpuSpatioTemporalConfig",
    "GpuTemporalConfig",
]


class ConfigError(ValueError):
    """An engine received an unknown parameter or an invalid value."""


def _require_positive_int(engine: str, name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(
            f"{engine} engine: {name} must be a positive integer, "
            f"got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Base class for the per-engine typed configurations.

    Subclasses declare their engine's tuning knobs as dataclass fields and
    validate values in :meth:`validate` (called from ``__post_init__``).
    """

    #: engine name the config belongs to (class attribute, not a field).
    engine = "engine"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check field values; raise :class:`ConfigError` on bad ones."""

    # -- conversion -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (same keys as the fields)."""
        return asdict(self)

    @classmethod
    def valid_keys(cls) -> tuple[str, ...]:
        """The parameter names this engine accepts."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_params(cls, **params) -> "EngineConfig":
        """Build a config from loose keyword arguments.

        Unknown keys raise :class:`ConfigError` naming the engine and the
        nearest valid key — the typed replacement for the old silent
        ``**engine_params`` forwarding.
        """
        valid = set(cls.valid_keys())
        for key in params:
            if key not in valid:
                close = difflib.get_close_matches(key, sorted(valid), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ConfigError(
                    f"{cls.engine} engine: unknown parameter {key!r}{hint} "
                    f"(valid: {sorted(valid)})")
        # Collapse NumPy scalars (np.int64(40), np.float64(0.5)) to the
        # builtin equivalents: values that round-tripped through NumPy
        # must validate and cache-key exactly like plain Python ones.
        params = {k: (v.item() if isinstance(v, np.generic) else v)
                  for k, v in params.items()}
        return cls(**params)


@dataclass(frozen=True)
class GpuTemporalConfig(EngineConfig):
    """Knobs of the GPUTemporal engine (paper §IV-B)."""

    engine = "gpu_temporal"

    num_bins: int = 1000
    result_buffer_items: int = 2_000_000

    def validate(self) -> None:
        _require_positive_int(self.engine, "num_bins", self.num_bins)
        _require_positive_int(self.engine, "result_buffer_items",
                              self.result_buffer_items)


@dataclass(frozen=True)
class GpuSpatioTemporalConfig(EngineConfig):
    """Knobs of the GPUSpatioTemporal engine (paper §IV-C)."""

    engine = "gpu_spatiotemporal"

    num_bins: int = 1000
    num_subbins: int = 4
    strict_subbins: bool = True
    result_buffer_items: int = 2_000_000

    def validate(self) -> None:
        _require_positive_int(self.engine, "num_bins", self.num_bins)
        _require_positive_int(self.engine, "num_subbins", self.num_subbins)
        _require_positive_int(self.engine, "result_buffer_items",
                              self.result_buffer_items)
        if not isinstance(self.strict_subbins, bool):
            raise ConfigError(f"{self.engine} engine: strict_subbins must "
                              f"be a bool, got {self.strict_subbins!r}")


@dataclass(frozen=True)
class GpuSpatialConfig(EngineConfig):
    """Knobs of the GPUSpatial flat-grid engine (paper §IV-A)."""

    engine = "gpu_spatial"

    cells_per_dim: int | tuple[int, int, int] = 50
    candidate_buffer_items: int = 8_000_000
    result_buffer_items: int = 2_000_000

    def validate(self) -> None:
        cells = self.cells_per_dim
        if isinstance(cells, int) and not isinstance(cells, bool):
            ok = cells > 0
        elif isinstance(cells, (tuple, list)) and len(cells) == 3:
            ok = all(isinstance(c, int) and c > 0 for c in cells)
            # Normalize JSON lists back to the tuple the engine expects.
            object.__setattr__(self, "cells_per_dim", tuple(cells))
        else:
            ok = False
        if not ok:
            raise ConfigError(
                f"{self.engine} engine: cells_per_dim must be a positive "
                f"int or a 3-tuple of them, got {self.cells_per_dim!r}")
        _require_positive_int(self.engine, "candidate_buffer_items",
                              self.candidate_buffer_items)
        _require_positive_int(self.engine, "result_buffer_items",
                              self.result_buffer_items)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        if isinstance(payload["cells_per_dim"], tuple):
            payload["cells_per_dim"] = list(payload["cells_per_dim"])
        return payload


@dataclass(frozen=True)
class CpuRTreeConfig(EngineConfig):
    """Knobs of the CPU-RTree baseline engine (paper §V-B)."""

    engine = "cpu_rtree"

    segments_per_mbb: int = 4
    fanout: int = 16
    build_method: str = "guttman"
    temporal_axis: bool = True

    def validate(self) -> None:
        _require_positive_int(self.engine, "segments_per_mbb",
                              self.segments_per_mbb)
        if not isinstance(self.fanout, int) or self.fanout < 2:
            raise ConfigError(f"{self.engine} engine: fanout must be an "
                              f"integer >= 2, got {self.fanout!r}")
        if self.build_method not in ("guttman", "str"):
            raise ConfigError(
                f"{self.engine} engine: build_method must be 'guttman' or "
                f"'str', got {self.build_method!r}")
        if not isinstance(self.temporal_axis, bool):
            raise ConfigError(f"{self.engine} engine: temporal_axis must "
                              f"be a bool, got {self.temporal_axis!r}")


@dataclass(frozen=True)
class CpuScanConfig(EngineConfig):
    """The index-free CPU scan has no tuning knobs."""

    engine = "cpu_scan"

