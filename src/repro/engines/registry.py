"""The engine registry, behind typed accessors.

:func:`available` and :func:`get_engine` are the supported way to
enumerate and resolve engines by name; :func:`register_engine` is the
extension point for third-party engines.
"""

from __future__ import annotations

from .base import SearchEngine
from .cpu_rtree import CpuRTreeEngine
from .cpu_scan import CpuScanEngine
from .gpu_spatial import GpuSpatialEngine
from .gpu_spatiotemporal import GpuSpatioTemporalEngine
from .gpu_temporal import GpuTemporalEngine

__all__ = ["available", "get_engine", "register_engine"]

#: The canonical name -> class mapping; mutate only via
#: :func:`register_engine`.
_REGISTRY: dict[str, type[SearchEngine]] = {}


def available() -> tuple[str, ...]:
    """The registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> type[SearchEngine]:
    """The engine class registered under ``name``.

    Raises ``KeyError`` naming the valid choices when ``name`` is
    unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; available: "
            f"{', '.join(available())}") from None


def register_engine(name: str):
    """Class decorator registering a :class:`SearchEngine` under ``name``.

    The supported extension point for custom engines::

        @register_engine("my_engine")
        class MyEngine(SearchEngine):
            name = "my_engine"
            def search(self, queries, d, *, exclude_same_trajectory=False):
                ...

    Returns the class unchanged, so it stacks with other decorators.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("engine name must be a non-empty string")

    def decorator(cls: type[SearchEngine]) -> type[SearchEngine]:
        if not (isinstance(cls, type) and issubclass(cls, SearchEngine)):
            raise TypeError(
                f"@register_engine({name!r}) expects a SearchEngine "
                f"subclass, got {cls!r}")
        _REGISTRY[name] = cls
        return cls

    return decorator


register_engine("gpu_spatial")(GpuSpatialEngine)
register_engine("gpu_temporal")(GpuTemporalEngine)
register_engine("gpu_spatiotemporal")(GpuSpatioTemporalEngine)
register_engine("cpu_rtree")(CpuRTreeEngine)
register_engine("cpu_scan")(CpuScanEngine)
