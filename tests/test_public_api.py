"""Public-API contract tests: the documented surface stays importable
and `__all__` stays truthful."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.gpu",
    "repro.indexes",
    "repro.engines",
    "repro.data",
    "repro.astro",
    "repro.experiments",
    "repro.service",
    "repro.sharding",
    "repro.faults",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_names_resolve(module_name):
    """Every name in __all__ exists on the module."""
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__") and module.__all__
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_is_sorted_unique(module_name):
    module = importlib.import_module(module_name)
    names = [n for n in module.__all__ if n != "__version__"]
    assert len(names) == len(set(names)), f"{module_name}: duplicates"


def test_readme_documented_entry_points_exist():
    """The names the README leans on are real."""
    import repro
    for name in ("DistanceThresholdSearch", "SegmentArray", "Trajectory",
                 "random_dataset", "merger_dataset", "VirtualGPU",
                 "GpuCostModel", "HybridEngine"):
        assert hasattr(repro, name)
    from repro.core import plan_search, verify_results, TrajectoryKnn
    from repro.gpu import occupancy, write_trace
    from repro.sharding import ShardedService
    assert callable(plan_search) and callable(verify_results)
    assert callable(occupancy) and callable(write_trace)
    assert ShardedService and TrajectoryKnn


def test_engine_registry_complete():
    from repro.engines import available, get_engine
    assert available() == ("cpu_rtree", "cpu_scan", "gpu_spatial",
                           "gpu_spatiotemporal", "gpu_temporal")
    for name in available():
        assert get_engine(name).name == name
    with pytest.raises(KeyError, match="unknown engine"):
        get_engine("quantum")


def test_service_layer_entry_points_exist():
    """The serving-layer surface added with the batched query service."""
    import repro
    for name in ("QueryService", "SearchRequest", "SearchResponse",
                 "register_engine", "ConfigError"):
        assert hasattr(repro, name)
    from repro.engines import (GpuSpatialConfig, GpuSpatioTemporalConfig,
                               GpuTemporalConfig, CpuRTreeConfig,
                               RetryPolicy, NO_RETRY)
    from repro.gpu.profiler import RequestMetrics
    from repro.service import EngineCache, database_fingerprint
    assert callable(database_fingerprint)
    assert EngineCache and RequestMetrics and RetryPolicy
    assert NO_RETRY.max_attempts == 1
    assert GpuSpatialConfig and GpuSpatioTemporalConfig
    assert GpuTemporalConfig and CpuRTreeConfig


#: every constructor keyword of the serving layer, by class.
OPTION_SURFACE = {
    ("repro.service", "QueryService"): {
        "num_devices", "spec", "gpu_model", "cpu_model", "cache_bytes",
        "retry", "telemetry", "faults", "breaker_threshold",
        "breaker_reset_s", "lane_failure_threshold",
        "lane_quarantine_s", "crosscheck_every", "compaction",
        "auto_compact", "durability_dir", "durability",
        "durability_kill"},
    ("repro.sharding", "ShardedService"): {
        "num_shards", "replicas_per_shard", "strategy",
        "durability_root", "telemetry", "service_kwargs"},
    ("repro.gateway", "Gateway"): {
        "queue_depth", "est_service_s", "clock", "telemetry"},
    ("repro.gateway", "BrownoutLadder"): {"telemetry"},
    ("repro.standing", "StandingQueryManager"): {"store", "telemetry"},
}


@pytest.mark.parametrize("owner", sorted(OPTION_SURFACE),
                         ids=lambda owner: owner[1])
def test_option_surface_is_pinned(owner):
    """The exact keyword set of each serving-layer constructor, so a
    new knob (or a dropped one) is a visible diff in this file."""
    import inspect
    cls = getattr(importlib.import_module(owner[0]), owner[1])
    params = inspect.signature(cls.__init__).parameters.values()
    assert {p.name for p in params if p.kind is p.KEYWORD_ONLY} \
        == OPTION_SURFACE[owner]
    # Every settable value is one of those keywords: nothing with a
    # default hides among the positional parameters.
    assert all(p.kind is p.KEYWORD_ONLY for p in params
               if p.default is not p.empty)


def test_register_engine_decorator():
    """@register_engine is the supported extension point."""
    import pytest

    from repro.core.search import register_engine
    from repro.engines import CpuScanEngine, get_engine
    from repro.engines.registry import _REGISTRY

    @register_engine("_decorated_test_engine")
    class _Custom(CpuScanEngine):
        """Test double."""

    try:
        assert get_engine("_decorated_test_engine") is _Custom
    finally:
        del _REGISTRY["_decorated_test_engine"]
    with pytest.raises(TypeError):
        register_engine("_bad")(object)
    with pytest.raises(ValueError):
        register_engine("")


def test_version():
    import repro
    assert repro.__version__.count(".") == 2


def test_public_docstrings_everywhere():
    """Every public callable/class in the top packages has a docstring
    (deliverable (e): doc comments on every public item)."""
    import inspect
    missing = []
    for module_name in PACKAGES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            if name == "__version__":
                continue
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    missing.append(f"{module_name}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_imports_need_only_declared_dependencies():
    """`import repro` (and every entry point a process starts from)
    succeeds with every top-level module that is neither standard
    library nor a declared runtime dependency made unimportable."""
    root = Path(__file__).resolve().parent.parent
    declared = re.search(r'^dependencies = \[(.*)\]$',
                         (root / "pyproject.toml").read_text(), re.M)
    allowed = re.findall(r'"([A-Za-z0-9_]+)', declared.group(1))
    program = f"""
import sys

class OnlyDeclared:
    allowed = set({allowed!r}) | sys.stdlib_module_names | {{"repro"}}

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in self.allowed:
            raise ModuleNotFoundError(
                f"No module named {{name!r}} (not a declared dependency)",
                name=name)

sys.meta_path.insert(0, OnlyDeclared())
import repro, repro.cli, repro.gateway, repro.sharding
import repro.campaigns, repro.experiments
"""
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
