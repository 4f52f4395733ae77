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
                 "GpuCostModel"):
        assert hasattr(repro, name)
    from repro.core import plan_search, verify_results
    from repro.gpu import write_trace
    from repro.sharding import ShardedService
    assert callable(plan_search) and callable(verify_results)
    assert callable(write_trace)
    assert ShardedService


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
    from repro.service import EngineCache
    assert EngineCache and RequestMetrics and RetryPolicy
    assert NO_RETRY.max_attempts == 1
    assert GpuSpatialConfig and GpuSpatioTemporalConfig
    assert GpuTemporalConfig and CpuRTreeConfig


#: every settable constructor value of the serving layer and of the
#: policy objects its constructors take, by class.
OPTION_SURFACE = {
    ("repro.service", "QueryService"): {
        "num_devices", "retry", "telemetry", "faults", "breaker_reset_s",
        "lane_quarantine_s", "crosscheck_every", "compaction", "auto_compact",
        "durability_dir", "durability", "durability_kill"},
    ("repro.sharding", "ShardedService"): {
        "num_shards", "replicas_per_shard", "strategy",
        "durability_root", "telemetry", "service_kwargs"},
    ("repro.gateway", "Gateway"): {
        "queue_depth", "est_service_s", "clock", "telemetry"},
    ("repro.gateway", "BrownoutLadder"): set(),
    ("repro.standing", "StandingQueryManager"): {"store", "telemetry"},
    ("repro.obs", "Telemetry"): {"enabled", "slow_query_threshold_s"},
    ("repro.engines", "RetryPolicy"): {"max_attempts", "backoff_s"},
    ("repro.ingest", "CompactionPolicy"): {
        "max_delta_segments", "max_delta_ratio"},
    ("repro.durability", "DurabilityPolicy"): {
        "sync", "checkpoint_every"},
    ("repro.service", "CircuitBreaker"): {"reset_after_s"},
    ("repro.service", "LaneHealth"): set(),
}

#: runtime state of the resilience state machines: dataclass fields,
#: never constructor parameters.
STATE_FIELDS = {
    ("repro.service", "CircuitBreaker"): {
        "state", "consecutive_failures", "opened_at", "skips", "trips"},
    ("repro.service", "LaneHealth"): {
        "state", "consecutive_failures", "quarantined_until",
        "quarantine_count"},
}


def _signature(owner):
    import inspect
    cls = getattr(importlib.import_module(owner[0]), owner[1])
    return cls, inspect.signature(cls).parameters.values()


@pytest.mark.parametrize("owner", sorted(OPTION_SURFACE),
                         ids=lambda owner: owner[1])
def test_option_surface_is_pinned(owner):
    """The exact settable set of each constructor, so a new knob (or a
    dropped one) is a visible diff in this file."""
    import dataclasses
    cls, params = _signature(owner)
    assert {p.name for p in params if p.default is not p.empty} \
        == OPTION_SURFACE[owner]
    if not dataclasses.is_dataclass(cls):
        # A service's settable values are all keywords: nothing with a
        # default hides among its positional parameters.
        assert all(p.kind is p.KEYWORD_ONLY for p in params
                   if p.default is not p.empty)


def test_option_census_total():
    assert sum(len(names) for names in OPTION_SURFACE.values()) == 33


def test_engines_take_their_config():
    """An engine's knobs live in its config alone: the constructor is
    ``(database, config=<its config>())`` plus, at most, ``gpu`` and
    ``retry``, so no config field reappears as a keyword."""
    import inspect

    from repro.engines import available, get_engine
    for name in available():
        cls = get_engine(name)
        params = inspect.signature(cls).parameters
        assert list(params)[:2] == ["database", "config"], name
        assert set(params) <= {"database", "config", "gpu", "retry"}, name
        assert params["config"].default == cls.config_type(), name
        assert not set(params) & set(cls.config_type.valid_keys()), name


#: the keyword parameters of the serving calls, so a per-request
#: option is a visible diff in this file, as a constructor knob is in
#: OPTION_SURFACE.
CALL_SURFACE = {
    ("repro.service", "QueryService", "submit"): set(),
    ("repro.service", "QueryService", "submit_batch"): set(),
    ("repro.service", "QueryService", "ingest"): {"idempotency_key"},
    ("repro.service", "QueryService", "delete_trajectory"): {
        "idempotency_key"},
    ("repro.sharding", "ShardedService", "submit"): set(),
    ("repro.sharding", "ShardedService", "ingest"): {"idempotency_key"},
    ("repro.sharding", "ShardedService", "delete_trajectory"): {
        "idempotency_key"},
}


@pytest.mark.parametrize("call", sorted(CALL_SURFACE),
                         ids=lambda call: f"{call[1]}.{call[2]}")
def test_call_surface_is_pinned(call):
    import inspect
    cls = getattr(importlib.import_module(call[0]), call[1])
    params = inspect.signature(getattr(cls, call[2])).parameters.values()
    assert {p.name for p in params
            if p.kind is p.KEYWORD_ONLY or p.default is not p.empty} \
        == CALL_SURFACE[call]


def test_the_traced_e2e_run_still_reaches_its_hooks(
        small_db, small_queries, monkeypatch):
    """``benchmarks/e2e/server.py::install_tracing`` wraps
    ``QueryService.__dict__[name]`` for the names below and the module
    globals ``repro.service.scheduler.plan_search`` / ``overlay_search``.
    If a refactor moves one, the traced benchmark run dies on a
    ``KeyError`` or reads ``core.planner.plan_ms`` /
    ``ingest.overlay_ms`` as 0, and no other check fails."""
    from collections import Counter

    from repro.service import QueryService, SearchRequest, scheduler
    assert {"submit", "ingest", "delete_trajectory", "_compact"} \
        <= QueryService.__dict__.keys()
    calls = Counter()

    def counting(name):
        real = getattr(scheduler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for name in ("plan_search", "overlay_search"):
        monkeypatch.setattr(scheduler, name, counting(name))
    svc = QueryService(small_db, auto_compact=False)
    assert svc.submit(SearchRequest(queries=small_queries, d=2.5,
                                    method="auto")).ok
    assert calls == {"plan_search": 1}
    svc.ingest(small_queries)  # the snapshot is dirty now
    assert svc.submit(SearchRequest(queries=small_queries, d=2.5,
                                    method="cpu_scan")).ok
    assert calls == {"plan_search": 1, "overlay_search": 1}


@pytest.mark.parametrize("owner", sorted(STATE_FIELDS),
                         ids=lambda owner: owner[1])
def test_state_is_not_a_constructor_parameter(owner):
    import dataclasses
    cls, params = _signature(owner)
    assert not STATE_FIELDS[owner] & {p.name for p in params}
    assert {f.name for f in dataclasses.fields(cls) if not f.init} \
        == STATE_FIELDS[owner]


#: every reader under ``src/repro`` — a ``from_dict`` / ``from_jsonl`` /
#: ``from_payload`` / ``restore`` method that builds an object back from
#: what a writer produced — with the program outside ``tests/`` that
#: reads it.  A format nobody reads back keeps only its writer, so a new
#: reader needs a caller and an entry here.
READERS = {
    # gateway/http.py (/v1/ingest), SearchRequest / Subscription /
    # Mutation decoding below
    "core/types.py::SegmentArray.from_dict",
    # benchmarks/e2e/verify.py decodes every served answer
    "core/result.py::ResultSet.from_dict",
    # gateway/http.py (/v1/search), cli.py (batch --requests)
    "service/requests.py::SearchRequest.from_dict",
    # durability/wal.py (WriteAheadLog reading its own frames)
    "durability/wal.py::WalRecord.from_dict",
    # durability/checkpoint.py (loading a checkpoint's recipes)
    "durability/checkpoint.py::EngineRecipe.from_dict",
    # durability/manager.py (WAL replay)
    "ingest/mutation.py::Mutation.from_payload",
    # durability/manager.py (recovery from a checkpoint)
    "ingest/versioned.py::VersionedDatabase.restore",
    # standing/manager.py (recovery from standing/state.json)
    "standing/subscription.py::Subscription.from_dict",
}

READER_NAMES = ("from_dict", "from_jsonl", "from_payload", "restore")


def test_reader_surface_is_pinned():
    """No deserializer survives with only tests to call it."""
    import ast
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    found = set()
    for path in sorted(root.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                found |= {f"{path.relative_to(root).as_posix()}::"
                          f"{cls.name}.{fn.name}"
                          for fn in cls.body
                          if isinstance(fn, ast.FunctionDef)
                          and fn.name in READER_NAMES}
    assert found == READERS


#: public names under ``src/repro`` that stay although nothing outside
#: ``tests/`` calls them, each with its reason.
KEPT = {
    "service/scheduler.py::QueryService.unregister_subscription":
        "the inverse of register_subscription, which the standing "
        "campaign calls: a caller that can subscribe can unsubscribe",
}


def test_no_public_name_only_tests_call():
    """Code stays in ``src/`` only if something outside ``tests/`` runs
    it: every public top-level ``def`` / ``class`` under ``src/repro``,
    and every public method or property of a top-level class, occurs as
    a NAME token in ``src/repro`` (package ``__init__.py`` re-exports
    excluded), ``benchmarks/`` or ``examples/`` beyond its own
    definitions.  A token scan cannot tell a call from a same-named
    local or attribute, so it misses names that are also common words;
    it catches every name nobody spells at all."""
    import ast
    import io
    import tokenize
    from collections import Counter
    root = Path(__file__).resolve().parent.parent
    src = root / "src" / "repro"
    program = [p for p in sorted(src.rglob("*.py"))
               if p.name != "__init__.py"]
    spelled: Counter[str] = Counter()
    for path in (program + sorted((root / "benchmarks").rglob("*.py"))
                 + sorted((root / "examples").rglob("*.py"))):
        spelled.update(
            tok.string for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline)
            if tok.type == tokenize.NAME)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined: Counter[str] = Counter()
    public = []
    for path in program:
        where = path.relative_to(src).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            members = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(fn.name, f"{node.name}.{fn.name}")
                            for fn in node.body if isinstance(fn, defs)]
            for name, qualname in members:
                defined[name] += 1
                if not name.startswith("_"):
                    public.append((name, f"{where}::{qualname}"))
    unused = {qualname for name, qualname in public
              if spelled[name] <= defined[name]}
    assert unused - KEPT.keys() == set(), sorted(unused - KEPT.keys())
    assert KEPT.keys() <= unused, "a kept name has a caller now"


def test_census_covers_every_entry_point():
    """``benchmarks/traffic_census.py`` (CI's ``census`` job) keeps no
    entry for a function that is gone, and its traffic starts every
    CLI subcommand and every campaign scenario, so a new one cannot
    escape it.  Imports the census without running it."""
    import argparse
    import importlib.util

    from repro.campaigns import SCENARIOS
    from repro.cli import build_parser
    path = Path(__file__).resolve().parent.parent / "benchmarks" \
        / "traffic_census.py"
    spec = importlib.util.spec_from_file_location("traffic_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.KEPT.keys() <= set(census.public_functions().values())
    assert all(reason.strip() for reason in census.KEPT.values())
    campaigns = census.campaign_calls(Path("tmp")).values()
    calls = [*campaigns, *census.cli_calls(Path("tmp")).values()]
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert {argv[0] for argv in calls} == set(subcommands)
    assert {argv[1] for argv in campaigns} == set(SCENARIOS)


def test_register_engine_decorator():
    """@register_engine is the supported extension point."""
    import pytest

    from repro.core.search import register_engine
    from repro.engines import CpuScanEngine, SearchEngine, get_engine
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

    # Every consumer builds through ``config_type``: an engine without
    # an EngineConfig subclass there is refused, by name.
    class _Untyped(CpuScanEngine):
        """Test double."""
        config_type = dict

    class _Bare(SearchEngine):
        """Test double."""

    for cls in (_Untyped, _Bare):
        with pytest.raises(TypeError, match=cls.__name__):
            register_engine("_untyped_test_engine")(cls)
        assert "_untyped_test_engine" not in _REGISTRY
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
