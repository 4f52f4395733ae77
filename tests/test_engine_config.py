"""Typed per-engine configuration: validation, nearest-key suggestions,
JSON-friendly ``to_dict``, and façade integration."""

import pytest

from repro.core.search import DistanceThresholdSearch
from repro.engines import (ConfigError, CpuRTreeConfig, CpuRTreeEngine,
                           CpuScanConfig, GpuSpatialConfig,
                           GpuSpatioTemporalConfig, GpuTemporalConfig,
                           GpuTemporalEngine)

ALL_CONFIGS = [GpuTemporalConfig, GpuSpatioTemporalConfig,
               GpuSpatialConfig, CpuRTreeConfig, CpuScanConfig]


class TestValidation:
    def test_defaults_are_valid(self):
        for cls in ALL_CONFIGS:
            cfg = cls()
            assert cfg.engine in repr(type(cfg).__name__).lower() \
                or cfg.engine  # engine label set on every config

    def test_unknown_key_names_engine_and_suggests(self):
        with pytest.raises(ConfigError) as exc:
            GpuTemporalConfig.from_params(num_bin=40)
        msg = str(exc.value)
        assert "gpu_temporal" in msg
        assert "num_bin" in msg and "'num_bins'" in msg

    def test_unknown_key_without_close_match_lists_valid(self):
        with pytest.raises(ConfigError) as exc:
            CpuRTreeConfig.from_params(zzz=1)
        assert "valid:" in str(exc.value)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "10"])
    def test_positive_int_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            GpuTemporalConfig(num_bins=bad)

    def test_rtree_enum_and_bounds(self):
        with pytest.raises(ConfigError):
            CpuRTreeConfig(build_method="bulk")
        with pytest.raises(ConfigError):
            CpuRTreeConfig(fanout=1)

    def test_spatial_cells_tuple_normalized(self):
        cfg = GpuSpatialConfig(cells_per_dim=[4, 5, 6])
        assert cfg.cells_per_dim == (4, 5, 6)
        with pytest.raises(ConfigError):
            GpuSpatialConfig(cells_per_dim=(4, 5))


class TestSerialization:
    @pytest.mark.parametrize("cls", ALL_CONFIGS)
    def test_round_trip(self, cls):
        import json
        cfg = cls()
        back = cls.from_params(**json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_spatial_tuple_survives_json(self):
        import json
        cfg = GpuSpatialConfig(cells_per_dim=(3, 4, 5))
        back = GpuSpatialConfig.from_params(
            **json.loads(json.dumps(cfg.to_dict())))
        assert back.cells_per_dim == (3, 4, 5)


class TestFacadeIntegration:
    def test_facade_rejects_unknown_param(self, small_db):
        with pytest.raises(ConfigError, match="did you mean"):
            DistanceThresholdSearch(small_db, method="gpu_temporal",
                                    num_bin=40)

    def test_facade_accepts_config_object(self, small_db, small_queries):
        cfg = GpuTemporalConfig(num_bins=40)
        search = DistanceThresholdSearch(small_db, method="gpu_temporal",
                                         config=cfg)
        outcome = search.run(small_queries, 2.0)
        assert len(outcome.results) >= 0
        assert search.engine.index.num_bins == 40

    def test_config_and_params_mutually_exclusive(self, small_db):
        with pytest.raises(ValueError, match="either"):
            DistanceThresholdSearch(
                small_db, method="gpu_temporal",
                config=GpuTemporalConfig(), num_bins=40)

    def test_config_type_mismatch_rejected(self, small_db):
        with pytest.raises(TypeError):
            GpuTemporalEngine.from_config(small_db, CpuRTreeConfig())

    def test_from_config_builds_equivalent_engine(self, small_db,
                                                  small_queries):
        direct = CpuRTreeEngine(small_db, CpuRTreeConfig(segments_per_mbb=2))
        via_cfg = CpuRTreeEngine.from_config(
            small_db, CpuRTreeConfig(segments_per_mbb=2))
        r1, _ = direct.search(small_queries, 2.0)
        r2, _ = via_cfg.search(small_queries, 2.0)
        assert r1.equivalent_to(r2)
