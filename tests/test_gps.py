"""Tests for the GPS grid-city trajectory generator of the examples."""

import numpy as np
import pytest

from examples.gps import CityConfig, gps_dataset


@pytest.fixture(scope="module")
def city():
    cfg = CityConfig(num_vehicles=20, blocks=4, duration=120.0,
                     sample_period=5.0)
    return cfg, gps_dataset(cfg)


class TestCityConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CityConfig(num_vehicles=0)
        with pytest.raises(ValueError):
            CityConfig(speed=0)
        with pytest.raises(ValueError):
            CityConfig(duration=1.0, sample_period=5.0)


class TestGpsDataset:
    def test_counts(self, city):
        cfg, db = city
        assert db.num_trajectories == cfg.num_vehicles
        samples = int(cfg.duration / cfg.sample_period) + 1
        assert len(db) == cfg.num_vehicles * (samples - 1)

    def test_positions_inside_city(self, city):
        cfg, db = city
        side = cfg.blocks * cfg.block_size
        for arr in (db.xs, db.xe, db.ys, db.ye):
            assert arr.min() >= -1e-9
            assert arr.max() <= side + 1e-9
        assert np.all(db.zs == 0.0) and np.all(db.ze == 0.0)

    def test_speed_limit_respected(self, city):
        """Between consecutive fixes a vehicle moves at most
        speed * sample_period (Manhattan metric)."""
        cfg, db = city
        manhattan = (np.abs(db.xe - db.xs) + np.abs(db.ye - db.ys))
        assert np.all(manhattan <= cfg.speed * cfg.sample_period + 1e-6)

    def test_vehicles_stay_on_grid_axes(self, city):
        """Within one sample interval the vehicle moves along at most
        one turn, so displacement is axis-dominated — and the data is
        effectively 2-D."""
        cfg, db = city
        # Every endpoint lies on a street: x or y a multiple of the
        # block size.
        on_street = (
            np.isclose(db.xs % cfg.block_size, 0.0)
            | np.isclose(db.xs % cfg.block_size, cfg.block_size)
            | np.isclose(db.ys % cfg.block_size, 0.0)
            | np.isclose(db.ys % cfg.block_size, cfg.block_size))
        assert np.all(on_street)

    def test_deterministic(self):
        cfg = CityConfig(num_vehicles=5, blocks=3, duration=60.0)
        assert gps_dataset(cfg) == gps_dataset(cfg)

    def test_searchable(self, city):
        """The dataset works end to end with the engines."""
        from repro.core.bruteforce import brute_force_search
        from repro.engines import (GpuSpatioTemporalConfig,
                                   GpuSpatioTemporalEngine)
        cfg, db = city
        queries = db.take(np.arange(60))
        engine = GpuSpatioTemporalEngine(db, GpuSpatioTemporalConfig(
            num_bins=24, num_subbins=2, strict_subbins=False))
        res, _ = engine.search(queries, 30.0)
        truth = brute_force_search(queries, db, 30.0)
        assert res.equivalent_to(truth)
