"""Tests for the dataset generators and IO."""

import numpy as np
import pytest

from repro.data.io import load_segments, save_segments
from repro.data.merger import MergerConfig, merger_dataset, simulate_merger
from repro.data.queries import queries_from_database, query_trajectory_ids
from repro.data.random_walk import (REID_STELLAR_DENSITY,
                                    make_random_walks, random_dataset,
                                    random_dense_dataset)


class TestRandomWalks:
    def test_shapes_and_counts(self):
        trajs = make_random_walks(num_trajectories=5, num_timesteps=10,
                                  box_side=10.0, step_sigma=1.0)
        assert len(trajs) == 5
        assert all(t.num_points == 10 for t in trajs)

    def test_start_time_range(self):
        trajs = make_random_walks(num_trajectories=50, num_timesteps=3,
                                  box_side=1.0, step_sigma=0.1,
                                  start_time_range=(5.0, 9.0),
                                  rng=np.random.default_rng(0))
        starts = np.array([t.times[0] for t in trajs])
        assert starts.min() >= 5.0 and starts.max() <= 9.0
        assert starts.std() > 0  # actually random

    def test_deterministic_given_rng(self):
        a = make_random_walks(num_trajectories=3, num_timesteps=4,
                              box_side=1.0, step_sigma=0.1,
                              rng=np.random.default_rng(7))
        b = make_random_walks(num_trajectories=3, num_timesteps=4,
                              box_side=1.0, step_sigma=0.1,
                              rng=np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positions, y.positions)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_random_walks(num_trajectories=0, num_timesteps=5,
                              box_side=1.0, step_sigma=0.1)
        with pytest.raises(ValueError):
            make_random_walks(num_trajectories=2, num_timesteps=1,
                              box_side=1.0, step_sigma=0.1)

    def test_random_dataset_paper_shape(self):
        """At scale s: ~2500*s walks of 400 steps, starts in [0, 100]."""
        db = random_dataset(scale=0.01)
        assert db.num_trajectories == 25
        assert len(db) == 25 * 399
        assert db.ts.min() >= 0.0
        # starts within [0,100], extents 399 long
        assert db.te.max() <= 100.0 + 399.0 + 1e-9

    def test_random_dense_density(self):
        """Unit cube at the Reid-et-al-derived normalization: N walkers
        temporally co-extensive over 193 steps."""
        db = random_dense_dataset(scale=0.005)
        n = max(2, round(65536 * 0.005))
        assert db.num_trajectories == n
        assert len(db) == n * 192
        # Temporally co-extensive snapshots.
        assert np.unique(db.ts).size == 192
        assert REID_STELLAR_DENSITY == pytest.approx(0.112)


class TestMerger:
    @pytest.fixture(scope="class")
    def cfg(self):
        # Few snapshots but enough substeps to keep the leapfrog dt at
        # production resolution (the integrator needs dt ~ 0.08 near the
        # softened cores regardless of how often we *record*).
        return MergerConfig(particles_per_disk=64, num_snapshots=25,
                            substeps=32)

    def test_shapes(self, cfg):
        times, pos = simulate_merger(cfg)
        assert times.shape == (25,)
        assert pos.shape == (25, 128, 3)
        assert np.all(np.isfinite(pos))

    def test_dataset_conversion(self, cfg):
        db = merger_dataset(cfg=cfg)
        assert db.num_trajectories == 128
        assert len(db) == 128 * 24

    def test_disks_approach_then_interact(self, cfg):
        """Halo separation shrinks to a pericenter passage — the merger
        actually happens."""
        times, pos = simulate_merger(cfg)
        com1 = pos[:, :64].mean(axis=1)
        com2 = pos[:, 64:].mean(axis=1)
        sep = np.linalg.norm(com1 - com2, axis=1)
        assert sep.min() < 0.5 * sep[0]

    def test_deterministic(self, cfg):
        _, a = simulate_merger(cfg)
        _, b = simulate_merger(cfg)
        np.testing.assert_array_equal(a, b)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MergerConfig(particles_per_disk=0)
        with pytest.raises(ValueError):
            MergerConfig(substeps=0)

    def test_bounded_system(self, cfg):
        """The bound orbit keeps the system compact (no mass ejection
        blow-up) — required for the paper's d = 0.001..5 sweep to be
        meaningful."""
        db = merger_dataset(cfg=cfg)
        r = np.sqrt(db.xe ** 2 + db.ye ** 2 + db.ze ** 2)
        assert np.median(r) < 30.0


class TestQueries:
    def test_from_database(self, small_db):
        q = queries_from_database(small_db, 4,
                                  rng=np.random.default_rng(0))
        assert q.num_trajectories == 4
        # Query segments are verbatim database rows (ids preserved).
        assert set(q.seg_ids).issubset(set(small_db.seg_ids))

    def test_too_many_requested(self, small_db):
        with pytest.raises(ValueError, match="only"):
            queries_from_database(small_db, 10_000)

    def test_trajectory_ids_sorted_unique(self, small_db):
        ids = query_trajectory_ids(small_db, 5,
                                   rng=np.random.default_rng(0))
        assert np.all(np.diff(ids) > 0)


class TestIO:
    def test_roundtrip(self, small_db, tmp_path):
        path = tmp_path / "db.npz"
        save_segments(path, small_db)
        loaded = load_segments(path)
        assert loaded == small_db

    def test_roundtrip_pathlike(self, small_db, tmp_path):
        """Both directions accept os.PathLike, not just str — a
        save_segments return value (a Path) loads directly."""
        import os

        class _PathLike:
            def __init__(self, p):
                self._p = p

            def __fspath__(self):
                return str(self._p)

        final = save_segments(_PathLike(tmp_path / "db"), small_db)
        assert isinstance(final, os.PathLike)
        assert final.name == "db.npz"
        assert load_segments(final) == small_db
        assert load_segments(_PathLike(final)) == small_db
        assert load_segments(str(final)) == small_db

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a segment database"):
            load_segments(path)
