"""Tests for the astrophysics helper module of the examples."""

import numpy as np
import pytest

from examples.astro import (HazardEpisode, Supernova, close_encounters,
                            supernova_exposure)
from repro.core.bruteforce import brute_force_search
from repro.core.types import SegmentArray, Trajectory


@pytest.fixture(scope="module")
def stars():
    """A tiny 'stellar neighbourhood': three stars on known paths."""
    mk = lambda tid, xs: Trajectory(
        tid, np.arange(len(xs), dtype=float),
        np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))]))
    return SegmentArray.from_trajectories([
        mk(0, [0.0, 0.0, 0.0, 0.0, 0.0]),     # stationary at origin
        mk(1, [10.0, 7.5, 5.0, 2.5, 0.5]),    # approaches star 0
        mk(2, [50.0, 50.0, 50.0, 50.0, 50.0]),  # far away
    ])


class TestSupernova:
    def test_event_trajectory(self):
        sn = Supernova(99, np.array([1.0, 2.0, 3.0]), 10.0, 2.5)
        traj = sn.as_trajectory()
        assert traj.traj_id == 99
        np.testing.assert_array_equal(traj.times, [10.0, 12.5])
        np.testing.assert_array_equal(traj.positions[0],
                                      traj.positions[1])

    def test_exposure_finds_nearby_star(self, stars):
        sn = [Supernova(100, np.array([0.0, 0.0, 0.0]), 0.0, 4.0)]
        episodes = supernova_exposure(stars, sn, 1.0,
                                      method="cpu_rtree")
        hit_stars = {e.star_id for e in episodes}
        assert 0 in hit_stars           # the star at the origin
        assert 2 not in hit_stars       # the far one
        for e in episodes:
            assert e.source_id == 100
            assert e.total_exposure > 0
            assert e.first_contact >= 0.0

    def test_exposure_respects_time_window(self, stars):
        """A supernova before the trajectories start hits nothing."""
        sn = [Supernova(100, np.zeros(3), -10.0, 5.0)]
        assert supernova_exposure(stars, sn, 1.0,
                                  method="cpu_rtree") == []

    def test_habitable_filter(self, stars):
        sn = [Supernova(100, np.zeros(3), 0.0, 4.0)]
        episodes = supernova_exposure(stars, sn, 100.0,
                                      habitable_star_ids=np.array([2]),
                                      method="cpu_rtree")
        assert {e.star_id for e in episodes} == {2}

    def test_no_supernovae(self, stars):
        assert supernova_exposure(stars, [], 1.0) == []


class TestCloseEncounters:
    def test_finds_the_flyby(self, stars):
        episodes = close_encounters(stars, 1.0, method="cpu_rtree")
        pairs = {(e.star_id, e.source_id) for e in episodes}
        assert (0, 1) in pairs and (1, 0) in pairs
        assert not any(e.star_id == e.source_id for e in episodes)

    def test_encounter_interval_matches_geometry(self, stars):
        episodes = close_encounters(stars, 1.0, method="cpu_rtree")
        ep = next(e for e in episodes
                  if e.star_id == 0 and e.source_id == 1)
        # Star 1 reaches x=1 at t = 3 + 1.5/2 = 3.75 (segment 2.5 -> 0.5).
        lo, hi = ep.intervals[0]
        assert lo == pytest.approx(3.75, abs=1e-9)
        assert hi == pytest.approx(4.0, abs=1e-9)

    def test_habitable_subset_queries_only(self, stars):
        episodes = close_encounters(stars, 1.0,
                                    habitable_star_ids=np.array([1]),
                                    method="cpu_rtree")
        assert all(e.star_id == 1 for e in episodes)
        assert close_encounters(
            stars, 1.0, habitable_star_ids=np.array([77]),
            method="cpu_rtree") == []

    def test_agrees_with_bruteforce_selfjoin(self, stars):
        episodes = close_encounters(stars, 2.0, method="cpu_rtree")
        truth = brute_force_search(stars, stars, 2.0,
                                   exclude_same_trajectory=True)
        tid = {int(s): int(t) for s, t in zip(stars.seg_ids,
                                              stars.traj_ids)}
        truth_pairs = {(tid[q], tid[e]) for q, e in truth.pairs()}
        assert {(e.star_id, e.source_id) for e in episodes} \
            == truth_pairs

    def test_engine_choice_irrelevant(self, stars):
        a = close_encounters(stars, 1.0, method="cpu_rtree")
        b = close_encounters(stars, 1.0, method="gpu_temporal",
                             num_bins=4)
        key = lambda eps: sorted((e.star_id, e.source_id,
                                  tuple(np.round(np.array(e.intervals),
                                                 9).ravel()))
                                 for e in eps)
        assert key(a) == key(b)


class TestHazardEpisode:
    def test_total_exposure_sums_intervals(self):
        e = HazardEpisode(1, 2, [(0.0, 1.5), (4.0, 4.5)])
        assert e.total_exposure == pytest.approx(2.0)
        assert e.first_contact == 0.0
