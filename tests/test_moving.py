"""Moving-objects workload generator: determinism, churn, continuity."""

import numpy as np
import pytest

from repro.data.moving import (EpochDelta, FleetConfig,
                               MovingObjectsWorkload)

FIELDS = ("xs", "ys", "zs", "ts", "xe", "ye", "ze", "te",
          "traj_ids", "seg_ids")


def epoch_bytes(delta: EpochDelta) -> bytes:
    return b"".join(getattr(delta.segments, f).tobytes()
                    for f in FIELDS)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_same_seed_byte_identical_epochs(self, seed):
        a = MovingObjectsWorkload(seed=seed)
        b = MovingObjectsWorkload(seed=seed)
        for ea, eb in zip(a.epochs(12), b.epochs(12)):
            assert ea.arrivals == eb.arrivals
            assert ea.departures == eb.departures
            assert ea.active == eb.active
            assert epoch_bytes(ea) == epoch_bytes(eb)

    def test_different_seeds_diverge(self):
        a = MovingObjectsWorkload(seed=0)
        b = MovingObjectsWorkload(seed=1)
        streams = [epoch_bytes(d) for d in a.epochs(5)], \
                  [epoch_bytes(d) for d in b.epochs(5)]
        assert streams[0] != streams[1]

    def test_stream_is_stateful_not_repeating(self):
        w = MovingObjectsWorkload(seed=3)
        first, second = w.next_epoch(), w.next_epoch()
        assert epoch_bytes(first) != epoch_bytes(second)
        assert second.index == first.index + 1


class TestChurn:
    def test_arrival_rate_matches_config(self):
        cfg = FleetConfig(arrival_rate=0.25, departure_rate=0.0)
        w = MovingObjectsWorkload(config=cfg, seed=11)
        epochs = w.epochs(300)
        arrivals = sum(len(e.arrivals) for e in epochs)
        expected = cfg.num_fleets * cfg.arrival_rate * len(epochs)
        # Binomial(900, 0.25): 3 sigma is ~39 around 225.
        assert abs(arrivals - expected) < 4 * np.sqrt(
            expected * (1 - cfg.arrival_rate))

    def test_departure_rate_matches_config(self):
        cfg = FleetConfig(num_fleets=4, vehicles_per_fleet=10,
                          arrival_rate=0.5, departure_rate=0.1)
        w = MovingObjectsWorkload(config=cfg, seed=5)
        departures = trials = 0
        for e in w.epochs(200):
            trials += len(e.active) + len(e.departures)
            departures += len(e.departures)
        rate = departures / trials
        assert 0.05 < rate < 0.15

    def test_min_active_floor_is_respected(self):
        cfg = FleetConfig(num_fleets=1, vehicles_per_fleet=3,
                          arrival_rate=0.0, departure_rate=1.0)
        w = MovingObjectsWorkload(config=cfg, seed=0)
        for e in w.epochs(10):
            assert len(e.active) >= cfg.min_active

    def test_ids_never_reused(self):
        cfg = FleetConfig(arrival_rate=0.6, departure_rate=0.3)
        w = MovingObjectsWorkload(config=cfg, seed=9)
        seen_departed: set[int] = set()
        for e in w.epochs(60):
            emitted = set(np.unique(e.segments.traj_ids).tolist())
            assert not emitted & seen_departed, \
                "a departed vehicle emitted again"
            assert not set(e.arrivals) & seen_departed
            seen_departed.update(e.departures)


class TestContinuity:
    def test_chunks_concatenate_into_gap_free_trajectories(self):
        w = MovingObjectsWorkload(seed=2)
        last: dict[int, tuple[float, float, float, float]] = {}
        for e in w.epochs(8):
            s = e.segments
            for tid in np.unique(s.traj_ids).tolist():
                rows = np.flatnonzero(s.traj_ids == tid)
                ts, te = s.ts[rows], s.te[rows]
                order = np.argsort(ts)
                # contiguous within the epoch chunk...
                assert np.allclose(ts[order][1:], te[order][:-1])
                if tid in last:
                    # ...and with the previous epoch's endpoint.
                    pt, px, py, pz = last[tid]
                    j = rows[order[0]]
                    assert s.ts[j] == pt
                    assert (s.xs[j], s.ys[j], s.zs[j]) == (px, py, pz)
                k = rows[order[-1]]
                last[tid] = (float(s.te[k]), float(s.xe[k]),
                             float(s.ye[k]), float(s.ze[k]))

    def test_epoch_time_grid(self):
        cfg = FleetConfig(epoch_steps=3, dt=0.5, departure_rate=0.0,
                          arrival_rate=0.0)
        w = MovingObjectsWorkload(config=cfg, seed=0)
        for i, e in enumerate(w.epochs(4)):
            lo, hi = float(e.segments.ts.min()), float(e.segments.te.max())
            assert lo == pytest.approx(i * cfg.epoch_steps * cfg.dt)
            assert hi == pytest.approx((i + 1) * cfg.epoch_steps
                                       * cfg.dt)


class TestConfigValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FleetConfig(arrival_rate=1.5)
        with pytest.raises(ValueError):
            FleetConfig(departure_rate=-0.1)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetConfig(num_fleets=0)

    def test_rejects_low_min_active(self):
        with pytest.raises(ValueError):
            FleetConfig(min_active=1)
