"""Astrobiology search (i): which habitable stars pass within the lethal
radius of a supernova, and when (paper §I).

A stellar neighbourhood at the solar density hosts a handful of supernova
events; we report every habitable star whose trajectory enters the hazard
radius during an event window, with its cumulative exposure.

Run:  python examples/supernova_sterilization.py
"""

import numpy as np

from repro.data import random_dense_dataset

from astro import Supernova, supernova_exposure


def main():
    rng = np.random.default_rng(42)
    stars = random_dense_dataset(scale=0.01)   # ~655 stars, 193 steps
    n_stars = stars.num_trajectories
    print(f"stellar database: {n_stars} stars, {len(stars)} segments")

    # A third of the stars host potentially habitable planets.
    habitable = rng.choice(np.unique(stars.traj_ids),
                           size=n_stars // 3, replace=False)

    # Five supernovae at random epochs and positions; the hazard radius
    # (ozone-depletion distance) is a sizeable fraction of the box.
    t_lo, t_hi = stars.temporal_extent
    supernovae = [
        Supernova(event_id=10_000 + k,
                  position=rng.uniform(0.2, 0.8, 3),
                  t_start=rng.uniform(t_lo, t_hi - 20.0),
                  duration=15.0)
        for k in range(5)
    ]
    hazard_radius = 0.08

    episodes = supernova_exposure(
        stars, supernovae, hazard_radius,
        habitable_star_ids=habitable,
        method="gpu_spatiotemporal", num_bins=200, num_subbins=4,
        strict_subbins=False)

    print(f"\n{len(episodes)} habitable-star exposures within "
          f"d = {hazard_radius} of a supernova:")
    for ep in sorted(episodes, key=lambda e: -e.total_exposure)[:10]:
        windows = ", ".join(f"[{lo:.1f}, {hi:.1f}]"
                            for lo, hi in ep.intervals)
        print(f"  star {ep.star_id:5d} near SN {ep.source_id}: "
              f"exposure {ep.total_exposure:6.2f} time units "
              f"during {windows}")

    sterilized = {ep.star_id for ep in episodes}
    print(f"\n{len(sterilized)} of {habitable.size} habitable stars "
          f"were exposed at least once.")


if __name__ == "__main__":
    main()
