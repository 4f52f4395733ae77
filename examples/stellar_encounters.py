"""Astrobiology search (ii): close stellar flybys that could perturb
planetary systems (paper §I).

Every habitable star is searched against the whole stellar database for
approaches within the perturbation distance; trajectory-level episodes
report when each encounter starts and how long it lasts.

Run:  python examples/stellar_encounters.py
"""

import numpy as np

from repro.data import random_dense_dataset

from astro import close_encounters


def main():
    rng = np.random.default_rng(7)
    stars = random_dense_dataset(scale=0.01)
    star_ids = np.unique(stars.traj_ids)
    habitable = rng.choice(star_ids, size=star_ids.size // 4,
                           replace=False)
    d_perturb = 0.03   # Oort-cloud-scale perturbation distance

    episodes = close_encounters(
        stars, d_perturb,
        habitable_star_ids=habitable,
        method="gpu_spatiotemporal", num_bins=200, num_subbins=4,
        strict_subbins=False)

    print(f"database: {star_ids.size} stars; "
          f"{habitable.size} habitable (queried)")
    print(f"{len(episodes)} close encounters within d = {d_perturb}\n")

    by_star: dict[int, int] = {}
    for ep in episodes:
        by_star[ep.star_id] = by_star.get(ep.star_id, 0) + 1

    print("most perturbed habitable stars:")
    for star, count in sorted(by_star.items(), key=lambda kv: -kv[1])[:8]:
        worst = min((ep for ep in episodes if ep.star_id == star),
                    key=lambda e: e.first_contact)
        print(f"  star {star:5d}: {count} encounters "
              f"(first at t = {worst.first_contact:.1f} "
              f"with star {worst.source_id})")

    quiet = set(int(s) for s in habitable) - set(by_star)
    print(f"\n{len(quiet)} habitable stars had no encounter at all — "
          "the dynamically quiet candidates for long-lived biospheres.")


if __name__ == "__main__":
    main()
