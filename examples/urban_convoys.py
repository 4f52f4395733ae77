"""GPS/GIS workload (paper §I): convoy detection in urban traffic.

Find vehicle pairs that stayed within d of each other for at least T
seconds — a classic moving-object-database query built directly on the
distance-threshold search: search, aggregate per pair, merge intervals,
filter by duration.

Run:  python examples/urban_convoys.py
"""

from repro.core.search import DistanceThresholdSearch

from gps import CityConfig, gps_dataset


def main():
    cfg = CityConfig(num_vehicles=120, blocks=8, duration=400.0)
    db = gps_dataset(cfg)
    print(f"city: {cfg.blocks}x{cfg.blocks} blocks, "
          f"{cfg.num_vehicles} vehicles, {len(db)} GPS segments")

    d = 25.0        # metres: same street, same direction
    min_dwell = 60.0  # seconds together to count as a convoy

    search = DistanceThresholdSearch(db, method="gpu_spatiotemporal",
                                     num_bins=200, num_subbins=4,
                                     strict_subbins=False)
    outcome = search.run(db, d, exclude_same_trajectory=True)
    print(f"{len(outcome.results)} proximity items, modeled "
          f"{outcome.modeled_seconds:.4f} s on the virtual GPU")

    tid = {int(s): int(t) for s, t in zip(db.seg_ids, db.traj_ids)}
    episodes = outcome.results.by_trajectory(tid, tid)

    convoys = {}
    for (a, b), intervals in episodes.items():
        if a >= b:
            continue  # count each unordered pair once
        dwell = max((hi - lo for lo, hi in intervals), default=0.0)
        if dwell >= min_dwell:
            convoys[(a, b)] = (dwell, intervals)

    print(f"\n{len(convoys)} convoys (pairs within {d} m for >= "
          f"{min_dwell:.0f} s continuously):")
    ranked = sorted(convoys.items(), key=lambda kv: -kv[1][0])
    for (a, b), (dwell, intervals) in ranked[:8]:
        longest = max(intervals, key=lambda iv: iv[1] - iv[0])
        print(f"  vehicles {a:3d} & {b:3d}: {dwell:5.0f} s together "
              f"(longest stretch t = {longest[0]:.0f}..{longest[1]:.0f})")


if __name__ == "__main__":
    main()
