"""Standing queries maintained by full re-evaluation: the referee for
the delta path.

:class:`~repro.standing.StandingQueryManager` changes each held answer
by the epoch's delta alone.  The standing layer used to settle every
affected subscription from scratch instead: a ``cpu_scan`` over the
snapshot's whole base (one engine cached per base version), lifted
through the delta overlay (tombstone filter + delta scan), clipped to
the window, and diffed against a ``(q_id, e_id) -> (t_lo, t_hi)`` dict
of the held answer.  :class:`ReferenceStandingManager` is that path,
unchanged in meaning, with the same affected-set rules (envelope on an
append, held entries on a delete, nobody on a compact), the same seq
stamping and the same event order: per affected subscription in sorted
order, its removed pairs then its added pairs, each sorted.

``tests/test_standing_delta.py`` drives it beside the manager over one
database and holds both event streams and both answers byte-equal
after every epoch.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ResultSet
from repro.core.search import SearchOutcome
from repro.engines.cpu_scan import CpuScanEngine
from repro.gpu.costmodel import price
from repro.ingest.overlay import overlay_search

#: one held answer: ``(q_id, e_id) -> (t_lo, t_hi)``.
MatchDict = dict[tuple[int, int], tuple[float, float]]


def matches_from_results(results: ResultSet) -> MatchDict:
    canon = results.canonical()
    return {
        (int(q), int(e)): (float(lo), float(hi))
        for q, e, lo, hi in zip(canon.q_ids.tolist(),
                                canon.e_ids.tolist(),
                                canon.t_lo.tolist(),
                                canon.t_hi.tolist())
    }


def results_from_matches(matches: MatchDict) -> ResultSet:
    """Match dict → canonical ResultSet (sorted by ``(q_id, e_id)``)."""
    if not matches:
        return ResultSet()
    rows = sorted(matches.items())
    return ResultSet(
        np.array([k[0] for k, _ in rows], dtype=np.int64),
        np.array([k[1] for k, _ in rows], dtype=np.int64),
        np.array([v[0] for _, v in rows], dtype=np.float64),
        np.array([v[1] for _, v in rows], dtype=np.float64))


class ReferenceStandingManager:
    """Subscriptions re-evaluated over the whole snapshot every time
    the delta could have changed them."""

    def __init__(self) -> None:
        self.subscriptions = {}
        self._envelopes = {}
        self._matches: dict[str, MatchDict] = {}
        self._seq = 0
        self.events: list[dict] = []
        self._base_engine_cache: tuple[int, CpuScanEngine] | None = None

    def register(self, sub, snapshot) -> None:
        self.subscriptions[sub.sub_id] = sub
        self._envelopes[sub.sub_id] = sub.envelope()
        self._matches[sub.sub_id] = self._evaluate(sub, snapshot)

    def results(self, sub_id: str) -> ResultSet:
        return results_from_matches(self._matches[sub_id])

    def process_mutation(self, database, mutation) -> list[str]:
        """Settle the epoch ``mutation`` just produced; returns the
        affected sub_ids."""
        if not self.subscriptions:
            return []
        snapshot = database.snapshot()
        affected = self._affected(snapshot, mutation.op,
                                  mutation.segments, mutation.traj_id)
        self._settle(affected, snapshot)
        return affected

    def _affected(self, snapshot, kind, appended, deleted_traj):
        if kind == "compact" or not self.subscriptions:
            return []
        if kind == "append":
            return [sub_id for sub_id in sorted(self.subscriptions)
                    if self._envelopes[sub_id].intersects(appended)]
        doomed = set(
            snapshot.seg_ids_of_trajectory(deleted_traj).tolist())
        return [sub_id for sub_id in sorted(self.subscriptions)
                if any(e in doomed
                       for (_q, e) in self._matches[sub_id])]

    def _base_engine(self, snapshot) -> CpuScanEngine:
        cached = self._base_engine_cache
        if cached is None or cached[0] != snapshot.base_version:
            cached = (snapshot.base_version,
                      CpuScanEngine(snapshot.base))
            self._base_engine_cache = cached
        return cached[1]

    def _evaluate(self, sub, snapshot) -> MatchDict:
        """Base scan, lifted through the overlay, clipped to the
        window."""
        engine = self._base_engine(snapshot)
        results, profile = engine.search(
            sub.queries, sub.d,
            exclude_same_trajectory=sub.exclude_same_trajectory)
        outcome = SearchOutcome(results=results, profile=profile,
                                modeled=price(profile))
        outcome, _ = overlay_search(
            outcome, snapshot, sub.queries, sub.d,
            exclude_same_trajectory=sub.exclude_same_trajectory)
        return matches_from_results(sub.apply_window(outcome.results))

    def _settle(self, sub_ids, snapshot) -> None:
        for sub_id in sub_ids:
            new = self._evaluate(self.subscriptions[sub_id], snapshot)
            old = self._matches[sub_id]
            self._matches[sub_id] = new
            for key in sorted(k for k in old if k not in new):
                self._record("match_removed", sub_id, snapshot.epoch,
                             key, *old[key])
            for key in sorted(k for k in new if k not in old):
                self._record("match_added", sub_id, snapshot.epoch,
                             key, *new[key])

    def _record(self, kind, sub_id, epoch, key, lo, hi) -> None:
        self._seq += 1
        self.events.append({
            "seq": self._seq, "epoch": int(epoch), "kind": kind,
            "sub_id": sub_id, "q_id": int(key[0]), "e_id": int(key[1]),
            "t_lo": float(lo), "t_hi": float(hi)})
