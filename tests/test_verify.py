"""Tests for the independent result verifier."""

import numpy as np
import pytest

from repro.core.result import ResultSet
from repro.core.verify import verify_results
from repro.engines import GpuSpatioTemporalEngine, GpuTemporalEngine


class TestVerifyPasses:
    def test_correct_results_pass(self, db_queries_truth):
        db, queries, d, truth = db_queries_truth
        report = verify_results(truth, queries, db, d)
        assert report.ok
        assert report.items_checked == len(truth)
        assert report.pairs_spot_checked > 0
        report.raise_on_failure()  # no-op when ok

    @pytest.mark.parametrize("factory", [
        lambda db: GpuTemporalEngine(db, num_bins=40),
        lambda db: GpuSpatioTemporalEngine(db, num_bins=40,
                                           num_subbins=2,
                                           strict_subbins=False),
    ])
    def test_engine_output_passes(self, factory, db_queries_truth):
        db, queries, d, _ = db_queries_truth
        res, _ = factory(db).search(queries, d)
        assert verify_results(res, queries, db, d).ok

    def test_self_join_exclusion_respected(self, small_db):
        from repro.core.bruteforce import brute_force_search
        res = brute_force_search(small_db, small_db, 1.0,
                                 exclude_same_trajectory=True)
        report = verify_results(res, small_db, small_db, 1.0,
                                exclude_same_trajectory=True)
        assert report.ok


class TestVerifyCatchesCorruption:
    def test_catches_fabricated_item(self, db_queries_truth):
        """A result pair that is never within d fails soundness."""
        db, queries, d, truth = db_queries_truth
        # The first pair that overlaps in time and never comes within
        # 2·d: a hit at d there would be fabricated.
        from repro.core.distance import compare_pairs
        qi, ei = (ix.ravel() for ix in np.meshgrid(
            np.arange(len(queries)), np.arange(len(db)), indexing="ij"))
        overlap = (np.maximum(queries.ts[qi], db.ts[ei])
                   <= np.minimum(queries.te[qi], db.te[ei]))
        far = overlap & ~compare_pairs(queries, db, qi, ei, 2 * d).mask
        assert far.any(), "the fixture has no far pair"
        qi, ei = qi[far][0], ei[far][0]
        fake = ResultSet(
            np.concatenate([truth.q_ids, [queries.seg_ids[qi]]]),
            np.concatenate([truth.e_ids, [db.seg_ids[ei]]]),
            np.concatenate([truth.t_lo, [max(queries.ts[qi], db.ts[ei])]]),
            np.concatenate([truth.t_hi, [min(queries.te[qi], db.te[ei])]]))
        report = verify_results(fake, queries, db, d)
        assert not report.ok
        assert report.soundness_violations
        with pytest.raises(AssertionError):
            report.raise_on_failure()

    def test_catches_missing_results(self, db_queries_truth):
        """Dropping half the result set fails the completeness check."""
        db, queries, d, truth = db_queries_truth
        half = ResultSet(truth.q_ids[::2], truth.e_ids[::2],
                         truth.t_lo[::2], truth.t_hi[::2])
        report = verify_results(half, queries, db, d,
                                spot_pairs=len(queries) * len(db))
        assert not report.ok
        assert report.completeness_violations

    def test_catches_bad_interval(self, db_queries_truth):
        """An interval outside the segments' temporal overlap fails."""
        db, queries, d, truth = db_queries_truth
        bad_lo = truth.t_lo.copy()
        bad_hi = truth.t_hi.copy()
        bad_lo[0] = -1e9
        bad = ResultSet(truth.q_ids, truth.e_ids, bad_lo, bad_hi)
        report = verify_results(bad, queries, db, d, spot_pairs=10)
        assert report.interval_violations
