"""Tests for the analysis helpers: sample ACF, batch means, Little's law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    batch_means,
    confidence_interval,
    littles_law_residual,
    relative_error,
    sample_acf,
)
from repro.analysis.littles import response_time_from_throughput


class TestSampleACF:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        acf = sample_acf(rng.normal(size=1000), 5)
        assert acf[0] == pytest.approx(1.0)

    def test_iid_has_no_correlation(self):
        rng = np.random.default_rng(1)
        acf = sample_acf(rng.exponential(size=50_000), 10)
        assert np.all(np.abs(acf[1:]) < 0.03)

    def test_ar1_recovers_coefficient(self):
        rng = np.random.default_rng(2)
        phi = 0.7
        x = np.empty(100_000)
        x[0] = 0.0
        noise = rng.normal(size=len(x))
        for i in range(1, len(x)):
            x[i] = phi * x[i - 1] + noise[i]
        acf = sample_acf(x, 3)
        assert acf[1] == pytest.approx(phi, abs=0.02)
        assert acf[2] == pytest.approx(phi**2, abs=0.03)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        x = rng.random(500)
        acf = sample_acf(x, 4)
        centered = x - x.mean()
        var = centered @ centered
        for lag in range(1, 5):
            direct = (centered[:-lag] @ centered[lag:]) / var
            assert acf[lag] == pytest.approx(direct, abs=1e-12)

    def test_constant_series(self):
        acf = sample_acf(np.ones(100), 3)
        assert acf[0] == 1.0
        assert np.all(acf[1:] == 0.0)

    def test_rejects_bad_lag(self):
        with pytest.raises(ValueError):
            sample_acf(np.ones(10), 10)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            sample_acf(np.ones((5, 5)), 2)


class TestBatchMeans:
    def test_mean_recovered(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(2.0, size=10_000)
        res = batch_means(x, n_batches=20)
        assert res.mean == pytest.approx(2.0, rel=0.05)
        assert res.contains(res.mean)

    def test_interval_width_shrinks_with_data(self):
        rng = np.random.default_rng(5)
        small = batch_means(rng.normal(size=2_000), 10)
        large = batch_means(rng.normal(size=200_000), 10)
        assert large.half_width < small.half_width

    def test_coverage_on_iid_normal(self):
        rng = np.random.default_rng(6)
        hits = sum(
            batch_means(rng.normal(size=2_000), 10, confidence=0.95).contains(0.0)
            for _ in range(100)
        )
        assert hits >= 85  # 95% nominal coverage, tolerant of MC noise

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(10), n_batches=20)

    def test_rejects_single_batch(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(100), n_batches=1)


class TestConfidenceInterval:
    def test_ordering(self):
        mean, lo, hi = confidence_interval(np.array([1.0, 2.0, 3.0, 4.0]))
        assert lo < mean < hi
        assert mean == pytest.approx(2.5)

    def test_rejects_single_value(self):
        with pytest.raises(ValueError):
            confidence_interval(np.array([1.0]))

    def test_student_t_critical_value(self):
        # t_{0.975, 3} = 3.182446305284263 (two-sided 95%, four replicates).
        x = np.array([1.0, 2.0, 3.0, 4.0])
        mean, lo, hi = confidence_interval(x)
        se = x.std(ddof=1) / 2.0
        assert (hi - mean) / se == pytest.approx(3.182446305284263, rel=1e-14)
        assert (mean - lo) / se == pytest.approx(3.182446305284263, rel=1e-14)


class TestLittlesLaw:
    def test_consistent_data(self):
        assert littles_law_residual(4.0, 2.0, 2.0) == pytest.approx(0.0)

    def test_inconsistent_data(self):
        assert littles_law_residual(4.0, 2.0, 3.0) > 0.3

    def test_response_time(self):
        assert response_time_from_throughput(10, 2.5) == pytest.approx(4.0)

    def test_rejects_zero_throughput(self):
        with pytest.raises(ValueError):
            response_time_from_throughput(10, 0.0)


class TestRelativeError:
    @given(st.floats(-1e6, 1e6), st.floats(0.1, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, est, exact):
        assert relative_error(est, exact) >= 0.0

    def test_zero_for_exact(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_zero_denominator(self):
        assert relative_error(0.3, 0.0) == pytest.approx(0.3)
