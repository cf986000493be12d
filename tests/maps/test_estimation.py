"""Tests for trace-driven MAP parameterization (paper §4 future work)."""

import numpy as np
import pytest

from repro.maps import (
    empirical_stats,
    exponential,
    fit_map2,
    fit_map_from_trace,
    sample_intervals,
)
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def ground_truth():
    return fit_map2(mean=1.0, scv=9.0, gamma2=0.6)


@pytest.fixture(scope="module")
def trace(ground_truth):
    return sample_intervals(ground_truth, 300_000, rng=99)


class TestEmpiricalStats:
    def test_moments_close_to_analytic(self, ground_truth, trace):
        stats = empirical_stats(trace)
        m = ground_truth.moments(3)
        assert stats.m1 == pytest.approx(m[0], rel=0.02)
        assert stats.m2 == pytest.approx(m[1], rel=0.08)
        assert stats.scv == pytest.approx(ground_truth.scv, rel=0.10)

    def test_gamma2_recovered(self, ground_truth, trace):
        stats = empirical_stats(trace)
        assert stats.gamma2 == pytest.approx(0.6, abs=0.08)

    def test_uncorrelated_trace_gives_zero_gamma2(self):
        iv = sample_intervals(exponential(1.0), 50_000, rng=3)
        stats = empirical_stats(iv)
        assert abs(stats.gamma2) < 0.25  # noise-limited, but no persistence
        assert abs(stats.acf1) < 0.02

    def test_rejects_short_trace(self):
        with pytest.raises(ValidationError):
            empirical_stats(np.ones(5))

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            empirical_stats(np.array([1.0, -0.5] * 10))

    def test_rejects_constant_trace(self):
        with pytest.raises(ValidationError):
            empirical_stats(np.ones(100))


class TestFitFromTrace:
    def test_third_order_recovers_ground_truth(self, ground_truth, trace):
        report = fit_map_from_trace(trace, order=3)
        assert report.order == 3
        assert not report.used_fallback
        assert report.map.mean == pytest.approx(ground_truth.mean, rel=0.02)
        assert report.map.scv == pytest.approx(ground_truth.scv, rel=0.10)
        assert report.map.gamma2 == pytest.approx(
            ground_truth.gamma2, abs=0.08
        )
        assert report.map.skewness == pytest.approx(
            ground_truth.skewness, rel=0.15
        )

    def test_second_order_matches_two_moments(self, trace):
        report = fit_map_from_trace(trace, order=2)
        stats = report.stats
        assert report.map.mean == pytest.approx(stats.m1, rel=1e-6)
        assert report.map.scv == pytest.approx(stats.scv, rel=1e-4)

    def test_infeasible_third_moment_falls_back(self):
        # Erlang-ish trace: scv < 1 puts m3 outside the H2 region.
        rng = np.random.default_rng(0)
        iv = rng.gamma(shape=4.0, scale=0.25, size=20_000)
        report = fit_map_from_trace(iv, order=3)
        assert report.requested_order == 3
        assert report.order == 2
        assert report.used_fallback

    def test_rejects_bad_order(self, trace):
        with pytest.raises(ValidationError):
            fit_map_from_trace(trace, order=5)

    def test_end_to_end_queueing_prediction(self, ground_truth, trace):
        """The fitted MAP predicts queueing behavior of the true process.

        This is the point of the paper's future-work remark: the quality of
        a service-process fit is judged through the queue, not the trace.
        """
        from repro.maps import exponential as expo
        from repro.network import Network, queue, solve_exact

        routing = np.array([[0.0, 1.0], [1.0, 0.0]])

        def response(m):
            net = Network(
                [queue("svc", m), queue("other", expo(1.2))], routing, 8
            )
            return solve_exact(net).response_time(0)

        r_true = response(ground_truth)
        r_fit3 = response(fit_map_from_trace(trace, order=3).map)
        assert r_fit3 == pytest.approx(r_true, rel=0.05)
