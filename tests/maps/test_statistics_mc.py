"""Monte-Carlo cross-validation of analytic MAP statistics.

These tests check the *formulas* (moments, ACF) against empirical estimates
from sampled traces — the only way to catch a wrong closed form that is
internally consistent.
"""

import numpy as np
import pytest

from repro.maps import (
    MapSampler,
    erlang,
    exponential,
    fit_map2,
    h2_correlated,
    mmpp2,
    sample_intervals,
)
from repro.analysis.acf import sample_acf


@pytest.fixture(scope="module")
def bursty():
    return fit_map2(mean=1.0, scv=9.0, gamma2=0.5)


class TestSampledMoments:
    def test_mean_matches(self, bursty):
        iv = sample_intervals(bursty, 60_000, rng=123)
        se = iv.std() / np.sqrt(len(iv)) * np.sqrt(1 + 2 * 0.5 / (1 - 0.5))
        assert iv.mean() == pytest.approx(bursty.mean, abs=6 * se)

    def test_scv_matches(self, bursty):
        iv = sample_intervals(bursty, 120_000, rng=45)
        sample_scv = iv.var() / iv.mean() ** 2
        assert sample_scv == pytest.approx(bursty.scv, rel=0.15)

    def test_exponential_trace(self):
        iv = sample_intervals(exponential(4.0), 50_000, rng=9)
        assert iv.mean() == pytest.approx(0.25, rel=0.03)
        assert iv.var() / iv.mean() ** 2 == pytest.approx(1.0, rel=0.1)

    def test_mmpp_rate(self):
        m = mmpp2(0.5, 0.5, 4.0, 1.0)
        iv = sample_intervals(m, 80_000, rng=11)
        assert 1.0 / iv.mean() == pytest.approx(m.rate, rel=0.03)


class TestSampledAutocorrelation:
    def test_acf_matches_analytic(self, bursty):
        iv = sample_intervals(bursty, 200_000, rng=77)
        emp = sample_acf(iv, max_lag=5)[1:]
        ana = bursty.autocorrelation(5)
        assert np.allclose(emp, ana, atol=0.03)

    def test_renewal_has_no_correlation(self):
        m = h2_correlated(0.8, 2.0, 0.5, 0.0)
        iv = sample_intervals(m, 100_000, rng=3)
        emp = sample_acf(iv, max_lag=3)[1:]
        assert np.allclose(emp, 0.0, atol=0.02)

    def test_negative_correlation_sign(self):
        m = h2_correlated(0.5, 4.0, 0.4, -0.5)
        assert m.autocorrelation(1)[0] < -0.01
        iv = sample_intervals(m, 150_000, rng=8)
        emp = sample_acf(iv, max_lag=1)[1]
        assert emp < 0


class TestMapSampler:
    def test_sample_one_advances_phase(self, bursty):
        sampler = MapSampler(bursty)
        rng = np.random.default_rng(0)
        seen = set()
        phase = 0
        for _ in range(200):
            interval, phase = sampler.sample_one(phase, rng)
            assert interval > 0
            seen.add(phase)
        assert seen == {0, 1}

    def test_initial_phase_distributions(self, bursty):
        sampler = MapSampler(bursty)
        rng = np.random.default_rng(5)
        draws = np.array(
            [sampler.initial_phase(rng, "embedded") for _ in range(4000)]
        )
        freq = np.bincount(draws, minlength=2) / len(draws)
        assert np.allclose(freq, bursty.embedded_stationary, atol=0.03)

    def test_deterministic_given_seed(self, bursty):
        a = sample_intervals(bursty, 100, rng=42)
        b = sample_intervals(bursty, 100, rng=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "m",
        [
            fit_map2(mean=1.0, scv=9.0, gamma2=0.5),
            mmpp2(0.1, 0.3, 4.0, 0.5),  # hidden D0 jumps between events
            erlang(3, 3.0),
            exponential(2.0),
        ],
        ids=["map2", "mmpp2", "erlang3", "exponential"],
    )
    def test_sample_block_walks_like_sample_one(self, m):
        """Fed the same variates, the block walk and the one-jump-at-a-time
        walk give the same intervals and end phase, bit for bit."""
        sampler = MapSampler(m)
        one, h = [], 0
        gen = _Scripted(7)
        for _ in range(300):
            interval, h = sampler.sample_one(h, gen)
            one.append(interval)
        block, h_block = sampler.sample_block(300, 0, _Scripted(7))
        assert block == one
        assert h_block == h


class _Scripted(np.random.Generator):
    """Deals one fixed list of standard exponentials and one of uniforms in
    order, whether asked for one value at a time or for arrays."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        src = np.random.default_rng(seed)
        self._e = iter(src.standard_exponential(5_000).tolist())
        self._u = iter(src.random(5_000).tolist())

    def exponential(self, scale=1.0, size=None):
        return scale * next(self._e)

    def standard_exponential(self, size=None):
        return np.array([next(self._e) for _ in range(size)])

    def random(self, size=None):
        if size is None:
            return next(self._u)
        return np.array([next(self._u) for _ in range(size)])
