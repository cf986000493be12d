"""Unit tests for the MAP class: validation, stationary quantities, statistics."""

import numpy as np
import pytest

from repro.maps import MAP, exponential, erlang, fit_map2, hyperexponential, mmpp2
from repro.utils.errors import ValidationError


class TestValidation:
    def test_rejects_nonsquare_d0(self):
        with pytest.raises(ValidationError):
            MAP([[-1.0, 1.0]], [[1.0, 0.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            MAP([[-1.0]], [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_negative_offdiagonal_d0(self):
        with pytest.raises(ValidationError):
            MAP([[-1.0, -0.5], [0.2, -1.0]], [[1.5, 0.0], [0.0, 0.8]])

    def test_rejects_negative_d1(self):
        with pytest.raises(ValidationError):
            MAP([[-1.0, 0.5], [0.2, -1.0]], [[0.6, -0.1], [0.0, 0.8]])

    def test_rejects_positive_d0_diagonal(self):
        with pytest.raises(ValidationError):
            MAP([[1.0, 0.0], [0.2, -1.0]], [[-1.0, 0.0], [0.0, 0.8]])

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValidationError):
            MAP([[-2.0, 0.5], [0.2, -1.0]], [[1.0, 0.0], [0.0, 0.7]])

    def test_rejects_zero_d1(self):
        with pytest.raises(ValidationError):
            MAP([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_reducible_phase_process(self):
        # Two disconnected exponential "islands".
        D0 = [[-1.0, 0.0], [0.0, -2.0]]
        D1 = [[1.0, 0.0], [0.0, 2.0]]
        with pytest.raises(ValidationError):
            MAP(D0, D1)

    def test_matrices_are_readonly(self):
        m = exponential(1.0)
        with pytest.raises(ValueError):
            m.D0[0, 0] = 5.0

    @pytest.mark.parametrize(
        "attr", ["generator", "phase_stationary", "embedded", "embedded_stationary"]
    )
    def test_derived_arrays_are_readonly(self, attr):
        # one instance is shared by every network a memoized constructor
        # served: a write must raise, not corrupt all of them
        m = mmpp2(r1=0.1, r2=0.2, lam1=2.0, lam2=0.5)
        before = getattr(m, attr).copy()
        with pytest.raises(ValueError):
            getattr(m, attr)[0] = 5.0
        assert np.array_equal(getattr(m, attr), before)

    def test_constructor_copies_input(self):
        D0 = np.array([[-2.0, 1.0], [1.0, -2.0]])
        D1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = MAP(D0, D1)
        D0[0, 0] = -99.0
        assert m.D0[0, 0] == -2.0


class TestMemoizedConstructors:
    def test_exponential_shared_per_float_rate(self):
        assert exponential(2) is exponential(2.0) is exponential(np.float64(2.0))
        assert exponential(2.0) is not exponential(3.0)

    def test_exponential_of_a_zero_d_array(self):
        m = exponential(np.array(2.0))
        assert m is exponential(2.0)
        assert m.rate == pytest.approx(2.0)

    def test_exponential_still_rejects_nonpositive_rates(self):
        with pytest.raises(ValidationError):
            exponential(0.0)

    def test_fit_map2_shared_per_float_target(self):
        m = fit_map2(1, 4, 0.4)
        assert m is fit_map2(1.0, 4.0, gamma2=0.4)
        assert m is fit_map2(np.float64(1.0), np.float64(4.0), np.float64(0.4))
        assert fit_map2(1.0, 4.0) is not m


class TestExponential:
    def test_mean_is_inverse_rate(self):
        assert exponential(4.0).mean == pytest.approx(0.25)

    def test_scv_is_one(self):
        assert exponential(3.0).scv == pytest.approx(1.0)

    def test_skewness_is_two(self):
        assert exponential(3.0).skewness == pytest.approx(2.0)

    def test_autocorrelation_is_zero(self):
        rho = exponential(2.0).autocorrelation(5)
        assert np.allclose(rho, 0.0, atol=1e-12)

    def test_is_poisson_and_renewal(self):
        m = exponential(1.0)
        assert m.is_poisson and m.is_renewal and m.is_mmpp


class TestErlang:
    def test_mean(self):
        assert erlang(4, 8.0).mean == pytest.approx(0.5)

    def test_scv_is_one_over_k(self):
        assert erlang(5, 1.0).scv == pytest.approx(0.2)

    def test_is_renewal(self):
        assert erlang(3, 2.0).is_renewal

    def test_order(self):
        assert erlang(6, 1.0).order == 6

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            erlang(0, 1.0)


class TestHyperexponential:
    def test_mean(self):
        m = hyperexponential([0.3, 0.7], [1.0, 2.0])
        assert m.mean == pytest.approx(0.3 / 1.0 + 0.7 / 2.0)

    def test_scv_at_least_one(self):
        m = hyperexponential([0.1, 0.9], [0.2, 5.0])
        assert m.scv >= 1.0

    def test_is_renewal(self):
        assert hyperexponential([0.5, 0.5], [1.0, 3.0]).is_renewal

    def test_rejects_non_probability(self):
        with pytest.raises(ValidationError):
            hyperexponential([0.5, 0.6], [1.0, 2.0])


class TestMMPP2:
    @pytest.fixture()
    def m(self):
        return mmpp2(r1=0.1, r2=0.3, lam1=3.0, lam2=0.4)

    def test_rate_is_phase_weighted(self, m):
        theta = m.phase_stationary
        expected = theta[0] * 3.0 + theta[1] * 0.4
        assert m.rate == pytest.approx(expected)

    def test_phase_stationary(self, m):
        # Two-state modulating chain: theta = (r2, r1)/(r1+r2).
        assert m.phase_stationary == pytest.approx(np.array([0.3, 0.1]) / 0.4)

    def test_is_mmpp_not_renewal(self, m):
        assert m.is_mmpp and not m.is_renewal

    def test_positive_autocorrelation(self, m):
        rho = m.autocorrelation(3)
        assert np.all(rho > 0)

    def test_gamma2_in_unit_interval(self, m):
        assert 0.0 < m.gamma2 < 1.0


class TestStationaryConsistency:
    """Identities every MAP must satisfy."""

    @pytest.fixture(params=["mmpp", "h2c", "erlang"])
    def m(self, request):
        if request.param == "mmpp":
            return mmpp2(0.2, 0.05, 5.0, 0.7)
        if request.param == "h2c":
            from repro.maps import h2_correlated

            return h2_correlated(0.8, 3.0, 0.4, 0.6)
        return erlang(3, 3.0)

    def test_theta_solves_generator(self, m):
        assert np.allclose(m.phase_stationary @ m.generator, 0.0, atol=1e-10)

    def test_embedded_is_stochastic(self, m):
        P = m.embedded
        assert np.all(P >= -1e-12)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_embedded_stationary_fixed_point(self, m):
        pi = m.embedded_stationary
        assert np.allclose(pi @ m.embedded, pi, atol=1e-10)

    def test_mean_is_inverse_rate(self, m):
        assert m.mean == pytest.approx(1.0 / m.rate)

    def test_rate_scaling(self, m):
        m2 = m.scaled_to_rate(7.5)
        assert m2.rate == pytest.approx(7.5)
        assert m2.scv == pytest.approx(m.scv)
        assert m2.gamma2 == pytest.approx(m.gamma2)
        assert np.allclose(m2.autocorrelation(4), m.autocorrelation(4), atol=1e-10)

    def test_mean_scaling(self, m):
        m2 = m.scaled_to_mean(2.5)
        assert m2.mean == pytest.approx(2.5)
        assert m2.skewness == pytest.approx(m.skewness)

    def test_variance_nonnegative(self, m):
        assert m.variance > 0

    def test_lag_zero_autocorrelation_is_one(self, m):
        rho = m.autocorrelation(np.array([0, 1]))
        assert rho[0] == pytest.approx(1.0)


class TestEquality:
    def test_equal_maps(self):
        assert exponential(2.0) == exponential(2.0)

    def test_unequal_rates(self):
        assert exponential(2.0) != exponential(3.0)

    def test_unequal_orders(self):
        assert exponential(1.0) != erlang(2, 2.0)

    def test_hashable(self):
        s = {exponential(1.0), exponential(1.0), exponential(2.0)}
        assert len(s) == 2
