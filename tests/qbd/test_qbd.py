"""Tests for the matrix-geometric QBD solver and the MAP/M/1 queue
(``MapMap1Queue`` with exponential service)."""

import numpy as np
import pytest

from repro.maps import exponential, fit_map2, mmpp2
from repro.qbd import MapMap1Queue, solve_qbd, solve_r_matrix
from repro.utils.errors import SolverError, ValidationError


class TestRMatrix:
    def test_mm1_scalar_case(self):
        """For M/M/1 the 'matrix' R is the scalar rho."""
        lam, mu = 0.6, 1.0
        R = solve_r_matrix(
            np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]])
        )
        assert R[0, 0] == pytest.approx(lam / mu, abs=1e-10)

    def test_satisfies_quadratic_equation(self):
        m = mmpp2(0.2, 0.3, 1.2, 0.3)
        mu = 1.5
        K = m.order
        A0, A1, A2 = m.D1, m.D0 - mu * np.eye(K), mu * np.eye(K)
        R = solve_r_matrix(A0, A1, A2)
        residual = A0 + R @ A1 + R @ R @ A2
        assert np.abs(residual).max() < 1e-10

    def test_unstable_queue_detected(self):
        lam, mu = 1.2, 1.0
        with pytest.raises(SolverError):
            solve_r_matrix(
                np.array([[lam]]), np.array([[-(lam + mu)]]), np.array([[mu]])
            )

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValidationError):
            solve_r_matrix(
                np.array([[-0.5]]), np.array([[0.0]]), np.array([[0.5]])
            )

    def test_rejects_nonzero_rowsums(self):
        with pytest.raises(ValidationError):
            solve_r_matrix(
                np.array([[0.5]]), np.array([[-2.0]]), np.array([[1.0]])
            )


class TestAgainstTruncatedCTMC:
    """Oracle: truncate the infinite QBD at a deep level and solve directly."""

    @pytest.mark.parametrize(
        "arrivals,mu",
        [
            (exponential(0.7), 1.0),
            (mmpp2(0.4, 0.2, 1.1, 0.2), 1.3),
            (fit_map2(1.0, 9.0, 0.6), 1.6),
        ],
    )
    def test_queue_length_distribution(self, arrivals, mu):
        from repro.markov import steady_state_ctmc
        import scipy.sparse as sp

        q = MapMap1Queue(arrivals, exponential(mu))
        L = 400  # truncation deep enough for these loads
        K = arrivals.order
        D0, D1 = arrivals.D0, arrivals.D1
        rows, cols, vals = [], [], []

        def put(n, h, n2, h2, rate):
            if rate <= 0:
                return
            rows.append(n * K + h)
            cols.append(n2 * K + h2)
            vals.append(rate)

        for n in range(L + 1):
            for h in range(K):
                for h2 in range(K):
                    if n < L:
                        put(n, h, n + 1, h2, D1[h, h2])
                    if h2 != h:
                        put(n, h, n, h2, D0[h, h2])
                if n >= 1:
                    put(n, h, n - 1, h, mu)
        S = (L + 1) * K
        Q = sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsr()
        Q.setdiag(Q.diagonal() - np.asarray(Q.sum(axis=1)).ravel())
        pi = steady_state_ctmc(Q)
        truncated = pi.reshape(L + 1, K).sum(axis=1)

        analytic = q.queue_length_distribution(30)
        assert np.allclose(analytic, truncated[:31], atol=1e-7)


class TestMapM1Metrics:
    def test_poisson_arrivals_reduce_to_mm1(self):
        lam, mu = 0.8, 1.0
        q = MapMap1Queue(exponential(lam), exponential(mu))
        rho = lam / mu
        dist = q.queue_length_distribution(10)
        expected = (1 - rho) * rho ** np.arange(11)
        assert np.allclose(dist, expected, atol=1e-10)
        assert q.mean_queue_length == pytest.approx(rho / (1 - rho), rel=1e-9)
        assert q.caudal_characteristic() == pytest.approx(rho, abs=1e-9)

    def test_utilization_equals_offered_load(self):
        q = MapMap1Queue(fit_map2(1.0, 16.0, 0.5), exponential(1.4))
        assert q.utilization == pytest.approx(q.offered_load, abs=1e-9)

    def test_littles_law(self):
        q = MapMap1Queue(mmpp2(0.3, 0.2, 1.0, 0.2), exponential(1.2))
        assert q.mean_response_time * q.arrivals.rate == pytest.approx(
            q.mean_queue_length, rel=1e-10
        )

    def test_burstiness_inflates_queue(self):
        """Same arrival rate, same server: correlated arrivals queue more."""
        mu = 1.25
        poisson = MapMap1Queue(exponential(1.0), exponential(mu))
        bursty = MapMap1Queue(fit_map2(1.0, 16.0, 0.5), exponential(mu))
        assert bursty.mean_queue_length > 3.0 * poisson.mean_queue_length
        assert bursty.caudal_characteristic() > poisson.caudal_characteristic()

    def test_gamma2_alone_inflates_queue(self):
        """Fix the marginal (mean + SCV); raise only the ACF decay rate."""
        mu = 1.25
        weak = MapMap1Queue(fit_map2(1.0, 9.0, 0.1), exponential(mu))
        strong = MapMap1Queue(fit_map2(1.0, 9.0, 0.8), exponential(mu))
        assert strong.mean_queue_length > weak.mean_queue_length

    def test_unstable_raises(self):
        q = MapMap1Queue(exponential(2.0), exponential(1.0))
        assert not q.is_stable
        with pytest.raises(ValidationError):
            _ = q.solution

    def test_tail_probability_consistency(self):
        q = MapMap1Queue(fit_map2(1.0, 4.0, 0.3), exponential(1.5))
        dist = q.queue_length_distribution(200)
        for n in (1, 3, 10):
            assert q.tail_probability(n) == pytest.approx(
                dist[n:].sum(), abs=1e-8
            )

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValidationError):
            MapMap1Queue(exponential(1.0), exponential(0.0))
