"""Tests for the exact CTMC solver against known closed forms and invariants."""

import math

import numpy as np
import pytest

from repro.maps import exponential, fit_map2, mmpp2
from repro.network import (
    Network,
    NetworkStateSpace,
    build_generator,
    delay,
    multiserver,
    queue,
    solve_exact,
)


def tandem(mu1: float, mu2: float, N: int) -> Network:
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Network(
        [queue("a", exponential(mu1)), queue("b", exponential(mu2))], P, N
    )


class TestStateSpace:
    def test_figure6_twelve_states(self):
        """Paper Figure 6: 3 queues (one MMPP(2)), N=2 -> 12 CTMC states."""
        P = np.array([[0.2, 0.7, 0.1], [1, 0, 0], [1, 0, 0]], dtype=float)
        net = Network(
            [
                queue("q1", exponential(1.0)),
                queue("q2", exponential(2.0)),
                queue("q3", mmpp2(0.5, 0.5, 3.0, 0.3)),
            ],
            P,
            2,
        )
        space = NetworkStateSpace(net)
        assert space.size == 12
        assert space.n_phase == 2

    def test_decode_round_trip(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", mmpp2(0.1, 0.1, 1.0, 2.0)), queue("b", exponential(1.0))],
            P,
            3,
        )
        space = NetworkStateSpace(net)
        for idx in range(space.size):
            comp, ph = space.decode(idx)
            comp_rank = space.comp.rank(comp)
            code = int(np.dot(ph, space.phase_strides))
            assert space.index(comp_rank, code) == idx
            assert space.encode(comp, ph) == idx  # encode inverts decode

    def test_encode_validates_inputs(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", mmpp2(0.1, 0.1, 1.0, 2.0)), queue("b", exponential(1.0))],
            P,
            3,
        )
        space = NetworkStateSpace(net)
        with pytest.raises(ValueError):
            space.encode([3], [0])  # wrong arity
        with pytest.raises(ValueError):
            space.encode([2, 2], [0, 0])  # not a composition of N=3
        with pytest.raises(ValueError):
            space.encode([3, 0], [2, 0])  # phase out of range

    def test_generator_rows_sum_to_zero(self):
        P = np.array([[0.2, 0.8], [1.0, 0.0]])
        net = Network(
            [queue("a", fit_map2(1.0, 4.0, 0.5)), queue("b", exponential(2.0))],
            P,
            4,
        )
        Q = build_generator(net)
        assert np.abs(np.asarray(Q.sum(axis=1))).max() < 1e-10

    def test_generator_offdiagonal_nonnegative(self):
        P = np.array([[0.2, 0.8], [1.0, 0.0]])
        net = Network(
            [queue("a", fit_map2(1.0, 4.0, 0.5)), queue("b", exponential(2.0))],
            P,
            4,
        )
        Q = build_generator(net).toarray()
        off = Q - np.diag(np.diag(Q))
        assert off.min() >= 0.0


class TestClosedFormAgreement:
    @pytest.mark.parametrize("rho", [0.25, 1.0, 2.0])
    def test_two_queue_tandem_geometric(self, rho):
        """Closed 2-queue exponential tandem: pi(n1) ~ (mu2/mu1)^n1."""
        N = 8
        net = tandem(1.0, rho, N)
        sol = solve_exact(net)
        expected = rho ** np.arange(N + 1)
        expected /= expected.sum()
        assert np.allclose(sol.queue_length_distribution(0), expected, atol=1e-10)

    def test_machine_repairman(self):
        """Delay + single exponential queue = classic machine-repair model."""
        N, lam, mu = 5, 0.5, 2.0
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("think", exponential(lam)), queue("cpu", exponential(mu))], P, N
        )
        sol = solve_exact(net)
        p = np.array(
            [
                math.factorial(N) / math.factorial(N - n) * (lam / mu) ** n
                for n in range(N + 1)
            ]
        )
        p /= p.sum()
        assert np.allclose(sol.queue_length_distribution(1), p, atol=1e-10)

    def test_multiserver_erlang_like(self):
        """Closed multiserver vs. an equivalent birth-death chain."""
        N, s, lam, mu = 6, 2, 1.0, 0.7
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("src", exponential(lam)), multiserver("srv", exponential(mu), s)],
            P,
            N,
        )
        sol = solve_exact(net)
        # Birth-death on n = jobs at the multiserver.
        rates_up = [(N - n) * lam for n in range(N)]
        rates_down = [min(n, s) * mu for n in range(1, N + 1)]
        p = np.ones(N + 1)
        for n in range(N):
            p[n + 1] = p[n] * rates_up[n] / rates_down[n]
        p /= p.sum()
        assert np.allclose(sol.queue_length_distribution(1), p, atol=1e-10)


class TestInvariants:
    @pytest.fixture(scope="class")
    def sol(self):
        P = np.array([[0.1, 0.6, 0.3], [0.9, 0.0, 0.1], [1.0, 0.0, 0.0]])
        net = Network(
            [
                queue("q1", exponential(2.0)),
                queue("q2", fit_map2(0.5, 8.0, 0.6)),
                queue("q3", mmpp2(0.3, 0.7, 4.0, 0.5)),
            ],
            P,
            6,
        )
        return solve_exact(net)

    def test_probabilities_normalized(self, sol):
        assert sol.pi.sum() == pytest.approx(1.0)
        assert np.all(sol.pi >= 0)

    def test_population_conservation(self, sol):
        total = sum(sol.mean_queue_length(k) for k in range(3))
        assert total == pytest.approx(6.0)

    def test_flow_balance(self, sol):
        X = np.array([sol.throughput(k) for k in range(3)])
        assert np.allclose(X, X @ sol.network.routing, rtol=1e-10)

    def test_throughput_proportional_to_visits(self, sol):
        X = np.array([sol.throughput(k) for k in range(3)])
        v = sol.network.visit_ratios
        assert np.allclose(X / v, X[0], rtol=1e-10)

    def test_marginals_sum_to_one(self, sol):
        for k in range(3):
            assert sol.marginal(k).sum() == pytest.approx(1.0)

    def test_pair_marginal_consistency(self, sol):
        """V + W summed over the source phase equals the target marginal."""
        for j in range(3):
            for k in range(3):
                if j == k:
                    continue
                V = sol.pair_marginal(j, k, busy=True)
                W = sol.pair_marginal(j, k, busy=False)
                combined = V.sum(axis=0) + W.sum(axis=0)
                assert np.allclose(combined, sol.marginal(k), atol=1e-12)

    def test_conditional_moment_population_identity(self, sol):
        """sum_j G_jk(n,h) = (N - n) pi_k(n,h) for every k, n, h."""
        N = sol.network.population
        for k in range(3):
            total = sum(
                sol.conditional_first_moment(j, k).sum(axis=0)
                for j in range(3)
                if j != k
            )
            levels = np.arange(N + 1)
            expected = (N - levels)[:, None] * sol.marginal(k)
            assert np.allclose(total, expected, atol=1e-12)

    def test_little_law_consistency(self, sol):
        """R = N / X and sum Q_k = N give per-network consistency."""
        R = sol.response_time(0)
        X = sol.system_throughput(0)
        assert R * X == pytest.approx(6.0)

    def test_response_time_reference_invariance(self, sol):
        """R computed at any reference with v-normalization is consistent."""
        X0 = sol.system_throughput(0)
        v = sol.network.visit_ratios
        X1_normalized = sol.throughput(1) / v[1]
        assert X0 == pytest.approx(X1_normalized, rel=1e-10)


class TestGuards:
    def test_max_states_guard(self):
        net = tandem(1.0, 2.0, 5)
        with pytest.raises(MemoryError):
            solve_exact(net, max_states=3)
