"""Direct stationary solve against oracles that share none of its code.

The dense SVD null vector of ``Q^T`` is computed without pinning,
dropping equations or sparse factorization.  The birth-death chains have
closed-form answers and probabilities spanning ~1e-399, so the pinned
state's value overflows in one orientation and forces the re-pin.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.maps import MAP, exponential
from repro.markov.ctmc import steady_state_ctmc
from repro.network import Network, queue
from repro.network.exact import build_generator
from repro.network.statespace import NetworkStateSpace
from repro.scenarios import get_scenario


def svd_null_vector(Q) -> np.ndarray:
    """Normalized right singular vector of ``Q^T`` for its smallest value."""
    _, s, vt = np.linalg.svd(np.asarray(Q).T)
    assert s[-1] < 1e-10 * s[0]  # one-dimensional null space
    v = vt[-1]
    return v / v.sum()


def random_generator(n: int, seed: int) -> np.ndarray:
    """Sparse-ish random rates plus a ring, so the chain is irreducible."""
    rng = np.random.default_rng(seed)
    R = rng.random((n, n)) * (rng.random((n, n)) < 0.2) * 10.0
    R[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    np.fill_diagonal(R, 0.0)
    return R - np.diag(R.sum(axis=1))


def birth_death(n: int, up: float, down: float) -> np.ndarray:
    Q = np.zeros((n, n))
    i = np.arange(n - 1)
    Q[i, i + 1] = up
    Q[i + 1, i] = down
    return Q - np.diag(Q.sum(axis=1))


def solve_traced(Q):
    tele = obs.Telemetry()
    with obs.use(tele):
        pi = steady_state_ctmc(Q, method="direct")
    (span,) = tele.roots
    return pi, span.attributes


class TestAgainstDenseSVD:
    def test_random_irreducible_generator(self):
        Q = random_generator(50, seed=3)
        pi = steady_state_ctmc(Q, method="direct")
        assert np.abs(pi - svd_null_vector(Q)).max() < 1e-12

    def test_catalog_map_network(self):
        net = get_scenario("tpcw").network(4)
        Q = build_generator(net, NetworkStateSpace(net))
        pi = steady_state_ctmc(Q, method="direct")
        assert np.abs(pi - svd_null_vector(Q.toarray())).max() < 1e-12

    def test_transient_last_state(self):
        """Erlang servers restart in phase 0, so an idle server frozen in
        phase 1 is a transient state; here that includes the last one."""
        erlang = MAP([[-2.0, 2.0], [0.0, -2.0]], [[0.0, 0.0], [2.0, 0.0]])
        net = Network(
            [queue("a", exponential(1.0)), queue("b", erlang), queue("c", erlang)],
            np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            3,
        )
        Q = build_generator(net, NetworkStateSpace(net)).toarray()
        oracle = svd_null_vector(Q)
        assert oracle[-1] < 1e-15
        pi, attrs = solve_traced(Q)
        assert attrs["pins"] == 1
        assert np.abs(pi - oracle).max() < 1e-12


class TestProbabilitiesBeyondDoubleRange:
    """pi spans ~1e-399: pinning the improbable end overflows the rest."""

    @pytest.mark.parametrize(
        "up, down, heavy, pins",
        [(1.0, 10.0, 0, 2), (10.0, 1.0, -1, 1)],
        ids=["drift-to-first", "drift-to-last"],
    )
    def test_heavy_end_is_exact(self, up, down, heavy, pins):
        pi, attrs = solve_traced(birth_death(400, up, down))
        assert attrs["pins"] == pins
        assert pi[heavy] == pytest.approx(0.9, abs=1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0.0)
        near = pi[:3] if heavy == 0 else pi[-3:][::-1]
        assert near[1] / near[0] == pytest.approx(0.1, rel=1e-12)
        assert near[2] / near[1] == pytest.approx(0.1, rel=1e-12)
