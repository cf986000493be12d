"""The transient engine against a dense matrix-exponential oracle.

``pi(t) = pi0 expm(Q t)`` is computed with :func:`scipy.linalg.expm` on a
200-state generator and compared with :func:`transient_grid` on both
engines.  The long grid reaches ``q t ~ 5,000``: there each Poisson term
carries weight at only a few grid points, so the sweep's windowed
accumulation is exercised.  ``n_matvecs`` is pinned to the count of the
unwindowed sweep, because the window may only change which points a term
is added to, never how long the series runs.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.markov.uniformization import UNIFORMIZATION_MARGIN
from repro.transient import transient_grid

S = 200


def _generator(seed: int = 7) -> np.ndarray:
    """Slowly mixing birth-death chain with sparse jumps and a few fast states."""
    rng = np.random.default_rng(seed)
    Q = np.zeros((S, S))
    i = np.arange(S - 1)
    Q[i, i + 1] = rng.uniform(0.5, 1.5, S - 1)
    Q[i + 1, i] = rng.uniform(0.5, 1.5, S - 1)
    src, dst = rng.integers(0, S, 40), rng.integers(0, S, 40)
    Q[src, dst] += rng.uniform(0.01, 0.05, 40)
    fast = rng.choice(S, 3, replace=False)
    Q[fast, (fast + 1) % S] += 8.0
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


Q = _generator()
PI0 = np.eye(S)[0]
#: The engine's uniformization rate for Q.
RATE = UNIFORMIZATION_MARGIN * float(np.abs(np.diag(Q)).max())

#: (times, segment_terms, matvecs of the uniformization engine).  The long
#: grid restarts every 2,500 terms: one sweep to q t ~ 5,000 trips the
#: series guard on the float drift of its log-space weights.
GRIDS = {
    "long": (np.linspace(0.0, 5000.0 / RATE, 41), 2500, 5821),
    "unsorted-duplicates": (
        np.array([3.0, 0.0, 1.5, 3.0, 0.25, 1.5, 0.0, 12.0, 40.0]),
        20_000,
        578,
    ),
}


def _oracle(times: np.ndarray) -> np.ndarray:
    return np.array([PI0 @ sla.expm(Q * t) for t in times])


@pytest.fixture(scope="module")
def oracle():
    return {name: _oracle(times) for name, (times, _, _) in GRIDS.items()}


@pytest.mark.parametrize("method", ["uniformization", "expm"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_matches_dense_expm(grid, method, oracle):
    times, segment_terms, matvecs = GRIDS[grid]
    res = transient_grid(
        sp.csr_matrix(Q), PI0, times, method=method, segment_terms=segment_terms
    )
    assert res.method == method
    np.testing.assert_array_equal(res.times, times)
    assert np.abs(res.distributions - oracle[grid]).max() <= 1e-12
    assert np.abs(res.distributions.sum(axis=1) - 1.0).max() <= 1e-12
    if method == "uniformization":
        assert res.n_matvecs == matvecs
    else:
        assert res.n_matvecs == 0
        assert res.n_segments == len(times)
