"""Matrix-free Kronecker generator == assembled generator.

The contract of the operator kernel: :func:`kronecker_generator`
represents *exactly* the CTMC that :func:`build_generator` assembles —

* ``matvec``/``rmatvec`` match ``Q @ v`` / ``v @ Q`` to 1e-12 relative on
  every closed catalog scenario and on hypothesis-random MAP networks;
* the closed-form ``diagonal()`` matches the assembled diagonal to
  machine precision (summation order differs, so this one has a 1e-14
  relative tolerance);
* the operator-backed steady state and ``solve_exact(backend="operator")``
  agree with the dense path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps import random_map2
from repro.markov import KroneckerGenerator, steady_state_ctmc
from repro.network import (
    Network,
    NetworkStateSpace,
    build_generator,
    kronecker_generator,
    queue,
    solve_exact,
)
from repro.scenarios import get_scenario_registry
from repro.workloads.ring import ring_model

SCENARIOS = tuple(
    sc.name for sc in get_scenario_registry()
    if sc.network().kind == "closed"
)

MATVEC_TOL = 1e-12


def relative_matvec_error(net, space=None, seed=0):
    """Max relative error of matvec/rmatvec vs the assembled generator."""
    space = space or NetworkStateSpace(net)
    Q = build_generator(net, space)
    op = kronecker_generator(net, space)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal(space.size)
        ref = float(np.abs(Q @ x).max()) + 1.0
        worst = max(worst, float(np.abs(op.matvec(x) - Q @ x).max()) / ref)
        ref_t = float(np.abs(Q.T @ x).max()) + 1.0
        worst = max(
            worst, float(np.abs(op.rmatvec(x) - Q.T @ x).max()) / ref_t
        )
    return worst


# ---------------------------------------------------------------------- #
# every closed catalog scenario
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_matvec_equivalence(name):
    net = get_scenario_registry().get(name).network(population=3)
    assert relative_matvec_error(net) < MATVEC_TOL


@pytest.mark.parametrize("name", SCENARIOS)
def test_catalog_diagonal_matches(name):
    net = get_scenario_registry().get(name).network(population=3)
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    op = kronecker_generator(net, space)
    scale = float(np.abs(Q.diagonal()).max()) + 1.0
    assert np.abs(op.diagonal() - Q.diagonal()).max() / scale < 1e-14


# ---------------------------------------------------------------------- #
# structured edge cases
# ---------------------------------------------------------------------- #
def test_single_station_self_loop():
    from repro.maps import fit_map2

    net = Network(
        [queue("q", fit_map2(1.0, 4.0, 0.2))], np.array([[1.0]]), 3
    )
    assert relative_matvec_error(net) < MATVEC_TOL


def test_self_routing_probability_mass():
    from repro.maps import exponential, fit_map2

    routing = np.array([[0.5, 0.5], [0.4, 0.6]])
    net = Network(
        [queue("a", fit_map2(1.0, 5.0, 0.4)), queue("b", exponential(2.0))],
        routing,
        5,
    )
    assert relative_matvec_error(net) < MATVEC_TOL


def test_delay_station_scales():
    from repro.maps import exponential, fit_map2
    from repro.network import delay

    routing = np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.0, 1.0, 0.0]])
    net = Network(
        [
            delay("clients", exponential(0.5)),
            queue("web", fit_map2(1.0, 9.0, 0.3)),
            queue("db", exponential(1.2)),
        ],
        routing,
        4,
    )
    assert relative_matvec_error(net) < MATVEC_TOL


def test_ring_model_medium():
    net = ring_model(4, n_stations=4)
    assert relative_matvec_error(net) < MATVEC_TOL


# ---------------------------------------------------------------------- #
# hypothesis: random MAP networks
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    M=st.integers(2, 3),
    N=st.integers(1, 5),
)
def test_random_network_equivalence(seed, M, N):
    rng = np.random.default_rng(seed)
    stations = [
        queue(f"q{j}", random_map2(rng=np.random.default_rng(seed + 17 * j)))
        for j in range(M)
    ]
    routing = rng.uniform(0.05, 1.0, size=(M, M))
    routing /= routing.sum(axis=1, keepdims=True)
    net = Network(stations, routing, N)
    assert relative_matvec_error(net, seed=seed) < MATVEC_TOL


# ---------------------------------------------------------------------- #
# operator protocol details
# ---------------------------------------------------------------------- #
def test_matvec_counter_and_rowsum_residual():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net, validate=False)
    assert op.n_matvecs == 0
    resid = op.rowsum_residual()
    assert resid < 1e-10
    assert op.n_matvecs == 1
    op.rmatvec(np.ones(op.shape[0]))
    assert op.n_matvecs == 2


def test_operator_is_scipy_linear_operator():
    import scipy.sparse.linalg as spla

    net = ring_model(2, n_stations=2)
    op = kronecker_generator(net)
    assert isinstance(op, spla.LinearOperator)
    assert isinstance(op, KroneckerGenerator)
    # scipy's protocol wrappers (@, .T) route through our kernels
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    x = np.linspace(-1.0, 1.0, space.size)
    assert np.allclose(op @ x, Q @ x, atol=1e-12)


def test_storage_is_sublinear_in_nnz():
    # The whole point: the operator's footprint beats the materialized
    # matrix already at modest sizes (and the gap widens combinatorially).
    net = ring_model(6, n_stations=5)
    space = NetworkStateSpace(net)
    op = kronecker_generator(net, space)
    # nnz estimate counts pre-dedup COO entries incl. diagonal; the CSR
    # nnz is never larger.
    nnz = op.materialized_nnz()
    assert build_generator(net, space).nnz <= nnz
    csr_bytes = nnz * (8 + 4) + (space.size + 1) * 4  # data+indices+indptr
    assert op.nbytes < csr_bytes


def test_materialized_nnz_counts_every_emission():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net)
    Q = build_generator(net)
    # estimate >= actual (dedup/cancellation can only shrink the CSR)
    assert op.materialized_nnz() >= Q.nnz


def test_phase_block_preconditioner_inverts_blocks():
    net = ring_model(3, n_stations=3)
    op = kronecker_generator(net)
    apply_M = op.phase_block_preconditioner(transpose=False)
    assert apply_M is not None
    x = np.linspace(0.5, 1.5, op.shape[0])
    y = apply_M(x)
    assert y.shape == x.shape
    assert np.all(np.isfinite(y))


def test_invalid_factor_shapes_rejected():
    net = ring_model(2, n_stations=2)
    op = kronecker_generator(net)
    with pytest.raises(ValueError):
        KroneckerGenerator(np.array([2, 3]), op.factors)
    with pytest.raises(ValueError):
        KroneckerGenerator(op.phase_dims, op.factors[:1])


def test_space_mismatch_rejected():
    net = ring_model(3, n_stations=3)
    other = ring_model(4, n_stations=3)
    with pytest.raises(ValueError):
        kronecker_generator(net, NetworkStateSpace(other))


# ---------------------------------------------------------------------- #
# operator-backed steady state and solve_exact dispatch
# ---------------------------------------------------------------------- #
def test_operator_steady_state_matches_direct():
    net = ring_model(4, n_stations=4)
    space = NetworkStateSpace(net)
    Q = build_generator(net, space)
    pi_direct = steady_state_ctmc(Q, method="direct")
    pi_op = steady_state_ctmc(kronecker_generator(net, space))
    assert np.abs(pi_op - pi_direct).max() < 1e-10


def test_solve_exact_backend_parity():
    net = get_scenario_registry().get("fig5-case-study").network(population=4)
    dense = solve_exact(net, backend="dense")
    operator = solve_exact(net, backend="operator")
    # Krylov solve targets rtol 1e-10, so metric-level agreement is ~1e-8.
    for k in range(net.n_stations):
        assert operator.utilization(k) == pytest.approx(
            dense.utilization(k), abs=1e-8
        )
        assert operator.throughput(k) == pytest.approx(
            dense.throughput(k), abs=1e-8
        )
        assert operator.mean_queue_length(k) == pytest.approx(
            dense.mean_queue_length(k), abs=1e-8
        )


def test_solve_exact_auto_goes_operator_past_the_wall():
    net = ring_model(4, n_stations=3)  # S = 1280
    sol = solve_exact(net, backend="auto", max_states=100)
    dense = solve_exact(net, backend="dense")
    assert np.abs(sol.pi - dense.pi).max() < 1e-10


def test_solve_exact_operator_guard(monkeypatch):
    monkeypatch.setattr("repro.network.exact.OPERATOR_MAX_STATES", 100)
    net = ring_model(4, n_stations=3)
    with pytest.raises(MemoryError):
        solve_exact(net, backend="operator")


def test_solve_exact_rejects_unknown_backend():
    net = ring_model(2, n_stations=2)
    with pytest.raises(ValueError):
        solve_exact(net, backend="sparse")
