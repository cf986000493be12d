"""Dense vs operator backend parity for the transient pipeline.

The matrix-free backend must be *indistinguishable* from the assembled
one at the answer level: the uniformization sweep runs the same series
with the same truncation points, so trajectories agree pointwise to
1e-10, the t->inf references agree with the dense exact solution to
1e-8 (they come from a Krylov solve instead of a direct one), and the
guard rails / method gating behave as documented.
"""

import numpy as np
import pytest

from repro.network.exact import solve_exact
from repro.transient import transient_trajectories
from repro.transient.solver import solve_transient
from repro.utils.errors import NotSupportedError
from repro.workloads.ring import ring_model
from repro.workloads.tandem import tandem_model

TIMES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0)


@pytest.fixture(scope="module")
def tandem():
    return tandem_model(5)


@pytest.fixture(scope="module")
def dense_traj(tandem):
    return transient_trajectories(tandem, TIMES, pi0="loaded:q1")


@pytest.fixture(scope="module")
def operator_traj(tandem):
    return transient_trajectories(
        tandem, TIMES, pi0="loaded:q1", backend="operator"
    )


class TestPointwiseParity:
    def test_queue_lengths_match(self, dense_traj, operator_traj):
        assert np.abs(
            operator_traj.queue_length - dense_traj.queue_length
        ).max() < 1e-10

    def test_utilization_and_throughput_match(self, dense_traj, operator_traj):
        assert np.abs(
            operator_traj.utilization - dense_traj.utilization
        ).max() < 1e-10
        assert np.abs(
            operator_traj.throughput - dense_traj.throughput
        ).max() < 1e-10

    def test_tv_distance_matches(self, dense_traj, operator_traj):
        assert np.abs(
            operator_traj.distance_tv - dense_traj.distance_tv
        ).max() < 1e-10

    def test_same_series_truncation(self, dense_traj, operator_traj):
        # identical uniformization constants (up to the last ulp) force
        # identical Poisson-series truncation points, so the two backends
        # do the same number of operator applications
        assert operator_traj.stats["n_matvecs"] == dense_traj.stats["n_matvecs"]
        assert operator_traj.stats["q"] == pytest.approx(
            dense_traj.stats["q"], rel=1e-15
        )

    def test_backend_recorded_in_stats(self, dense_traj, operator_traj):
        assert dense_traj.stats["backend"] == "dense"
        assert operator_traj.stats["backend"] == "operator"


class TestStationaryLimit:
    def test_t_inf_matches_exact_solution(self, tandem, operator_traj):
        exact = solve_exact(tandem)
        for k in range(tandem.n_stations):
            assert operator_traj.queue_length_inf[k] == pytest.approx(
                exact.mean_queue_length(k), abs=1e-8
            )
            assert operator_traj.utilization_inf[k] == pytest.approx(
                exact.utilization(k), abs=1e-8
            )
            assert operator_traj.throughput_inf[k] == pytest.approx(
                exact.throughput(k), abs=1e-8
            )

    def test_late_time_converges_to_limit(self, tandem):
        # the bursty tandem mixes slowly; go far past warmup to see the
        # trajectory collapse onto the stationary reference
        traj = transient_trajectories(
            tandem, (0.0, 400.0), pi0="loaded:q1", backend="operator"
        )
        assert traj.queue_length[-1] == pytest.approx(
            traj.queue_length_inf, abs=1e-4
        )
        assert traj.distance_tv[-1] < 1e-4


class TestAccumulateParity:
    def test_mean_occupancy_matches(self, tandem):
        dense = transient_trajectories(
            tandem, TIMES, pi0="loaded:q1", accumulate=True
        )
        op = transient_trajectories(
            tandem, TIMES, pi0="loaded:q1", accumulate=True,
            backend="operator",
        )
        assert dense.mean_occupancy is not None
        assert op.mean_occupancy is not None
        assert np.abs(op.mean_occupancy - dense.mean_occupancy).max() < 1e-10


class TestRingParity:
    def test_small_ring_matches(self):
        net = ring_model(3, n_stations=3)
        dense = transient_trajectories(net, TIMES, pi0="loaded:q0")
        op = transient_trajectories(
            net, TIMES, pi0="loaded:q0", backend="operator"
        )
        assert np.abs(op.queue_length - dense.queue_length).max() < 1e-10
        assert np.abs(op.distance_tv - dense.distance_tv).max() < 1e-10


class TestGatingAndGuards:
    def test_expm_engine_rejected_on_operator_backend(self, tandem):
        with pytest.raises(NotSupportedError):
            transient_trajectories(
                tandem, TIMES, pi0="loaded:q1", engine="expm",
                backend="operator",
            )

    def test_operator_guard_rail(self, tandem, monkeypatch):
        monkeypatch.setattr("repro.network.exact.OPERATOR_MAX_STATES", 3)
        with pytest.raises(MemoryError):
            transient_trajectories(
                tandem, TIMES, pi0="loaded:q1", backend="operator"
            )

    def test_auto_backend_crosses_the_wall(self):
        # max_states=10 would make the dense path refuse this network;
        # auto silently reroutes to the operator and gets the same answer
        net = ring_model(2, n_stations=2)
        dense = transient_trajectories(net, TIMES, pi0="loaded:q0")
        auto = transient_trajectories(
            net, TIMES, pi0="loaded:q0", backend="auto", max_states=10
        )
        assert auto.stats["backend"] == "operator"
        assert np.abs(auto.queue_length - dense.queue_length).max() < 1e-10

    def test_unknown_backend_rejected(self, tandem):
        with pytest.raises(ValueError):
            transient_trajectories(
                tandem, TIMES, pi0="loaded:q1", backend="sparse"
            )


class TestSolveTransientThreading:
    def test_backend_reaches_result_extra(self, tandem):
        res = solve_transient(tandem, times=TIMES, pi0="loaded:q1",
                              backend="operator")
        assert res.extra["backend"] == "operator"

    def test_answers_backend_invariant(self, tandem):
        dense = solve_transient(tandem, times=TIMES, pi0="loaded:q1",
                                backend="dense")
        op = solve_transient(tandem, times=TIMES, pi0="loaded:q1",
                             backend="operator")
        assert np.abs(
            np.asarray(op.queue_length_t) - np.asarray(dense.queue_length_t)
        ).max() < 1e-10

