"""Station-wise QBD decomposition of open networks, and the
near-instability warning contract of the QBD layer."""

import warnings

import numpy as np
import pytest

from repro.maps.builders import exponential
from repro.maps.fitting import fit_map2
from repro.network.model import Network
from repro.network.population import OpenArrivals
from repro.network.stations import Station
from repro.qbd import MapMap1Queue, solve_open_network
from repro.utils.errors import (
    NearInstabilityWarning,
    SolverError,
    UnsupportedNetworkError,
)
from repro.workloads.tandem import open_tandem_model
from repro.workloads.webtier import open_web_tier_model


def _single_queue(arrivals, mean=0.5, station_kw=None):
    st = Station("q", exponential(1.0 / mean), **(station_kw or {}))
    return Network([st], np.zeros((1, 1)), OpenArrivals(arrivals, entry="q"))


class TestDecompositionExactness:
    def test_single_map_m_1_is_exact(self):
        arr = fit_map2(1.0, 16.0, 0.5)
        net = _single_queue(arr, mean=0.7)
        sol = solve_open_network(net)
        oracle = MapMap1Queue(arr, exponential(1.0 / 0.7))
        s = sol.stations[0]
        assert s.utilization == pytest.approx(oracle.utilization, rel=1e-9)
        assert s.mean_queue_length == pytest.approx(
            oracle.mean_queue_length, rel=1e-9
        )
        assert s.arrival_model == "exact"

    def test_map_service_station_uses_mapmap1(self):
        arr = exponential(1.0)
        svc = fit_map2(0.6, 9.0, 0.4)
        st = Station("q", svc)
        net = Network(
            [st], np.zeros((1, 1)), OpenArrivals(arr, entry="q")
        )
        sol = solve_open_network(net)
        oracle = MapMap1Queue(arr, svc)
        assert sol.stations[0].mean_queue_length == pytest.approx(
            oracle.mean_queue_length, rel=1e-9
        )

    def test_throughputs_follow_traffic_equations(self):
        net = open_web_tier_model()
        sol = solve_open_network(net)
        lam = [s.arrival_rate for s in sol.stations]
        assert np.allclose(lam, net.arrival_rates)
        assert sol.system_throughput == pytest.approx(net.arrivals.rate)

    def test_split_stations_use_thinned_arrivals(self):
        net = open_web_tier_model()
        sol = solve_open_network(net)
        models = [s.arrival_model for s in sol.stations]
        assert models[0] == "exact"        # entry station, whole stream
        assert models[1] == "thinned"      # v = 0.6
        assert models[2] == "thinned"      # v = 0.3

    def test_downstream_station_never_claims_exact(self):
        """q2 of the tandem has v = 1 but sees q1's *departures*, not the
        external MAP — the label must say approximation, not exact."""
        sol = solve_open_network(open_tandem_model())
        assert [s.arrival_model for s in sol.stations] == ["exact", "map"]

    def test_feedback_falls_back_to_poisson(self):
        # q1 -> q2 -> (q1 | sink): v = (2, 2) > 1
        P = np.array([[0.0, 1.0], [0.5, 0.0]])
        net = Network(
            [Station("q1", exponential(5.0)), Station("q2", exponential(5.0))],
            P,
            OpenArrivals(exponential(1.0), entry="q1"),
        )
        sol = solve_open_network(net)
        assert all(s.arrival_model == "poisson" for s in sol.stations)

    def test_littles_law_on_the_system(self):
        net = open_tandem_model()
        sol = solve_open_network(net)
        assert sol.mean_response_time == pytest.approx(
            sol.mean_jobs_in_system / sol.system_throughput
        )

    def test_rejects_closed_networks(self):
        from repro.scenarios import get_scenario

        with pytest.raises(UnsupportedNetworkError):
            solve_open_network(
                get_scenario("poisson-tandem").network(population=4)
            )


class TestNearInstabilityWarning:
    def test_near_saturated_station_warns_with_name(self):
        net = _single_queue(exponential(0.99995), mean=1.0)
        with pytest.warns(NearInstabilityWarning, match="station 'q'"):
            solve_open_network(net)

    def test_comfortably_stable_station_stays_silent(self):
        net = open_tandem_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearInstabilityWarning)
            solve_open_network(net)

    def test_warning_threshold_is_spectral_radius_based(self):
        from repro.qbd.solver import solve_r_matrix

        lam, mu = 0.99995, 1.0
        with pytest.warns(NearInstabilityWarning, match="spectral radius"):
            solve_r_matrix(
                np.array([[lam]]), np.array([[-(lam + mu)]]),
                np.array([[mu]]), label="station 'hot'",
            )

    def test_unstable_qbd_fails_fast_not_hanging(self):
        """Drift precheck: instability is an immediate structured error."""
        import time

        from repro.qbd.solver import solve_r_matrix

        lam, mu = 1.2, 1.0
        t0 = time.perf_counter()
        with pytest.raises(SolverError, match="not positive recurrent"):
            solve_r_matrix(
                np.array([[lam]]), np.array([[-(lam + mu)]]),
                np.array([[mu]]), label="station 'db'",
            )
        assert time.perf_counter() - t0 < 1.0

    def test_unstable_error_names_the_station(self):
        from repro.qbd.solver import solve_r_matrix

        with pytest.raises(SolverError, match="station 'db'"):
            solve_r_matrix(
                np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]]),
                label="station 'db'",
            )


class TestLogarithmicReductionQuality:
    def test_near_saturation_solves_fast_and_exactly(self):
        """rho = 0.9999: the old functional iteration needed ~600k steps."""
        import time

        rho = 0.9999
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearInstabilityWarning)
            q = MapMap1Queue(exponential(rho), exponential(1.0))
            en = q.mean_queue_length
        assert time.perf_counter() - t0 < 1.0
        assert en == pytest.approx(rho / (1 - rho), rel=1e-6)

    def test_quadratic_residual_on_bursty_map(self):
        from repro.maps.builders import mmpp2
        from repro.qbd.solver import solve_r_matrix

        m = mmpp2(0.2, 0.3, 1.2, 0.3)
        mu = 1.5
        K = m.order
        A0, A1, A2 = m.D1, m.D0 - mu * np.eye(K), mu * np.eye(K)
        R = solve_r_matrix(A0, A1, A2)
        assert np.abs(A0 + R @ A1 + R @ R @ A2).max() < 1e-10
