"""Simulator validation: agreement with the exact solver and invariants."""

import numpy as np
import pytest

from repro.maps import exponential, fit_map2, mmpp2
from repro.network import Network, delay, multiserver, queue, solve_exact
from repro.sim import FlowTap, replicate, simulate


@pytest.fixture(scope="module")
def map_network():
    routing = np.array([[0.2, 0.7, 0.1], [1.0, 0, 0], [1.0, 0, 0]])
    return Network(
        [
            queue("q1", exponential(2.0)),
            queue("q2", exponential(3.0)),
            queue("q3", fit_map2(1.0, 16.0, 0.5)),
        ],
        routing,
        8,
    )


@pytest.fixture(scope="module")
def map_sim(map_network):
    return simulate(map_network, horizon_events=300_000, warmup_events=30_000, rng=7)


@pytest.fixture(scope="module")
def map_exact(map_network):
    return solve_exact(map_network)


class TestAgreementWithExact:
    def test_utilizations(self, map_sim, map_exact, map_network):
        for k in range(map_network.n_stations):
            assert map_sim.utilization[k] == pytest.approx(
                map_exact.utilization(k), abs=0.02
            )

    def test_throughputs(self, map_sim, map_exact, map_network):
        for k in range(map_network.n_stations):
            assert map_sim.throughput[k] == pytest.approx(
                map_exact.throughput(k), rel=0.03
            )

    def test_queue_lengths(self, map_sim, map_exact, map_network):
        for k in range(map_network.n_stations):
            assert map_sim.mean_queue_length[k] == pytest.approx(
                map_exact.mean_queue_length(k), rel=0.06
            )

    def test_response_time(self, map_sim, map_exact):
        assert map_sim.response_time(0) == pytest.approx(
            map_exact.response_time(0), rel=0.03
        )

    def test_delay_station_network(self):
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("think", exponential(0.5)), queue("cpu", exponential(2.0))],
            routing,
            5,
        )
        sol = solve_exact(net)
        res = simulate(net, horizon_events=200_000, warmup_events=20_000, rng=11)
        assert res.utilization[1] == pytest.approx(sol.utilization(1), abs=0.02)
        assert res.mean_queue_length[1] == pytest.approx(
            sol.mean_queue_length(1), rel=0.05
        )

    def test_multiserver_network(self):
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [
                delay("src", exponential(1.0)),
                multiserver("srv", exponential(0.7), servers=2),
            ],
            routing,
            6,
        )
        sol = solve_exact(net)
        res = simulate(net, horizon_events=200_000, warmup_events=20_000, rng=13)
        assert res.mean_queue_length[1] == pytest.approx(
            sol.mean_queue_length(1), rel=0.05
        )


class TestInvariants:
    def test_population_conserved(self, map_sim, map_network):
        assert map_sim.mean_queue_length.sum() == pytest.approx(
            map_network.population, rel=1e-6
        )

    def test_flow_balance(self, map_sim, map_network):
        X = map_sim.throughput
        assert np.allclose(X, X @ map_network.routing, rtol=0.03)

    def test_littles_law_per_station(self, map_sim):
        """Q_k ~= X_k * R_k on simulated quantities."""
        for k in range(3):
            if map_sim.response_samples[k].size:
                assert map_sim.mean_queue_length[k] == pytest.approx(
                    map_sim.throughput[k] * map_sim.response_mean[k], rel=0.05
                )

    def test_reproducible_with_seed(self, map_network):
        a = simulate(map_network, horizon_events=20_000, warmup_events=2_000, rng=5)
        b = simulate(map_network, horizon_events=20_000, warmup_events=2_000, rng=5)
        assert np.array_equal(a.throughput, b.throughput)

    def test_different_seeds_differ(self, map_network):
        a = simulate(map_network, horizon_events=20_000, warmup_events=2_000, rng=5)
        b = simulate(map_network, horizon_events=20_000, warmup_events=2_000, rng=6)
        assert not np.array_equal(a.throughput, b.throughput)


class TestTaps:
    def test_tap_counts_match_completions(self, map_network):
        taps = [FlowTap(2, "departure", "q3 dep")]
        res = simulate(
            map_network,
            horizon_events=50_000,
            warmup_events=5_000,
            rng=3,
            taps=taps,
        )
        assert taps[0].count == res.completions[2]

    def test_arrival_departure_counts_balance(self, map_network):
        taps = [FlowTap(1, "arrival"), FlowTap(1, "departure")]
        simulate(
            map_network, horizon_events=50_000, warmup_events=5_000, rng=3, taps=taps
        )
        assert abs(taps[0].count - taps[1].count) <= map_network.population

    def test_intervals_positive(self, map_network):
        tap = FlowTap(0, "departure")
        simulate(
            map_network, horizon_events=30_000, warmup_events=3_000, rng=9, taps=[tap]
        )
        assert np.all(tap.intervals() >= 0)

    def test_bursty_flow_has_positive_acf(self, map_network):
        """Departures of the bursty MAP queue inherit its autocorrelation."""
        from repro.analysis import sample_acf

        tap = FlowTap(2, "departure")
        simulate(
            map_network,
            horizon_events=300_000,
            warmup_events=30_000,
            rng=21,
            taps=[tap],
        )
        acf = sample_acf(tap.intervals(), 3)
        assert acf[1] > 0.05

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            FlowTap(0, "sideways")


class TestReplication:
    def test_cis_cover_exact(self, map_network, map_exact):
        rep = replicate(
            map_network,
            n_replications=5,
            horizon_events=60_000,
            warmup_events=6_000,
            rng=17,
        )
        # CI coverage is statistical; allow a small slack on the interval.
        for k in range(3):
            lo, hi = rep.utilization_ci[k]
            u = map_exact.utilization(k)
            assert lo - 0.03 <= u <= hi + 0.03

    def test_requires_two_replications(self, map_network):
        with pytest.raises(ValueError):
            replicate(map_network, n_replications=1)

    def test_response_time_ci_ordering(self, map_network):
        rep = replicate(
            map_network,
            n_replications=4,
            horizon_events=30_000,
            warmup_events=3_000,
            rng=23,
        )
        lo, hi = rep.response_time_ci(0)
        assert lo <= rep.response_time(0) <= hi
