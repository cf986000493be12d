"""Open/mixed simulation semantics of the discrete-event engine."""

import numpy as np
import pytest

from repro.scenarios import NetworkBuilder, get_scenario
from repro.sim.engine import simulate


def _open_mm1(lam=0.8, mean=1.0):
    return (
        NetworkBuilder()
        .source(rate=lam)
        .queue("q", mean=mean)
        .sink()
        .link("source", "q")
        .link("q", "sink")
        .build()
    )


class TestOpenSimulation:
    def test_mm1_matches_theory(self):
        net = _open_mm1(lam=0.8, mean=1.0)
        sim = simulate(net, horizon_events=300_000, warmup_events=30_000, rng=42)
        rho = 0.8
        assert sim.utilization[0] == pytest.approx(rho, abs=0.02)
        assert sim.mean_queue_length[0] == pytest.approx(rho / (1 - rho), rel=0.15)
        assert sim.system_throughput() == pytest.approx(rho, rel=0.05)
        # Little's law on the measured quantities
        assert sim.response_time() == pytest.approx(
            sim.mean_queue_length.sum() / sim.system_throughput()
        )

    def test_flow_balance_arrivals_vs_departures(self):
        net = _open_mm1()
        sim = simulate(net, horizon_events=100_000, warmup_events=10_000, rng=1)
        # in steady state external arrivals ~ sink departures
        assert sim.sink_departures == pytest.approx(sim.external_arrivals, rel=0.05)
        assert sim.sink_departures > 0

    def test_probabilistic_exit_thins_downstream_flow(self):
        net = (
            NetworkBuilder()
            .source(rate=1.0)
            .queue("a", mean=0.3)
            .queue("b", mean=0.3)
            .sink()
            .link("source", "a")
            .link("a", "b", 0.4).link("a", "sink", 0.6)
            .link("b", "sink")
            .build()
        )
        sim = simulate(net, horizon_events=150_000, warmup_events=15_000, rng=3)
        assert sim.throughput[1] / sim.throughput[0] == pytest.approx(0.4, abs=0.03)

    def test_bursty_arrivals_queue_more_than_poisson(self):
        """Same rates: temporal dependence in arrivals inflates the queue."""
        poisson = simulate(
            _open_mm1(), horizon_events=150_000, warmup_events=15_000, rng=5
        )
        bursty_net = (
            NetworkBuilder()
            .source(service={"dist": "map2", "mean": 1.25, "scv": 16.0,
                             "gamma2": 0.5})
            .queue("q", mean=1.0)
            .sink()
            .link("source", "q")
            .link("q", "sink")
            .build()
        )
        bursty = simulate(
            bursty_net, horizon_events=150_000, warmup_events=15_000, rng=5
        )
        assert bursty.mean_queue_length[0] > 2.0 * poisson.mean_queue_length[0]

    def test_deterministic_under_fixed_seed(self):
        net = _open_mm1()
        a = simulate(net, horizon_events=20_000, warmup_events=2_000, rng=9)
        b = simulate(net, horizon_events=20_000, warmup_events=2_000, rng=9)
        assert np.array_equal(a.completions, b.completions)
        assert a.duration == b.duration


class TestMixedSimulation:
    def test_per_chain_response_times_are_separated(self):
        """Mixed response_time is the closed chain's N/X_ref; the open
        class reports its own Little's-law time via open_response_time."""
        net = get_scenario("mixed-tpcw").network(population=16)
        sim = simulate(net, horizon_events=60_000, warmup_events=6_000, rng=11)
        assert sim.response_time() == pytest.approx(16 / sim.throughput[0])
        open_r = sim.open_response_time()
        assert 0 < open_r < sim.response_time()  # browse jobs never think
        assert sim.mean_queue_length_open.sum() < sim.mean_queue_length.sum()

    def test_reference_station_flow_excludes_open_jobs(self):
        """Open traffic through the reference station must not inflate the
        closed chain's cycle rate (and hence deflate its response time)."""
        net = (
            NetworkBuilder(population=2)
            .queue("q1", mean=0.1).queue("q2", mean=0.1)
            .source(rate=5.0)
            .sink()
            .cycle("q1", "q2")
            .link("source", "q1").link("q1", "sink")
            .build()
        )
        sim = simulate(net, horizon_events=80_000, warmup_events=8_000, rng=6)
        closed_rate = (sim.completions[0] - sim.completions_open[0]) / sim.duration
        assert sim.system_throughput(0) == pytest.approx(closed_rate)
        # total station flow is much larger than the closed chain alone
        assert sim.throughput[0] > 1.5 * sim.system_throughput(0)
        assert sim.response_time(0) == pytest.approx(2 / closed_rate)

    def test_zero_sink_departures_yields_nan_not_crash(self):
        """A trickle-rate open chain over a short horizon must degrade to
        nan metrics, never a ZeroDivisionError.

        The run lasts about 1,100 time units, so at one browse request per
        1e12 units an open job arrives at all with probability near 1e-9:
        zero sink departures holds by construction, not by the seed.
        """
        import math

        from repro.workloads.tpcw import mixed_tpcw_model

        net = mixed_tpcw_model(8, browse_rate=1e-12)
        sim = simulate(net, horizon_events=5_000, warmup_events=500, rng=1)
        assert sim.sink_departures == 0
        assert math.isnan(sim.open_response_time())

    def test_mixed_tpcw_runs_and_balances(self):
        net = get_scenario("mixed-tpcw").network(population=16)
        sim = simulate(net, horizon_events=80_000, warmup_events=8_000, rng=2)
        # open chain balances through the sink
        assert sim.sink_departures == pytest.approx(
            sim.external_arrivals, rel=0.1
        )
        # closed chain still cycles: client completions happen
        client = net.station_index("clients")
        assert sim.completions[client] > 0

    def test_closed_class_population_is_conserved(self):
        net = (
            NetworkBuilder(population=6)
            .queue("a", mean=0.3)
            .queue("b", mean=0.2)
            .source(rate=0.5)
            .sink()
            .cycle("a", "b")
            .link("source", "a")
            .open_link("a", "b", 0.5).link("a", "sink", 0.5)
            .link("b", "sink")
            .build()
        )
        sim = simulate(net, horizon_events=60_000, warmup_events=6_000, rng=4)
        # mean total jobs >= closed population share that never leaves;
        # with an open class on top, total mean must exceed what the open
        # class alone would hold
        assert sim.mean_queue_length.sum() > 0
        assert sim.sink_departures > 0
