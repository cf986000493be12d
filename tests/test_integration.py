"""Cross-module integration tests: every analysis layer against every other.

These are the "triangulation" tests of the reproduction: for the same
model, the exact CTMC solver, the LP bounds, the simulator, MVA (where
valid), and the QBD layer (in its limiting regime) must tell one coherent
story.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import aba_bounds, mva
from repro.core import solve_bounds, verify_exactness
from repro.maps import exponential, fit_map2, random_map2
from repro.network import Network, queue, solve_exact
from repro.qbd import MapMap1Queue
from repro.sim import simulate


@st.composite
def small_networks(draw):
    """Random 2-3 station closed MAP networks, populations 2-6."""
    rng_seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    m_stations = draw(st.integers(2, 3))
    stations = []
    for i in range(m_stations):
        if rng.random() < 0.5:
            stations.append(queue(f"s{i}", random_map2(rng=rng)))
        else:
            stations.append(
                queue(f"s{i}", exponential(float(rng.uniform(0.4, 3.0))))
            )
    population = draw(st.integers(2, 6))
    while True:
        P = rng.dirichlet(np.ones(m_stations) * 0.9, size=m_stations)
        try:
            return Network(stations, P, population)
        except Exception:
            continue


@given(small_networks())
@settings(max_examples=10, deadline=None)
def test_constraints_exact_and_bounds_bracket(net):
    """Property: on ANY model, constraints are exact and bounds are valid."""
    sol = solve_exact(net)
    report = verify_exactness(sol)
    assert report["max_equality_residual"] < 1e-8, report
    assert report["max_inequality_violation"] < 1e-8, report
    res = solve_bounds(net)
    for k in range(net.n_stations):
        assert res.utilization[k].contains(sol.utilization(k))
        assert res.throughput[k].contains(sol.throughput(k))
        assert res.queue_length[k].contains(sol.mean_queue_length(k))


@given(small_networks())
@settings(max_examples=8, deadline=None)
def test_aba_brackets_exact_on_any_model(net):
    sol = solve_exact(net)
    b = aba_bounds(net)
    X = sol.system_throughput(0)
    assert b.throughput_lower <= X * (1 + 1e-9)
    assert X <= b.throughput_upper * (1 + 1e-9)


class TestFourWayAgreement:
    """Exact == MVA (product form), sim ~ exact, LP brackets everything."""

    @pytest.fixture(scope="class")
    def net(self):
        routing = np.array([[0.1, 0.5, 0.4], [1.0, 0, 0], [1.0, 0, 0]])
        return Network(
            [
                queue("a", exponential(2.0)),
                queue("b", exponential(1.5)),
                queue("c", exponential(1.0)),
            ],
            routing,
            7,
        )

    def test_exact_vs_mva(self, net):
        sol = solve_exact(net)
        res = mva(net)
        assert res.system_throughput == pytest.approx(
            sol.system_throughput(0), rel=1e-10
        )

    def test_lp_vs_both(self, net):
        sol = solve_exact(net)
        res = solve_bounds(net)
        assert res.system_throughput.contains(sol.system_throughput(0))
        # Exponential 3-queue models are bounded tightly (the LP does not
        # encode product form explicitly, so the interval is small but not
        # degenerate; two-station models collapse to near-zero width).
        assert res.system_throughput.relative_width() < 0.05

    def test_sim_vs_exact(self, net):
        sol = solve_exact(net)
        sim = simulate(net, horizon_events=150_000, warmup_events=15_000, rng=4)
        assert sim.system_throughput(0) == pytest.approx(
            sol.system_throughput(0), rel=0.03
        )


class TestQbdLimit:
    """A closed network with a huge lightly-loaded delay source approaches
    the open MAP/M/1 queue (arrivals thin toward the MAP flow)."""

    def test_bursty_queue_vs_mapm1_direction(self):
        # Open-queue reference: bursty arrivals into an exponential server.
        arrivals = fit_map2(1.0, 9.0, 0.5)
        open_q = MapMap1Queue(arrivals, exponential(1.3))
        # Closed surrogate: the same bursty process as the *service* of a
        # saturated upstream station feeding the exponential server.
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("src", arrivals), queue("srv", exponential(1.3))],
            routing,
            40,
        )
        sol = solve_exact(net)
        # With the source saturated, the server sees (approximately) the
        # MAP as its arrival process; queue lengths should be comparable
        # and far above the Poisson-fed M/M/1 level.
        mm1_level = open_q.offered_load / (1 - open_q.offered_load)
        assert sol.mean_queue_length(1) > 0.5 * mm1_level
        assert open_q.mean_queue_length > 2.0 * mm1_level
