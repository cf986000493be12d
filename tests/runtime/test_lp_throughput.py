"""Throughput bounds from the operational laws agree with solved ones.

``BatchLPSolver.bound_specs`` solves no throughput LP: at every point of
the marginal-balance polytope a single-server queue's throughput is its
utilization over its mean service time (the phase balance makes the busy
phases follow the service MAP's stationary law) and an exponential
delay's is its mean queue length over its think time.  So each
``throughput[k]`` interval is the ``utilization[k]`` or
``queue_length[k]`` interval times the station's service rate.  These
tests solve the throughput LP anyway, through ``bound_metric``'s path,
and hold the derived interval to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import bound_metric, throughput_metric
from repro.maps import exponential, random_map2
from repro.network import Network, delay, queue
from repro.runtime.batch import BatchLPSolver
from repro.scenarios import get_scenario, get_scenario_registry

#: closed catalog scenarios: (name, population, constraint tier).
#: ``kron-ring``'s triple tier has 18,192 variables at N = 2 (about a
#: minute of interior point), so it is checked on the pair tier.
CATALOG = [
    (sc.name, 2, False) if sc.name == "kron-ring" else (sc.name, 3, None)
    for sc in get_scenario_registry()
    if sc.network().kind == "closed"
]


def _assert_derived_matches_solved(net: Network, triples=None) -> None:
    tele = obs.Telemetry()
    with obs.use(tele), tele.span("caller"):
        solver = BatchLPSolver(net, triples=triples)
        derived = solver.bound_specs("standard")
    solved_metrics = [
        rec["attributes"]["metric"]
        for rec in obs.span_records(tele.roots)
        if rec["name"] == "lp.solve"
    ]
    assert len(solved_metrics) == solver.n_solves == 4 * net.n_stations
    assert not [m for m in solved_metrics if "throughput" in m]
    if triples is None:
        solved = [
            bound_metric(net, throughput_metric(net, solver.vi, k))
            for k in range(net.n_stations)
        ]
    else:  # bound_metric's path on the other tier: one solver, cold pairs
        lp = BatchLPSolver(net, triples=triples)
        solved = [lp.bound(throughput_metric(net, lp.vi, k)) for k in range(net.n_stations)]
    for k, want in enumerate(solved):
        got = derived[f"throughput[{k}]"]
        assert got.lower == pytest.approx(want.lower, rel=1e-7), k
        assert got.upper == pytest.approx(want.upper, rel=1e-7), k
    assert derived["system_throughput"] == derived["throughput[0]"]


@pytest.mark.parametrize(
    "name, population, triples", CATALOG, ids=[name for name, _, _ in CATALOG]
)
def test_catalog_throughput_derived_matches_solved(name, population, triples):
    net = get_scenario(name).network(population=population)
    _assert_derived_matches_solved(net, triples)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_queues=st.integers(1, 3),
    with_delay=st.booleans(),
    self_loop=st.sampled_from([0.0, 0.3, 0.6]),
    N=st.integers(1, 4),
)
def test_random_networks_throughput_derived_matches_solved(
    seed, n_queues, with_delay, self_loop, N
):
    """MAP(2) queues, an optional exponential delay, self-loops at the queues."""
    rng = np.random.default_rng(seed)
    stations = [
        queue(f"q{j}", random_map2(rng=np.random.default_rng(seed + 17 * j)))
        for j in range(n_queues)
    ]
    if with_delay or n_queues == 1:
        stations.insert(0, delay("think", exponential(float(rng.uniform(0.2, 2.0)))))
    M = len(stations)
    routing = rng.uniform(0.05, 1.0, size=(M, M))
    np.fill_diagonal(routing, 0.0)
    routing /= routing.sum(axis=1, keepdims=True)
    loops = np.array([0.0 if s.kind == "delay" else self_loop for s in stations])
    routing = (1.0 - loops)[:, None] * routing + np.diag(loops)
    _assert_derived_matches_solved(Network(stations, routing, N))
