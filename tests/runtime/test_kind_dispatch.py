"""SolverRegistry dispatch on network kind (the ISSUE 4 acceptance path)."""

import pytest

from repro.runtime import SolverRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.registry import SolveResult
from repro.scenarios import get_scenario, load_spec, network_from_spec
from repro.utils.errors import UnsupportedNetworkError

CLOSED_ONLY = ("lp", "exact", "mva", "aba", "bjb", "decomposition")

OPEN_YAML = """
kind: open
arrivals: {dist: map2, mean: 1.0, scv: 16.0, gamma2: 0.5}
stations:
  - {name: q1, service: {dist: exponential, mean: 0.7}}
  - {name: q2, service: {dist: exponential, mean: 0.6}}
routing:
  source: {q1: 1.0}
  q1: {q2: 1.0}
  q2: {sink: 1.0}
"""


@pytest.fixture(scope="module")
def registry():
    return SolverRegistry(cache=None)


@pytest.fixture(scope="module")
def open_net():
    return network_from_spec(load_spec(OPEN_YAML))


class TestClosedOnlyMethodsRaise:
    @pytest.mark.parametrize("method", CLOSED_ONLY)
    def test_open_network_raises_typed_error(self, registry, open_net, method):
        with pytest.raises(UnsupportedNetworkError) as err:
            registry.solve(open_net, method)
        assert err.value.method == method
        assert err.value.kind == "open"

    @pytest.mark.parametrize("method", CLOSED_ONLY)
    def test_mixed_network_raises_typed_error(self, registry, method):
        net = get_scenario("mixed-tpcw").network(population=8)
        with pytest.raises(UnsupportedNetworkError):
            registry.solve(net, method)

    def test_qbd_rejects_mixed(self, registry):
        net = get_scenario("mixed-tpcw").network(population=8)
        with pytest.raises(UnsupportedNetworkError):
            registry.solve(net, "qbd")

    def test_mixed_error_message_points_to_sim(self, registry):
        net = get_scenario("mixed-tpcw").network(population=8)
        with pytest.raises(UnsupportedNetworkError, match="'sim' method"):
            registry.solve(net, "mva")

    def test_error_survives_pickling(self):
        """Parallel sweep workers ship these errors across processes."""
        import pickle

        err = UnsupportedNetworkError("mva", "mixed")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.method == "mva" and clone.kind == "mixed"
        assert str(clone) == str(err)

    def test_sweep_spec_rejects_open_scenarios(self):
        """A population sweep over an open scenario would compile N
        identical models; SweepSpec refuses instead of silently doing so."""
        from repro.runtime.sweep import SweepSpec

        spec = SweepSpec(
            scenario="open-bursty-tandem", populations=(1, 2, 3), method="qbd"
        )
        with pytest.raises(UnsupportedNetworkError):
            spec.networks()

    def test_integral_float_population_shorthand(self):
        """np.linspace-style float populations keep working (pre-redesign
        leniency), but fractional ones are rejected."""
        import numpy as np

        from repro.network.model import Network
        from repro.utils.errors import ValidationError

        base = get_scenario("poisson-tandem").network(population=4)
        assert Network(base.stations, base.routing, np.float64(10)).population == 10
        with pytest.raises(ValidationError):
            Network(base.stations, base.routing, 10.5)

    def test_exact_state_space_rejects_mixed_directly(self):
        """build_generator/NetworkStateSpace must not silently model only
        the closed chain of a mixed network."""
        from repro.network.exact import build_generator
        from repro.network.statespace import NetworkStateSpace

        net = get_scenario("mixed-tpcw").network(population=4)
        with pytest.raises(UnsupportedNetworkError):
            NetworkStateSpace(net)
        with pytest.raises(UnsupportedNetworkError):
            build_generator(net)


class TestAcceptanceCriterion:
    """Open YAML scenario solves via qbd *and* sim; throughputs agree <= 5%."""

    def test_qbd_and_sim_station_throughputs_agree(self, registry, open_net):
        qbd = registry.solve(open_net, "qbd")
        sim = registry.solve(open_net, "sim", rng=123)
        for k in range(open_net.n_stations):
            a = qbd.throughput[k].midpoint
            b = sim.throughput[k].midpoint
            assert abs(a - b) / a < 0.05, (k, a, b)
        # utilizations are exact in both (rho_k), also within 5%
        for k in range(open_net.n_stations):
            a = qbd.utilization[k].midpoint
            b = sim.utilization[k].midpoint
            assert abs(a - b) / a < 0.05

    def test_open_result_has_no_population(self, registry, open_net):
        res = registry.solve(open_net, "qbd")
        assert res.population is None
        assert res.system_throughput.midpoint == pytest.approx(1.0)

    def test_qbd_first_station_is_exact_mapm1(self, registry, open_net):
        from repro.maps import exponential
        from repro.qbd import MapMap1Queue

        res = registry.solve(open_net, "qbd")
        oracle = MapMap1Queue(open_net.arrivals, exponential(1.0 / 0.7))
        assert res.queue_length[0].midpoint == pytest.approx(
            oracle.mean_queue_length, rel=1e-9
        )
        assert res.extra["arrival_models"][0] == "exact"


class TestOpenCaching:
    def test_open_solve_round_trips_through_the_cache(self, tmp_path, open_net):
        reg = SolverRegistry(cache=ResultCache(directory=tmp_path))
        first = reg.solve(open_net, "qbd")
        assert not first.from_cache
        replay = reg.solve(open_net, "qbd")
        assert replay.from_cache
        assert replay.population is None
        assert replay.to_dict() == dict(first.to_dict())
        # a fresh registry has only the disk tier to replay from
        fresh = SolverRegistry(cache=ResultCache(directory=tmp_path))
        from_disk = fresh.solve(open_net, "qbd")
        assert from_disk.from_cache and from_disk.extra["cache_tier"] == "disk"
        assert from_disk.population is None
        assert from_disk.to_dict() == dict(first.to_dict())

    def test_payload_round_trip_preserves_none_population(self, registry, open_net):
        res = registry.solve(open_net, "qbd")
        rebuilt = SolveResult.from_dict(res.to_dict())
        assert rebuilt.population is None

    def test_open_and_closed_fingerprints_never_collide(self, open_net):
        from repro.runtime.fingerprint import fingerprint_network

        closed = get_scenario("poisson-tandem").network(population=4)
        assert fingerprint_network(open_net) != fingerprint_network(closed)


class TestMixedSimulation:
    def test_mixed_tpcw_simulates_and_serves_both_classes(self, registry):
        net = get_scenario("mixed-tpcw").network(population=16)
        res = registry.solve(
            net, "sim", rng=11, horizon_events=60_000, warmup_events=6_000
        )
        assert res.population == 16
        # front tier serves closed + open flow: throughput above the open
        # chain's own arrival rate
        front = net.station_index("front")
        assert res.throughput[front].midpoint > net.arrival_rates[front]
        assert res.extra["sink_departure_rate"] == pytest.approx(
            net.arrivals.rate, rel=0.1
        )
