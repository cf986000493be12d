"""Round-trip tests over every registered scenario.

The tier-1 guarantees of the scenario layer: every catalog entry builds a
valid model, renders to a spec that compiles back to the *same* model
(fingerprint-identical), fingerprints stably across calls, and solves with
at least one fast method (``mva`` or ``aba``) inside the tier-1 time
budget.
"""

import pytest

from repro.runtime import SolverRegistry
from repro.runtime.fingerprint import fingerprint_network
from repro.scenarios import (
    Scenario,
    ScenarioRegistry,
    get_scenario,
    get_scenario_registry,
    network_from_spec,
)
from repro.utils.errors import ValidationError

ALL_NAMES = get_scenario_registry().names()

#: Small populations keep the whole parametrized sweep inside seconds.
FAST_N = 8


@pytest.fixture(scope="module")
def solver_registry():
    return SolverRegistry(cache=None)


class TestCatalog:
    def test_at_least_eight_scenarios(self):
        assert len(get_scenario_registry()) >= 8

    def test_names_are_unique_and_kebab_case(self):
        assert len(set(ALL_NAMES)) == len(ALL_NAMES)
        for name in ALL_NAMES:
            assert name == name.lower()
            assert " " not in name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builds_and_validates(self, name):
        sc = get_scenario(name)
        net = sc.network(population=FAST_N)
        if net.kind != "open":
            assert net.population == FAST_N
        assert net.n_stations >= 2
        assert all(st.mean_service_time > 0 for st in net.stations)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fingerprint_stable_across_builds(self, name):
        sc = get_scenario(name)
        assert sc.fingerprint(population=FAST_N) == sc.fingerprint(population=FAST_N)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_spec_round_trip_preserves_fingerprint(self, name):
        sc = get_scenario(name)
        net = sc.network(population=FAST_N)
        rebuilt = network_from_spec(sc.spec(population=FAST_N))
        assert fingerprint_network(rebuilt) == fingerprint_network(net)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_solves_with_a_fast_method(self, name, solver_registry):
        net = get_scenario(name).network(population=FAST_N)
        if net.kind == "open":
            method = "qbd"
        elif net.kind == "mixed":
            res = solver_registry.solve(
                net, "sim", rng=7, horizon_events=20_000, warmup_events=2_000
            )
            assert res.system_throughput.midpoint > 0
            return
        else:
            method = "mva" if net.is_product_form else "aba"
        res = solver_registry.solve(net, method)
        x = res.system_throughput
        assert x is not None and 0 < x.lower <= x.upper

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_mva_facade_covers_every_scenario(self, name, solver_registry):
        """`solve <name> --method mva` works for each closed scenario;
        open/mixed ones raise the typed dispatch error instead of silently
        mis-solving."""
        from repro.utils.errors import UnsupportedNetworkError

        net = get_scenario(name).network(population=FAST_N)
        if net.kind != "closed":
            with pytest.raises(UnsupportedNetworkError):
                solver_registry.solve(net, "mva")
            return
        res = solver_registry.solve(net, "mva")
        assert res.system_throughput_point() > 0
        assert res.extra["product_form"] == net.is_product_form

    def test_documented_metadata_present(self):
        for sc in get_scenario_registry():
            assert sc.summary
            assert sc.description
            assert sc.paper_ref
            assert sc.tags
            # open scenarios have no population sweep by definition
            assert sc.populations or sc.network().kind == "open"


class TestScenarioParams:
    def test_overrides_reach_the_builder(self):
        sc = get_scenario("bursty-tandem")
        net = sc.network(population=4, scv=1.0, gamma2=0.0)
        assert net.is_product_form  # degenerates to exponential

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError, match="no parameter"):
            get_scenario("bursty-tandem").network(population=4, typo=1.0)

    def test_default_population_used_when_omitted(self):
        sc = get_scenario("fig5-case-study")
        assert sc.network().population == sc.default_population

    def test_populations_share_one_service_map(self):
        # the MAP(2) is fitted once per process, not once per population
        sc = get_scenario("bursty-tandem")
        a, b = sc.network(population=4), sc.network(population=9)
        assert a.stations[0].service.order == 2
        assert a.stations[0].service is b.stations[0].service


class TestRegistryMechanics:
    def _dummy(self):
        return Scenario(
            name="dummy",
            summary="s",
            builder=lambda population: get_scenario("poisson-tandem").network(
                population=population
            ),
        )

    def test_register_get_contains_len(self):
        reg = ScenarioRegistry()
        sc = self._dummy()
        reg.register(sc)
        assert "dummy" in reg
        assert reg.get("dummy") is sc
        assert len(reg) == 1
        assert reg.names() == ("dummy",)

    def test_duplicate_registration_rejected_unless_replace(self):
        reg = ScenarioRegistry()
        reg.register(self._dummy())
        with pytest.raises(ValidationError, match="already registered"):
            reg.register(self._dummy())
        reg.register(self._dummy(), replace=True)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="tpcw"):
            get_scenario_registry().get("definitely-not-a-scenario")

    def test_by_tag_filters(self):
        tandems = get_scenario_registry().by_tag("tandem")
        assert {s.name for s in tandems} >= {"bursty-tandem", "poisson-tandem"}
