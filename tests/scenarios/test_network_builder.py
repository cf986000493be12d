"""Tests for the fluent NetworkBuilder DSL."""

import numpy as np
import pytest

from repro.maps.builders import exponential
from repro.scenarios import NetworkBuilder
from repro.utils.errors import ValidationError


class TestStations:
    def test_mean_shorthand_builds_exponential(self):
        net = (
            NetworkBuilder(5)
            .queue("a", mean=0.5)
            .queue("b", rate=4.0)
            .cycle("a", "b")
            .build()
        )
        assert net.stations[0].phases == 1
        assert net.stations[0].mean_service_time == pytest.approx(0.5)
        assert net.stations[1].mean_service_time == pytest.approx(0.25)

    def test_map_instance_and_spec_dict(self):
        m = exponential(2.0)
        net = (
            NetworkBuilder(3)
            .queue("a", service=m)
            .queue("b", service={"dist": "map2", "mean": 1.0, "scv": 9.0,
                                 "gamma2": 0.4})
            .cycle("a", "b")
            .build()
        )
        assert net.stations[0].service is m
        assert net.stations[1].phases == 2
        assert net.stations[1].service.scv == pytest.approx(9.0, rel=1e-6)

    def test_delay_and_multiserver_kinds(self):
        net = (
            NetworkBuilder(4)
            .delay("think", mean=5.0)
            .multiserver("pool", servers=3, mean=1.0)
            .cycle("think", "pool")
            .build()
        )
        assert net.stations[0].kind == "delay"
        assert net.stations[1].kind == "multiserver"
        assert net.stations[1].servers == 3

    def test_exactly_one_service_source_required(self):
        with pytest.raises(ValidationError):
            NetworkBuilder(2).queue("a", mean=1.0, rate=1.0)
        with pytest.raises(ValidationError):
            NetworkBuilder(2).queue("a")

    @pytest.mark.parametrize("shorthand", [{"mean": 0.0}, {"mean": -1.0}, {"rate": 0.0}])
    def test_non_positive_shorthand_rejected(self, shorthand):
        with pytest.raises(ValidationError, match="must be positive"):
            NetworkBuilder(2).queue("a", **shorthand)

    def test_duplicate_names_rejected(self):
        b = NetworkBuilder(2).queue("a", mean=1.0)
        with pytest.raises(ValidationError):
            b.queue("a", mean=2.0)


class TestRouting:
    def test_link_probabilities_compile_to_matrix(self):
        net = (
            NetworkBuilder(6)
            .queue("a", mean=1.0)
            .queue("b", mean=1.0)
            .queue("c", mean=1.0)
            .link("a", "b", 0.3).link("a", "c", 0.7)
            .link("b", "a").link("c", "a")
            .build()
        )
        assert np.allclose(net.routing[0], [0.0, 0.3, 0.7])

    def test_link_accumulates_repeated_edges(self):
        net = (
            NetworkBuilder(2)
            .queue("a", mean=1.0).queue("b", mean=1.0)
            .link("a", "b", 0.5).link("a", "b", 0.5)
            .link("b", "a")
            .build()
        )
        assert net.routing[0, 1] == pytest.approx(1.0)

    def test_undeclared_station_in_link_rejected(self):
        b = NetworkBuilder(2).queue("a", mean=1.0).link("a", "ghost")
        with pytest.raises(ValidationError, match="ghost"):
            b.build()

    def test_non_stochastic_rows_rejected_at_build(self):
        b = (
            NetworkBuilder(2)
            .queue("a", mean=1.0).queue("b", mean=1.0)
            .link("a", "b", 0.5)  # row sums to 0.5
            .link("b", "a")
        )
        with pytest.raises(ValidationError):
            b.build()


class TestAssembly:
    def test_population_override_at_build(self):
        b = NetworkBuilder().queue("a", mean=1.0).queue("b", mean=1.0)
        b.cycle("a", "b")
        assert b.build(population=7).population == 7
        assert b.with_population(3).build().population == 3

    def test_missing_population_rejected(self):
        b = NetworkBuilder().queue("a", mean=1.0).queue("b", mean=1.0).cycle("a", "b")
        with pytest.raises(ValidationError, match="population"):
            b.build()

    def test_station_names_in_order(self):
        b = NetworkBuilder(1).queue("z", mean=1.0).queue("a", mean=1.0)
        assert b.station_names == ("z", "a")
