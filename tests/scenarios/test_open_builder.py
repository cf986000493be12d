"""NetworkBuilder fluent source/sink declarations (open and mixed)."""

import numpy as np
import pytest

from repro.runtime.fingerprint import fingerprint_network
from repro.scenarios import NetworkBuilder, network_from_spec, network_to_spec
from repro.utils.errors import ValidationError


def _open_tandem():
    return (
        NetworkBuilder()
        .source("in", service={"dist": "map2", "mean": 1.0, "scv": 16.0,
                               "gamma2": 0.5})
        .queue("q1", mean=0.7)
        .queue("q2", mean=0.6)
        .sink("out")
        .link("in", "q1")
        .link("q1", "q2")
        .link("q2", "out")
        .build()
    )


class TestOpenBuilder:
    def test_builds_open_network(self):
        net = _open_tandem()
        assert net.kind == "open"
        assert np.allclose(net.entry, [1.0, 0.0])
        assert np.allclose(net.open_utilizations, [0.7, 0.6])

    def test_round_trips_through_the_spec_layer(self):
        net = _open_tandem()
        rebuilt = network_from_spec(network_to_spec(net))
        assert fingerprint_network(rebuilt) == fingerprint_network(net)

    def test_links_may_precede_pseudo_node_declarations(self):
        """Edge-chain classification happens at build(), so declaration
        order of source()/sink() vs link() never changes the model."""
        late = (
            NetworkBuilder()
            .queue("q1", mean=0.7)
            .queue("q2", mean=0.6)
            .link("in", "q1")        # source not yet declared
            .link("q1", "q2")
            .link("q2", "out")       # sink not yet declared
            .source("in", service={"dist": "map2", "mean": 1.0,
                                   "scv": 16.0, "gamma2": 0.5})
            .sink("out")
            .build()
        )
        assert fingerprint_network(late) == fingerprint_network(_open_tandem())

    def test_default_pseudo_node_names(self):
        net = (
            NetworkBuilder()
            .source(rate=1.0)
            .queue("q", mean=0.5)
            .sink()
            .link("source", "q")
            .link("q", "sink")
            .build()
        )
        assert net.kind == "open"

    def test_split_to_sink(self):
        net = (
            NetworkBuilder()
            .source(rate=1.0)
            .queue("a", mean=0.5)
            .queue("b", mean=0.5)
            .sink()
            .link("source", "a")
            .link("a", "b", 0.4).link("a", "sink", 0.6)
            .link("b", "sink")
            .build()
        )
        assert np.allclose(net.open_visits, [1.0, 0.4])

    def test_missing_sink_edge_fails_loudly(self):
        b = (
            NetworkBuilder()
            .source(rate=1.0)
            .queue("q", mean=0.5)
            .sink()
            .link("source", "q")
        )
        with pytest.raises(ValidationError, match="sink edge"):
            b.build()

    def test_source_without_sink_rejected(self):
        b = NetworkBuilder().source(rate=1.0).queue("q", mean=0.5)
        b.link("source", "q")
        with pytest.raises(ValidationError, match="sink"):
            b.build()

    def test_sink_without_source_rejected(self):
        b = NetworkBuilder(population=3).queue("q", mean=0.5).sink()
        with pytest.raises(ValidationError, match="source"):
            b.build()

    def test_sink_cannot_be_a_link_source(self):
        b = NetworkBuilder().source(rate=1.0).queue("q", mean=0.5).sink()
        with pytest.raises(ValidationError, match="cannot be a link source"):
            b.link("sink", "q")

    def test_custom_pseudo_nodes_still_reserve_the_spec_names(self):
        """The builder compiles its pseudo-nodes to the spec's reserved
        ``source``/``sink``, so an open network may not name a station
        ``sink`` even when its sink pseudo-node is called ``out``."""
        b = (
            NetworkBuilder()
            .source("in", rate=1.0)
            .queue("q", mean=0.5)
            .queue("sink", mean=0.5)
            .sink("out")
            .link("in", "q").link("q", "out").link("sink", "out")
        )
        with pytest.raises(ValidationError, match="reserved"):
            b.build()

    def test_reserved_name_is_no_alias_for_a_renamed_sink(self):
        b = (
            NetworkBuilder()
            .source("in", rate=1.0)
            .queue("q", mean=0.5)
            .sink("out")
            .link("in", "q").link("q", "sink")
        )
        with pytest.raises(ValidationError, match="reserved"):
            b.build()

    def test_closed_network_may_name_stations_source_and_sink(self):
        net = (
            NetworkBuilder(2)
            .queue("source", mean=1.0)
            .queue("sink", mean=2.0)
            .cycle("source", "sink")
            .build()
        )
        assert [st.name for st in net.stations] == ["source", "sink"]

    def test_station_name_collision_with_pseudo_node(self):
        b = NetworkBuilder().source("in", rate=1.0)
        with pytest.raises(ValidationError, match="collides"):
            b.queue("in", mean=0.5)


class TestMixedBuilder:
    def _mixed(self):
        return (
            NetworkBuilder(population=20)
            .delay("clients", mean=7.0)
            .queue("front", mean=0.018)
            .queue("db", mean=0.025)
            .source("browse", rate=2.0)
            .sink("done")
            .link("clients", "front")
            .link("front", "clients", 0.5).link("front", "db", 0.5)
            .link("db", "front")
            .link("browse", "front")
            .open_link("front", "db", 0.3).link("front", "done", 0.7)
            .link("db", "done")
            .build()
        )

    def test_builds_mixed_network(self):
        net = self._mixed()
        assert net.kind == "mixed"
        assert net.population == 20
        assert np.allclose(net.arrival_rates, [0.0, 2.0, 0.6])

    def test_closed_and_open_chains_route_separately(self):
        net = self._mixed()
        # closed chain: db returns to front with probability 1
        assert net.routing[2, 1] == pytest.approx(1.0)
        # open chain: db exits (row sums to 0 internally)
        assert np.asarray(net.open_routing)[2].sum() == pytest.approx(0.0)

    def test_round_trips_through_the_spec_layer(self):
        net = self._mixed()
        rebuilt = network_from_spec(network_to_spec(net))
        assert fingerprint_network(rebuilt) == fingerprint_network(net)
