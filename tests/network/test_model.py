"""Tests for stations, routing, and the Network model."""

import numpy as np
import pytest

from repro.maps import exponential, mmpp2
from repro.network import (
    Network,
    delay,
    multiserver,
    queue,
    routing_graph,
    validate_routing,
    visit_ratios,
)
from repro.utils.errors import NotSupportedError, ValidationError


class TestStation:
    def test_queue_rate_scale(self):
        st = queue("q", exponential(1.0))
        assert st.rate_scale(0) == 0.0
        assert st.rate_scale(1) == 1.0
        assert st.rate_scale(7) == 1.0

    def test_delay_rate_scale(self):
        st = delay("d", exponential(1.0))
        assert st.rate_scale(0) == 0.0
        assert st.rate_scale(5) == 5.0

    def test_multiserver_rate_scale(self):
        st = multiserver("m", exponential(1.0), servers=3)
        assert st.rate_scale(2) == 2.0
        assert st.rate_scale(5) == 3.0

    def test_rate_scale_vectorized(self):
        st = multiserver("m", exponential(1.0), servers=2)
        assert np.array_equal(st.rate_scale(np.array([0, 1, 2, 5])), [0, 1, 2, 2])

    def test_delay_rejects_map_service(self):
        with pytest.raises(NotSupportedError):
            delay("d", mmpp2(0.1, 0.1, 1.0, 2.0))

    def test_multiserver_rejects_map_service(self):
        with pytest.raises(NotSupportedError):
            multiserver("m", mmpp2(0.1, 0.1, 1.0, 2.0), servers=2)

    def test_queue_allows_map_service(self):
        st = queue("q", mmpp2(0.1, 0.1, 1.0, 2.0))
        assert st.phases == 2

    def test_unknown_kind_rejected(self):
        from repro.network.stations import Station

        with pytest.raises(ValidationError):
            Station(name="x", service=exponential(1.0), kind="warp")


class TestRouting:
    def test_validates_stochastic(self):
        P = validate_routing(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        assert P.shape == (2, 2)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError):
            validate_routing(np.array([[0.5, 0.4], [1.0, 0.0]]), 2)

    def test_rejects_disconnected(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            validate_routing(P, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            validate_routing(np.eye(3), 2)

    def test_graph_edges(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        adj = routing_graph(P)
        assert set(zip(*np.nonzero(adj))) == {(0, 1), (1, 0)}

    def test_visit_ratios_tandem(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert visit_ratios(P) == pytest.approx([1.0, 1.0])

    def test_visit_ratios_fig5(self):
        P = np.array([[0.2, 0.7, 0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        v = visit_ratios(P)
        assert v == pytest.approx([1.0, 0.7, 0.1])

    def test_visit_ratios_fixed_point(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(4), size=4)
        v = visit_ratios(P)
        assert np.allclose(v @ P, v)
        assert v[0] == pytest.approx(1.0)


class TestClosedNetwork:
    @pytest.fixture()
    def net(self):
        P = np.array([[0.2, 0.7, 0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        return Network(
            [
                queue("q1", exponential(2.0)),
                queue("q2", exponential(3.0)),
                queue("q3", mmpp2(0.5, 0.5, 3.0, 0.3)),
            ],
            P,
            5,
        )

    def test_basic_properties(self, net):
        assert net.n_stations == 3
        assert net.population == 5
        assert net.phase_orders == (1, 1, 2)

    def test_service_demands(self, net):
        v = net.visit_ratios
        means = [s.mean_service_time for s in net.stations]
        assert net.service_demands == pytest.approx(v * np.array(means))

    def test_bottleneck(self, net):
        assert net.bottleneck == int(np.argmax(net.service_demands))

    def test_is_product_form(self, net):
        assert not net.is_product_form
        exp_net = net.with_station(2, queue("q3", exponential(1.0)))
        assert exp_net.is_product_form

    def test_station_index(self, net):
        assert net.station_index("q2") == 1
        with pytest.raises(KeyError):
            net.station_index("nope")

    def test_with_population(self, net):
        net2 = net.with_population(9)
        assert net2.population == 9
        assert net.population == 5  # original untouched

    def test_rejects_duplicate_names(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            Network(
                [queue("a", exponential(1.0)), queue("a", exponential(2.0))], P, 2
            )

    def test_rejects_zero_population(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            Network(
                [queue("a", exponential(1.0)), queue("b", exponential(2.0))], P, 0
            )

    def test_routing_is_readonly(self, net):
        with pytest.raises(ValueError):
            net.routing[0, 0] = 0.5
