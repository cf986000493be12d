"""Tests for the classical baselines: MVA, ABA, BJB, decomposition."""

import numpy as np
import pytest

from repro.baselines import aba_bounds, bjb_bounds, decomposition, mva
from repro.maps import MAP, erlang, exponential, fit_map2, mmpp2
from repro.network import Network, delay, multiserver, queue, solve_exact
from repro.utils.errors import NotSupportedError, SolverError, ValidationError


def exp_network(N: int = 6) -> Network:
    P = np.array([[0.2, 0.7, 0.1], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return Network(
        [
            queue("q1", exponential(2.0)),
            queue("q2", exponential(3.0)),
            queue("q3", exponential(1.0)),
        ],
        P,
        N,
    )


class TestMVA:
    def test_agrees_with_exact_ctmc(self):
        net = exp_network(6)
        res = mva(net)
        sol = solve_exact(net)
        assert res.system_throughput == pytest.approx(sol.system_throughput(0), rel=1e-10)
        for k in range(3):
            assert res.queue_length[k] == pytest.approx(sol.mean_queue_length(k), rel=1e-9)
            assert res.utilization[k] == pytest.approx(sol.utilization(k), rel=1e-9)

    def test_delay_station(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("think", exponential(0.5)), queue("cpu", exponential(2.0))], P, 5
        )
        res = mva(net)
        sol = solve_exact(net)
        assert res.system_throughput == pytest.approx(sol.system_throughput(0), rel=1e-10)
        assert res.queue_length[1] == pytest.approx(sol.mean_queue_length(1), rel=1e-9)

    def test_population_conservation(self):
        res = mva(exp_network(9))
        assert res.queue_length.sum() == pytest.approx(9.0)

    def test_little_law(self):
        net = exp_network(4)
        res = mva(net)
        assert res.response_time * res.system_throughput == pytest.approx(4.0)

    def test_rejects_map_service(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", mmpp2(0.1, 0.1, 1.0, 2.0)), queue("b", exponential(1.0))], P, 3
        )
        with pytest.raises(ValidationError):
            mva(net)

    def test_single_job(self):
        net = exp_network(1)
        res = mva(net)
        # One job never queues: X = 1 / sum of demands.
        assert res.system_throughput == pytest.approx(1.0 / net.service_demands.sum())


class TestABA:
    def test_brackets_exact_product_form(self):
        for N in (1, 3, 8, 20):
            net = exp_network(N)
            b = aba_bounds(net)
            X = mva(net).system_throughput
            assert b.throughput_lower <= X * (1 + 1e-9)
            assert X <= b.throughput_upper * (1 + 1e-9)

    def test_brackets_exact_map_network(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", fit_map2(1.0, 9.0, 0.5)), queue("b", exponential(1.5))], P, 8
        )
        sol = solve_exact(net)
        b = aba_bounds(net)
        X = sol.system_throughput(0)
        assert b.throughput_lower <= X <= b.throughput_upper

    def test_asymptote_is_bottleneck(self):
        net = exp_network(500)
        b = aba_bounds(net)
        assert b.throughput_upper == pytest.approx(1.0 / net.service_demands.max())

    def test_response_bounds_consistent(self):
        b = aba_bounds(exp_network(10))
        assert b.response_lower <= b.response_upper

    def test_think_time_enters_z(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("think", exponential(0.5)), queue("cpu", exponential(2.0))], P, 5
        )
        b = aba_bounds(net)
        assert b.think_time == pytest.approx(2.0)
        assert b.demand_total == pytest.approx(0.5)


class TestBJB:
    def test_tighter_than_aba(self):
        for N in (2, 5, 15):
            net = exp_network(N)
            a = aba_bounds(net)
            b = bjb_bounds(net)
            assert b.throughput_lower >= a.throughput_lower - 1e-12
            assert b.throughput_upper <= a.throughput_upper + 1e-12

    def test_brackets_exact(self):
        for N in (1, 4, 12):
            net = exp_network(N)
            X = mva(net).system_throughput
            b = bjb_bounds(net)
            assert b.throughput_lower - 1e-9 <= X <= b.throughput_upper + 1e-9

    def test_exact_for_balanced_network(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", exponential(1.0)), queue("b", exponential(1.0))], P, 7
        )
        X = mva(net).system_throughput
        b = bjb_bounds(net)
        assert b.throughput_lower == pytest.approx(X, rel=1e-9)
        assert b.throughput_upper == pytest.approx(X, rel=1e-9)

    def test_rejects_delay(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [delay("think", exponential(0.5)), queue("cpu", exponential(2.0))], P, 3
        )
        with pytest.raises(NotSupportedError):
            bjb_bounds(net)


class TestDecomposition:
    def test_exact_for_exponential_network(self):
        net = exp_network(5)
        d = decomposition(net)
        res = mva(net)
        assert d.system_throughput == pytest.approx(res.system_throughput, rel=1e-10)
        assert np.allclose(d.queue_length, res.queue_length, rtol=1e-10)

    def test_accurate_for_slow_modulation_at_bottleneck(self):
        """Near-decomposable regime: very slow phase switching *and* a
        nearly-always-busy MAP queue.

        (If the MAP queue idles often, the paper's frozen-phase-when-idle
        convention biases the station's phase occupancancy away from the
        free-running MAP stationary law and decomposition is off even for
        slow modulation — see test_inaccurate_for_fast_modulation_at_load.)
        """
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        slow = mmpp2(r1=1e-5, r2=1e-5, lam1=0.6, lam2=0.3)
        net = Network(
            [queue("a", slow), queue("b", exponential(5.0))], P, 8
        )
        sol = solve_exact(net)
        d = decomposition(net)
        assert d.system_throughput == pytest.approx(sol.system_throughput(0), rel=0.02)

    def test_inaccurate_for_bursty_service_at_load(self):
        """The Figure 4 phenomenon: decomposition misses the autocorrelated
        model badly once the population grows — it saturates at a wrong
        utilization asymptote and its throughput error keeps growing."""
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        bursty = fit_map2(1.0, 16.0, 0.5)
        x_errors = []
        for N in (2, 25):
            net = Network(
                [queue("a", bursty), queue("b", exponential(1.05))], P, N
            )
            sol = solve_exact(net)
            d = decomposition(net)
            x_errors.append(
                abs(d.system_throughput - sol.system_throughput(0))
                / sol.system_throughput(0)
            )
        assert x_errors[1] > x_errors[0]
        assert x_errors[1] > 0.10  # "unacceptable inaccuracies" (paper, Fig. 4)

    def test_population_conservation(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", mmpp2(0.2, 0.1, 2.0, 0.4)), queue("b", exponential(1.0))],
            P,
            6,
        )
        d = decomposition(net)
        assert d.queue_length.sum() == pytest.approx(6.0, rel=1e-9)


#: Erlang-2 with its phases swapped: phase 1 completes nothing, phase 0 does.
_SILENT_PHASE_1 = MAP([[-1.0, 0.0], [1.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]])
_RING2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_RING3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


class TestDecompositionErrors:
    """Failure modes keep their type and name the same (station, phase)."""

    def test_erlang_phase_without_completions(self):
        net = Network(
            [queue("erl", erlang(2, 1.0)), queue("b", exponential(1.0))], _RING2, 3
        )
        with pytest.raises(SolverError, match=r"station 'erl' .* in phase 0;"):
            decomposition(net)

    def test_first_configuration_then_first_station_is_named(self):
        # Configurations run in itertools.product order: (x0, y0) comes
        # first, and there only y is silent.  x's silent phase 1 must not
        # be reported although x has the lower station index.
        net = Network(
            [
                queue("x", _SILENT_PHASE_1),
                queue("y", erlang(2, 1.0)),
                queue("z", exponential(2.0)),
            ],
            _RING3,
            3,
        )
        with pytest.raises(SolverError, match=r"station 'y' .* in phase 0;"):
            decomposition(net)

    def test_multiserver_not_supported(self):
        net = Network(
            [multiserver("m", exponential(1.0), 2), queue("b", exponential(1.0))],
            _RING2,
            3,
        )
        with pytest.raises(NotSupportedError):
            decomposition(net)

    def test_multiserver_reported_before_a_later_silent_phase(self):
        # The first configuration is well defined, so the multiserver
        # station is what stops the solve; x's silent phase 1 comes later.
        net = Network(
            [queue("x", _SILENT_PHASE_1), multiserver("m", exponential(1.0), 2)],
            _RING2,
            3,
        )
        with pytest.raises(NotSupportedError):
            decomposition(net)

    def test_silent_phase_reported_before_multiserver(self):
        net = Network(
            [queue("erl", erlang(2, 1.0)), multiserver("m", exponential(1.0), 2)],
            _RING2,
            3,
        )
        with pytest.raises(SolverError, match=r"station 'erl' .* in phase 0;"):
            decomposition(net)
