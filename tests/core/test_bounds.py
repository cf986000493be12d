"""Bound validity and tightness tests for the marginal-balance LP."""

import numpy as np
import pytest

from repro.core import (
    Interval,
    bound_metric,
    build_constraints,
    queue_length_moment_metric,
    response_time_bounds,
    solve_bounds,
    utilization_metric,
    VariableIndex,
)
from repro.core.lpbackend import make_lp_engine
from repro.network import solve_exact
from repro.utils.errors import NotSupportedError

from tests.core.conftest import random_network


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.midpoint == 2.0

    def test_contains(self):
        iv = Interval(0.5, 0.7)
        assert iv.contains(0.6)
        assert not iv.contains(0.8)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_relative_width(self):
        assert Interval(0.9, 1.1).relative_width() == pytest.approx(0.2)


class TestBracketing:
    """LP bounds must always contain the exact value (validity)."""

    def test_fig5_all_metrics(self, fig5_small):
        sol = solve_exact(fig5_small)
        res = solve_bounds(fig5_small)
        for k in range(fig5_small.n_stations):
            assert res.utilization[k].contains(sol.utilization(k))
            assert res.throughput[k].contains(sol.throughput(k))
            assert res.queue_length[k].contains(sol.mean_queue_length(k))
        assert res.response_time.contains(sol.response_time(0))

    def test_tandem(self, tandem_map):
        sol = solve_exact(tandem_map)
        res = solve_bounds(tandem_map)
        for k in range(2):
            assert res.utilization[k].contains(sol.utilization(k))
        assert res.system_throughput.contains(sol.system_throughput(0))

    def test_delay_network(self, delay_network):
        sol = solve_exact(delay_network)
        res = solve_bounds(delay_network)
        for k in range(3):
            assert res.utilization[k].contains(sol.utilization(k))
            assert res.throughput[k].contains(sol.throughput(k))
        assert res.response_time.contains(sol.response_time(0))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks(self, seed):
        net = random_network(seed + 1000, population=4)
        sol = solve_exact(net)
        res = solve_bounds(net)
        for k in range(net.n_stations):
            assert res.utilization[k].contains(sol.utilization(k)), (
                seed,
                k,
                sol.utilization(k),
                res.utilization[k],
            )
            assert res.throughput[k].contains(sol.throughput(k))
            assert res.queue_length[k].contains(sol.mean_queue_length(k))

    def test_higher_moment_bracketing(self, fig5_small):
        sol = solve_exact(fig5_small)
        vi = VariableIndex(fig5_small)
        for order in (1, 2, 3):
            m = queue_length_moment_metric(fig5_small, vi, 2, order)
            iv = bound_metric(fig5_small, m)
            assert iv.contains(sol.queue_length_moment(2, order))


class TestTightness:
    """The paper reports ~2% mean accuracy; assert sane tightness levels."""

    def test_response_time_tightness_fig5(self, fig5_small):
        sol = solve_exact(fig5_small)
        iv = response_time_bounds(fig5_small)
        exact = sol.response_time(0)
        rel_err = max(
            abs(iv.lower - exact) / exact, abs(iv.upper - exact) / exact
        )
        assert rel_err < 0.10, f"bounds unexpectedly loose: {iv} vs exact {exact}"

    def test_product_form_bounds_are_tight(self):
        """On an exponential (product-form) network the marginal system
        pins the solution nearly exactly."""
        from repro.maps import exponential
        from repro.network import Network, queue

        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [queue("a", exponential(1.0)), queue("b", exponential(2.0))],
            routing,
            6,
        )
        sol = solve_exact(net)
        res = solve_bounds(net)
        for k in range(2):
            assert res.utilization[k].width < 5e-4
            assert res.utilization[k].contains(sol.utilization(k))

    def test_bounds_stay_tight_across_populations(self, fig5_small):
        """Figure 8 behavior: bounds hug the exact curve at every N and
        converge to the exact asymptote."""
        for N in (2, 6, 12):
            net = fig5_small.with_population(N)
            sol = solve_exact(net)
            res = solve_bounds(net)
            iv = res.utilization[0]
            assert iv.contains(sol.utilization(0))
            assert iv.width / sol.utilization(0) < 0.02


class TestRejections:
    def test_multiserver_not_supported(self):
        from repro.maps import exponential
        from repro.network import Network, multiserver, queue

        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        net = Network(
            [
                queue("a", exponential(1.0)),
                multiserver("b", exponential(1.0), servers=3),
            ],
            routing,
            4,
        )
        with pytest.raises(NotSupportedError):
            build_constraints(net)

    def test_bad_sense_rejected(self, fig5_small):
        system = build_constraints(fig5_small)
        c = utilization_metric(fig5_small, system.vi, 0).dense(system.n_variables)
        for backend in ("auto", "scipy"):
            with pytest.raises(ValueError):
                make_lp_engine(system, backend=backend).solve(c, "sideways")

    def test_no_bound_takes_another_models_system(self, fig5_small):
        """A bound is taken over the polytope of the network it names: a
        prebuilt constraint system (here another population's) is no
        argument of ``bound_metric`` or ``response_time_bounds``."""
        other = build_constraints(fig5_small.with_population(fig5_small.population + 2))
        metric = utilization_metric(fig5_small, VariableIndex(fig5_small), 0)
        with pytest.raises(TypeError):
            bound_metric(fig5_small, metric, other)
        with pytest.raises(TypeError):
            response_time_bounds(fig5_small, system=other)
        with pytest.raises(TypeError):  # nor positionally, as the tier
            response_time_bounds(fig5_small, 0, other)


class TestVariableIndex:
    def test_size_formula(self, fig5_small):
        vi = VariableIndex(fig5_small)
        N = fig5_small.population
        K = fig5_small.phase_orders
        expected = sum((N + 1) * k for k in K)
        for j in range(3):
            for k in range(3):
                if j != k:
                    expected += 3 * K[j] * (N + 1) * K[k]  # V, W, G blocks
        for i in range(3):  # S, T triple blocks
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) == 3:
                        expected += 2 * K[i] * K[j] * (N + 1) * K[k]
        assert vi.size == expected

    def test_triples_disabled_variant(self, fig5_small):
        vi = VariableIndex(fig5_small, triples=False)
        assert not vi.triples
        with pytest.raises(KeyError):
            vi.block("S", 0, 1, 2)

    def test_triples_never_for_two_stations(self):
        from repro.maps import exponential
        from repro.network import Network, queue

        net = Network(
            [queue("a", exponential(1.0)), queue("b", exponential(2.0))],
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            3,
        )
        assert not VariableIndex(net, triples=True).triples

    def test_indices_disjoint_and_covering(self, fig5_small):
        vi = VariableIndex(fig5_small)
        seen = np.zeros(vi.size, dtype=bool)
        for key, off, shape in vi.blocks():
            size = int(np.prod(shape))
            assert not seen[off : off + size].any()
            seen[off : off + size] = True
        assert seen.all()

    def test_describe_round_trip(self, fig5_small):
        vi = VariableIndex(fig5_small)
        assert vi.describe(int(vi.pi(1, 3, 0))) == "pi[1](3,0)"
        assert vi.describe(int(vi.V(0, 2, 0, 1, 1))) == "V[0,2](0,1,1)"

    def test_structural_zero_bounds(self, fig5_small):
        vi = VariableIndex(fig5_small)
        _, hi = vi.default_bounds()
        N = fig5_small.population
        assert hi[int(vi.V(0, 2, 0, N, 0))] == 0.0
        assert hi[int(vi.G(0, 2, 0, N, 0))] == 0.0
        assert hi[int(vi.G(0, 2, 0, 0, 0))] == float(N)
