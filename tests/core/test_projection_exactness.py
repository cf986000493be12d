"""The exactness oracle: projected exact solutions satisfy every LP constraint.

This machine-checks the re-derived marginal balance families (DESIGN.md §2)
against ground truth.  A failure here means a constraint family is *wrong*
(would produce invalid bounds), and the report's row label says which one.
"""

import numpy as np
import pytest

from repro.core import build_constraints, project_exact_solution, verify_exactness
from repro.network import solve_exact

from tests.core.conftest import random_network

TOL = 1e-9


class TestExactnessOnFixtures:
    def test_fig5_network(self, fig5_small):
        report = verify_exactness(solve_exact(fig5_small))
        assert report["max_equality_residual"] < TOL, report
        assert report["max_inequality_violation"] < TOL, report

    def test_tandem_map(self, tandem_map):
        report = verify_exactness(solve_exact(tandem_map))
        assert report["max_equality_residual"] < TOL, report
        assert report["max_inequality_violation"] < TOL, report

    def test_delay_network(self, delay_network):
        report = verify_exactness(solve_exact(delay_network))
        assert report["max_equality_residual"] < TOL, report
        assert report["max_inequality_violation"] < TOL, report


class TestExactnessRandomized:
    """Randomized sweep: random MAP(2)/exponential stations, random routing."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_network(self, seed):
        net = random_network(seed, population=4)
        report = verify_exactness(solve_exact(net))
        assert report["max_equality_residual"] < TOL, (seed, report)
        assert report["max_inequality_violation"] < TOL, (seed, report)

    @pytest.mark.parametrize("population", [1, 2, 3, 7])
    def test_population_boundaries(self, population):
        net = random_network(99, population=population)
        report = verify_exactness(solve_exact(net))
        assert report["max_equality_residual"] < TOL, report

    def test_self_loop_routing(self):
        """Self-routing (p_kk > 0) exercises the q_kk terms of family A."""
        import numpy as np

        from repro.maps import exponential, fit_map2
        from repro.network import Network, queue

        routing = np.array([[0.5, 0.5], [0.4, 0.6]])
        net = Network(
            [queue("a", fit_map2(1.0, 4.0, 0.3)), queue("b", exponential(2.0))],
            routing,
            5,
        )
        report = verify_exactness(solve_exact(net))
        assert report["max_equality_residual"] < TOL, report


class TestProjectionStructure:
    def test_projection_is_probability_like(self, fig5_small):
        sol = solve_exact(fig5_small)
        system = build_constraints(fig5_small)
        x = project_exact_solution(sol, system.vi)
        assert np.all(x >= -1e-12)
        assert np.all(x <= system.ub + 1e-12)

    def test_projection_recovers_metrics(self, fig5_small):
        from repro.core.objectives import (
            queue_length_metric,
            throughput_metric,
            utilization_metric,
        )
        from repro.core import VariableIndex

        sol = solve_exact(fig5_small)
        vi = VariableIndex(fig5_small)
        x = project_exact_solution(sol, vi)
        for k in range(fig5_small.n_stations):
            assert throughput_metric(fig5_small, vi, k).evaluate(x) == pytest.approx(
                sol.throughput(k), rel=1e-10
            )
            assert utilization_metric(fig5_small, vi, k).evaluate(x) == pytest.approx(
                sol.utilization(k), rel=1e-10
            )
            assert queue_length_metric(fig5_small, vi, k).evaluate(x) == pytest.approx(
                sol.mean_queue_length(k), rel=1e-10
            )

    def test_redundant_families_also_exact(self, tandem_map):
        sol = solve_exact(tandem_map)
        report = verify_exactness(sol, include_redundant=True)
        assert report["max_equality_residual"] < TOL, report
