"""BatchLPSolver: one assembly, many bounds; metric-spec expansion."""

import numpy as np
import pytest

from repro.core import solve_bounds
from repro.core.lpbackend import highs_available
from repro.maps import exponential, fit_map2
from repro.network import ClosedNetwork, queue
from repro.runtime.batch import BatchLPSolver, expand_metric_specs


@pytest.fixture(scope="module")
def net():
    return ClosedNetwork(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        4,
    )


class TestSpecExpansion:
    def test_standard_expands_all(self):
        specs = expand_metric_specs("standard", 2)
        assert "utilization[0]" in specs and "queue_length[1]" in specs
        assert "system_throughput" in specs and "response_time" in specs
        assert len(specs) == 8

    def test_bare_station_metric_expands_per_station(self):
        assert expand_metric_specs(("utilization",), 3) == [
            "utilization[0]", "utilization[1]", "utilization[2]",
        ]

    def test_response_time_pulls_in_system_throughput(self):
        specs = expand_metric_specs(("response_time",), 2)
        assert specs == ["response_time", "system_throughput"]

    def test_duplicates_collapse(self):
        specs = expand_metric_specs(("utilization[1]", "utilization[1]"), 2)
        assert specs == ["utilization[1]"]

    def test_rejects_unknown_and_out_of_range(self):
        with pytest.raises(ValueError):
            expand_metric_specs(("entropy",), 2)
        with pytest.raises(ValueError):
            expand_metric_specs(("utilization[9]",), 2)


class TestBatchBounds:
    def test_standard_bounds_match_unbatched(self, net):
        batched = BatchLPSolver(net).standard_bounds()
        direct = solve_bounds(net)
        for k in range(net.n_stations):
            for field in ("utilization", "throughput", "queue_length"):
                b = getattr(batched, field)[k]
                d = getattr(direct, field)[k]
                assert b.lower == pytest.approx(d.lower, abs=1e-7)
                assert b.upper == pytest.approx(d.upper, abs=1e-7)
        assert batched.response_time.lower == pytest.approx(
            direct.response_time.lower, abs=1e-7
        )

    def test_single_assembly_shared_across_solves(self, net):
        solver = BatchLPSolver(net)
        solver.bound_specs("standard")
        # 3 station metrics * 2 stations + system throughput = 7 pairs
        assert solver.n_solves == 14
        assert solver.build_time_s > 0
        assert solver.solve_time_s > 0

    def test_subset_solves_fewer_lps(self, net):
        solver = BatchLPSolver(net)
        out = solver.bound_specs(("response_time",))
        assert solver.n_solves == 2  # one min/max pair for X only
        assert set(out) == {"system_throughput", "response_time"}
        N = net.population
        assert out["response_time"].lower == pytest.approx(
            N / out["system_throughput"].upper
        )

    def test_triples_flag_tightens(self, net):
        wide = BatchLPSolver(net, triples=False).bound_specs(("system_throughput",))
        # two-station networks have no triples; flag must still be accepted
        tight = BatchLPSolver(net, triples=None).bound_specs(("system_throughput",))
        assert wide["system_throughput"].lower <= tight["system_throughput"].lower + 1e-9


@pytest.mark.skipif(not highs_available(), reason="no HiGHS binding")
class TestPersistentBackend:
    def test_backends_agree_on_standard_bounds(self, net):
        highs = BatchLPSolver(net, backend="highs")
        scipy_ = BatchLPSolver(net, backend="scipy")
        assert highs.backend == "highs" and scipy_.backend == "scipy"
        a, b = highs.standard_bounds(), scipy_.standard_bounds()
        for k in range(net.n_stations):
            for field in ("utilization", "throughput", "queue_length"):
                ha, hb = getattr(a, field)[k], getattr(b, field)[k]
                assert ha.lower == pytest.approx(hb.lower, abs=1e-9)
                assert ha.upper == pytest.approx(hb.upper, abs=1e-9)

    def test_pair_reuse_counted(self, net):
        solver = BatchLPSolver(net, backend="highs")
        solver.bound_specs(("system_throughput", "utilization[0]"))
        assert solver.n_solves == 4
        # each metric's max solve rides the basis its min solve left
        assert solver.n_basis_reuse == 2
        assert solver.n_warm_starts == 0  # constant: payload compatibility
        assert solver.n_iterations > 0
