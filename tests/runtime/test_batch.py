"""BatchLPSolver: one assembly, many bounds; metric-spec expansion."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import repro.obs as obs
from repro.core import solve_bounds
from repro.core.lpbackend import highs_available
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import batch
from repro.runtime.batch import BatchLPSolver, expand_metric_specs
from repro.scenarios import get_scenario
from repro.utils.errors import SolverError


@pytest.fixture(scope="module")
def net():
    return Network(
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
        out = solver.bound_specs("standard")
        # U and Q of 2 stations = 4 pairs; every throughput follows from
        # its station's utilization, and system throughput is throughput[0]
        assert solver.n_solves == 8
        assert out["system_throughput"] == out["throughput[0]"]
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

    def test_bound_and_optimize_match_bound_specs(self, net):
        solver = BatchLPSolver(net)
        want = solver.bound_specs(("utilization[0]",))["utilization[0]"]
        metric, _ = solver._dense_for("utilization[0]")
        assert solver.bound(metric) == want  # the same pair function
        assert (solver.n_solves, solver.n_basis_reuse) == (4, 2 * (solver.backend == "highs"))

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
        solver.bound_specs(("system_throughput", "utilization[1]"))
        assert solver.n_solves == 4
        # each min starts from the anchor, each max from its min's optimum
        assert solver.n_warm_starts == 2
        assert solver.n_basis_reuse == 2
        assert solver.n_iterations > 0

    def test_ipm_and_stateless_solve_cold(self, net):
        for opts in ({"backend": "highs", "method": "highs-ipm"}, {"backend": "scipy"}):
            solver = BatchLPSolver(net, **opts)
            solver.bound_specs(("throughput[0]",))
            assert (solver.n_warm_starts, solver.n_basis_reuse) == (0, 0), opts


#: (scenario, population) of the anchor-invariance checks: simplex models
ANCHORED = (("fig5-case-study", 6), ("tpcw", 4))


@pytest.mark.skipif(not highs_available(), reason="no HiGHS binding")
@pytest.mark.parametrize("name, population", ANCHORED)
def test_bound_depends_only_on_model_metric_and_sense(name, population, monkeypatch):
    """Every start is explicit, so each bound is bit-equal solved alone, in
    the standard set, in reverse order on a solver reused from an earlier
    request, and on one and on four pair threads."""
    network = get_scenario(name).network(population=population)

    def hexed(bounds):
        return {spec: (iv.lower.hex(), iv.upper.hex()) for spec, iv in bounds.items()}

    runs = []
    for cores in (1, 4):
        monkeypatch.setattr(batch, "_usable_cores", lambda: cores)
        solver = BatchLPSolver(network)
        assert solver.method == "highs"
        runs.append(hexed(solver.bound_specs("standard")))
    standard = runs[0]
    assert runs[1] == standard

    specs = [spec for spec in standard if spec != "response_time"]
    alone = {}
    for spec in specs:
        alone.update(hexed(BatchLPSolver(network).bound_specs((spec,))))
    assert alone == {spec: standard[spec] for spec in specs}

    reused = BatchLPSolver(network)
    reused.bound_specs(("queue_length[0]", "utilization[1]"))
    assert hexed(reused.bound_specs(list(reversed(specs)))) == alone


@pytest.fixture
def workers_first(monkeypatch):
    """Four usable cores; the calling thread's first pair waits until a
    worker thread has finished one.  Returns metric name -> the error its
    pair raised, in the order the pairs failed."""
    monkeypatch.setattr(batch, "_usable_cores", lambda: 4)
    caller = threading.current_thread()
    worker_done = threading.Event()
    failed: dict = {}
    real = batch._solve_pair

    def solve_pair(engine, metric, c, anchor):
        if threading.current_thread() is caller:
            assert worker_done.wait(10)
            return real(engine, metric, c, anchor)
        try:
            return real(engine, metric, c, anchor)
        except SolverError as exc:
            failed[metric.name] = exc
            raise
        finally:
            worker_done.set()

    monkeypatch.setattr(batch, "_solve_pair", solve_pair)
    return failed


class TestPairPool:
    def test_worker_spans_nest_and_counters_stay_exact(self, net, workers_first):
        tele = obs.Telemetry()
        with obs.use(tele), tele.span("caller"):
            solver = BatchLPSolver(net)
            solver.bound_specs("standard")
        (root,) = tele.roots
        names = [c.name for c in root.children]
        assert names.count("lp.solve") == solver.n_solves == 8
        assert names.count("lp.anchor") == int(solver.backend == "highs")
        counters = tele.snapshot().counters
        assert counters["lp.solves"] == solver.n_solves
        assert counters["lp.iterations"] == solver.n_iterations  # anchor's too
        assert counters.get("lp.warm_starts", 0) == solver.n_warm_starts
        assert counters.get("lp.basis_reuse", 0) == solver.n_basis_reuse

    def test_sweep_workers_split_the_usable_cores(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            batch.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        monkeypatch.setattr(batch, "_CGROUP_ROOT", tmp_path)  # no quota
        monkeypatch.setattr(batch, "_core_sharers", 1)
        assert batch._usable_cores() == 8
        batch._share_cores(3)
        assert batch._usable_cores() == 2
        batch._share_cores(16)  # more workers than cores: one thread each
        assert batch._usable_cores() == 1

    def test_bounds_and_counts_equal_on_one_and_four_threads(self, net, monkeypatch):
        runs = []
        for cores in (1, 4):
            monkeypatch.setattr(batch, "_usable_cores", lambda: cores)
            solver = BatchLPSolver(net)
            bounds = solver.bound_specs("standard")
            runs.append((
                bounds, solver.n_solves, solver.n_iterations,
                solver.n_basis_reuse, solver.n_fallbacks,
            ))
        assert runs[0] == runs[1]

    def test_failing_pair_raises_after_every_thread_joined(
        self, net, workers_first, monkeypatch, tmp_path
    ):
        caller = threading.current_thread()
        real = scipy.optimize.linprog

        def linprog(*args, **kwargs):  # every attempt off the caller fails
            if threading.current_thread() is caller:
                return real(*args, **kwargs)
            return SimpleNamespace(success=False, message="stub", status=4)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        solver = BatchLPSolver(net, backend="scipy")
        before = threading.active_count()
        obs.enable_flight_recorder(directory=tmp_path)
        try:
            with pytest.raises(SolverError, match="after 2 retries") as excinfo:
                solver.bound_specs("standard")
        finally:
            obs.disable_flight_recorder()
        assert threading.active_count() == before
        # the first failing pair in solve order (U, then Q, of every
        # station), its dump written off-thread
        order = [solver._dense_for(f"{name}[{k}]")[0].name
                 for name in ("utilization", "queue_length")
                 for k in range(net.n_stations)]
        first = min(workers_first, key=order.index)
        assert excinfo.value is workers_first[first]
        assert excinfo.value.trace_path is not None


class TestCgroupQuota:
    """``_usable_cores`` is capped by ``ceil(quota / period)``."""

    @staticmethod
    def _v1(root, quota: str, period: str = "100000\n") -> None:
        (root / "cpu").mkdir()
        (root / "cpu" / "cpu.cfs_quota_us").write_text(quota)
        (root / "cpu" / "cpu.cfs_period_us").write_text(period)

    @pytest.mark.parametrize(
        "cpu_max, cores", [("150000 100000\n", 2), ("100000 100000\n", 1),
                           ("800000 100000\n", 8), ("max 100000\n", None)],
    )
    def test_v2_cpu_max(self, tmp_path, cpu_max, cores):
        (tmp_path / "cpu.max").write_text(cpu_max)
        assert batch._cgroup_cpu_quota(tmp_path) == cores

    @pytest.mark.parametrize(
        "quota, cores", [("50000\n", 1), ("250000\n", 3), ("-1\n", None)]
    )
    def test_v1_cfs_quota(self, tmp_path, quota, cores):
        self._v1(tmp_path, quota)
        assert batch._cgroup_cpu_quota(tmp_path) == cores

    def test_no_controller_files_no_cap(self, tmp_path):
        assert batch._cgroup_cpu_quota(tmp_path) is None

    def test_quota_caps_affinity_and_is_split(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            batch.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        monkeypatch.setattr(batch, "_CGROUP_ROOT", tmp_path)
        monkeypatch.setattr(batch, "_core_sharers", 1)
        (tmp_path / "cpu.max").write_text("300000 100000\n")
        assert batch._usable_cores() == 3
        batch._share_cores(2)
        assert batch._usable_cores() == 1
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert batch._usable_cores() == 4  # affinity alone, split in two
