"""LP engines: the engine choice, start bases, and the retry ladder of both."""

import numpy as np
import pytest
import scipy.optimize

from repro.core import build_constraints, queue_length_metric, throughput_metric
from scipy.optimize import OptimizeResult, linprog

import repro.core.lpbackend as lpbackend
from repro import obs
from repro.core.lpbackend import (
    _IPM_THRESHOLD,
    PersistentLP,
    StatelessLP,
    choose_lp_method,
    highs_available,
    highs_impl,
    make_lp_engine,
)
from repro.core.variables import VariableIndex
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime.batch import BatchLPSolver
from repro.utils.errors import SolverError

needs_highs = pytest.mark.skipif(
    not highs_available(), reason="no HiGHS binding importable"
)


def two_station(N: int = 5):
    net = Network(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        N,
    )
    vi = VariableIndex(net)
    return net, vi, build_constraints(net, vi)


@pytest.fixture(scope="module")
def system():
    return two_station()


@needs_highs
class TestDiscovery:
    def test_impl_is_named_when_available(self):
        assert highs_impl() == "scipy-vendored"

    def test_auto_prefers_highs(self, system):
        _, _, sys_c = system
        assert isinstance(make_lp_engine(sys_c), PersistentLP)
        assert make_lp_engine(sys_c, backend="highs").backend == "highs"
        assert make_lp_engine(sys_c, backend="scipy").backend == "scipy"

    def test_unknown_backend_rejected(self, system):
        _, _, sys_c = system
        with pytest.raises(ValueError):
            make_lp_engine(sys_c, backend="gurobi")

    def test_forced_highs_raises_without_binding(self, system, monkeypatch):
        _, _, sys_c = system
        monkeypatch.setattr(lpbackend, "_highs", lambda: (None, None))
        assert highs_impl() is None
        with pytest.raises(SolverError, match="highs"):
            make_lp_engine(sys_c, backend="highs")
        # auto degrades silently instead
        assert isinstance(make_lp_engine(sys_c), StatelessLP)


class TestChooseMethod:
    def test_threshold_boundary(self):
        assert choose_lp_method(_IPM_THRESHOLD) == "highs"
        assert choose_lp_method(_IPM_THRESHOLD + 1) == "highs-ipm"


class TestMakeLpEngine:
    """Solves on the engine :func:`make_lp_engine` builds, whichever
    backend this process has."""

    def test_explicit_methods_agree(self, system):
        net, vi, sys_c = system
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        simplex = make_lp_engine(sys_c, "highs").solve(c, "min")
        ipm = make_lp_engine(sys_c, "highs-ipm").solve(c, "min")
        assert simplex.value == pytest.approx(ipm.value, abs=1e-6)

    def test_auto_selects_simplex_for_small(self, system):
        net, vi, sys_c = system
        assert sys_c.n_variables <= _IPM_THRESHOLD
        engine = make_lp_engine(sys_c)
        assert engine.method == "highs"
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        assert engine.solve(c, "min").method_used == "highs"

    def test_method_used_surfaced_on_both_backends(self, system):
        net, vi, sys_c = system
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        for backend in ("auto", "scipy"):
            info = make_lp_engine(sys_c, "highs-ipm", backend).solve(c, "min")
            assert info.method_used == "highs-ipm"
            assert info.n_iterations >= 0


@needs_highs
class TestPersistentSolves:
    def test_matches_stateless_scipy(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        for metric in (throughput_metric(net, vi, 0),
                       queue_length_metric(net, vi, 1)):
            c = metric.dense(sys_c.n_variables)
            for sense in ("min", "max"):
                info = plp.solve(c.copy(), sense)
                ref = make_lp_engine(sys_c, backend="scipy").solve(c, sense)
                assert info.value == pytest.approx(ref.value, abs=1e-9)

    def test_solution_vector_feasible(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        info = plp.solve(c, "min")
        eq_res, ub_res = sys_c.residuals(info.x)
        assert np.abs(eq_res).max() < 1e-7
        assert ub_res.max() < 1e-7

    def test_pair_reuse_marks_warm_and_agrees(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c)
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        lo = plp.solve(c.copy(), "min")
        hi = plp.solve(c.copy(), "max", start=lo.basis)
        assert not lo.warm and hi.warm
        assert lo.basis is not None and hi.basis is not None
        cold_hi = PersistentLP(sys_c).solve(c.copy(), "max")
        assert hi.value == pytest.approx(cold_hi.value, abs=1e-9)
        assert lo.value <= hi.value + 1e-9

    def test_start_does_not_depend_on_the_engine(self, system):
        """A basis from one engine starts another alike: same bits, same
        iterations, whatever either engine solved before."""
        net, vi, sys_c = system
        c = queue_length_metric(net, vi, 1).dense(sys_c.n_variables)
        anchor = PersistentLP(sys_c).solve(np.zeros(sys_c.n_variables), "min").basis
        fresh = PersistentLP(sys_c).solve(c.copy(), "max", start=anchor)
        used = PersistentLP(sys_c)
        used.solve(throughput_metric(net, vi, 0).dense(sys_c.n_variables), "min")
        again = used.solve(c.copy(), "max", start=anchor)
        assert fresh.warm and again.warm
        assert (fresh.value.hex(), fresh.n_iterations) == (
            again.value.hex(), again.n_iterations
        )

    def test_explicit_ipm_never_warm(self, system):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c, method="highs-ipm")
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        start = PersistentLP(sys_c, method="highs").solve(c.copy(), "min").basis
        info = plp.solve(c.copy(), "max", start=start)
        # IPM ignores start bases; the request must not be misreported
        assert not plp.takes_start
        assert not info.warm and info.basis is None
        assert info.method_used == "highs-ipm"

    def test_rejects_bad_inputs(self, system):
        net, vi, sys_c = system
        with pytest.raises(ValueError):
            PersistentLP(sys_c, method="simplex-dual")
        with pytest.raises(ValueError):
            PersistentLP(sys_c).solve(None, "upward")
        # a linprog-only method is no way round the check: both engines
        # accept auto/highs/highs-ipm and nothing else
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        for backend in ("auto", "scipy"):
            with pytest.raises(ValueError, match="highs-ds"):
                make_lp_engine(sys_c, "highs-ds", backend).solve(c, "min")

    def test_retry_ladder_reports_fallbacks(self, system, monkeypatch):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c, method="highs")
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        real_run_ok = PersistentLP._run_ok
        calls = {"n": 0}

        def flaky_run_ok(self):
            calls["n"] += 1
            if calls["n"] == 1:  # first attempt "fails"; ladder takes over
                self._h.run()
                return False
            return real_run_ok(self)

        monkeypatch.setattr(PersistentLP, "_run_ok", flaky_run_ok)
        info = plp.solve(c, "min")
        assert info.n_fallbacks == 1
        assert info.method_used == "highs-ipm"  # the alternate algorithm
        ref = make_lp_engine(sys_c, backend="scipy").solve(c, "min")
        assert info.value == pytest.approx(ref.value, abs=1e-9)

    def test_failed_warm_attempt_retries_cold(self, system, monkeypatch):
        net, vi, sys_c = system
        plp = PersistentLP(sys_c, method="highs")
        c = throughput_metric(net, vi, 0).dense(sys_c.n_variables)
        start = plp.solve(c, "min").basis
        real_attempt = PersistentLP._attempt
        starts = []

        def attempt(self, method, presolve, start):
            starts.append(start is not None)
            ok = real_attempt(self, method, presolve, start)
            return ok and len(starts) > 1  # the warm attempt "fails"

        monkeypatch.setattr(PersistentLP, "_attempt", attempt)
        info = plp.solve(c, "max", start=start)
        assert starts == [True, False]
        assert not info.warm and info.n_fallbacks == 1

    def test_exhausted_ladder_raises(self, system, monkeypatch):
        _, _, sys_c = system
        plp = PersistentLP(sys_c)
        monkeypatch.setattr(PersistentLP, "_run_ok", lambda self: False)
        with pytest.raises(SolverError, match="after 2 retries"):
            plp.solve(np.zeros(sys_c.n_variables), "min")


class _FlakyLinprog:
    """``linprog`` that fails its first ``n_fail`` calls, then answers."""

    def __init__(self, n_fail: int) -> None:
        self.n_fail = n_fail
        self.calls: list[tuple[str, "dict | None"]] = []

    def __call__(self, c, **kwargs):
        self.calls.append((kwargs["method"], kwargs["options"]))
        if len(self.calls) <= self.n_fail:
            return OptimizeResult(
                success=False, status=2, message="stub: infeasible",
                fun=None, x=None, nit=0,
            )
        return linprog(c, **kwargs)


class TestStatelessLadder:
    """The stateless engine walks the same ladder and counts it the same way."""

    def test_two_failed_steps_count_one_fallback(self, system, monkeypatch):
        net, _, _ = system
        ref = BatchLPSolver(net, backend="scipy", method="highs").bound_specs(
            ("system_throughput",)
        )["system_throughput"]
        stub = _FlakyLinprog(n_fail=2)
        monkeypatch.setattr(scipy.optimize, "linprog", stub)
        tele = obs.Telemetry()
        with obs.use(tele):
            solver = BatchLPSolver(net, backend="scipy", method="highs")
            got = solver.bound_specs(("system_throughput",))["system_throughput"]
        # min: simplex, IPM, then simplex with presolve off; max: first try
        assert stub.calls == [
            ("highs", None),
            ("highs-ipm", None),
            ("highs", {"presolve": False}),
            ("highs", None),
        ]
        assert solver.n_fallbacks == 1  # one solve needed the ladder
        assert tele.snapshot().counters["lp.retry_step"] == 2
        assert tele.snapshot().counters["lp.fallbacks"] == 1
        [fell_back] = [
            sp for sp in tele.roots
            if sp.name == "lp.solve" and "method_used" in sp.attributes
        ]
        assert fell_back.attributes["sense"] == "min"
        assert fell_back.attributes["method_used"] == "highs"
        assert got.lower == pytest.approx(ref.lower, abs=1e-9)
        assert got.upper == pytest.approx(ref.upper, abs=1e-9)

    def test_engine_reports_the_step_that_answered(self, system, monkeypatch):
        net, vi, sys_c = system
        monkeypatch.setattr(scipy.optimize, "linprog", _FlakyLinprog(n_fail=1))
        info = StatelessLP(sys_c, method="highs").solve(
            throughput_metric(net, vi, 0).dense(sys_c.n_variables), "max"
        )
        assert info.n_fallbacks == 1
        assert info.method_used == "highs-ipm"  # the alternate algorithm
        assert not info.warm

    def test_exhausted_ladder_raises(self, system, monkeypatch):
        _, _, sys_c = system
        stub = _FlakyLinprog(n_fail=10**6)
        monkeypatch.setattr(scipy.optimize, "linprog", stub)
        with pytest.raises(SolverError, match="after 2 retries"):
            StatelessLP(sys_c).solve(np.zeros(sys_c.n_variables), "min")
        assert len(stub.calls) == 3
