"""The fluid registry method: dispatch, caching, validation, trajectories."""

import numpy as np
import pytest

from repro.fluid import FluidResult, solve_fluid
from repro.runtime import SolverRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.sweep import SweepRunner, SweepSpec
from repro.scenarios import get_scenario
from repro.utils.errors import UnsupportedNetworkError, ValidationError
from repro.workloads.tandem import tandem_model

CLOSED_SCENARIOS = ("bursty-tandem", "fig5-case-study", "tpcw")


@pytest.fixture()
def registry(tmp_path):
    return SolverRegistry(cache=ResultCache(directory=tmp_path / "cache"))


@pytest.fixture(scope="module")
def tandem():
    return tandem_model(8)


class TestDispatch:
    def test_registered_and_deterministic(self, registry):
        assert "fluid" in registry.methods
        assert not registry.is_stochastic("fluid")

    def test_steady_solve_returns_fluid_result(self, registry, tandem):
        res = registry.solve(tandem, "fluid")
        assert isinstance(res, FluidResult)
        assert res.method == "fluid"
        assert res.is_steady and res.times == ()
        assert res.fingerprint is not None

    @pytest.mark.parametrize("kind_scenario", ("open-bursty-tandem", "mixed-tpcw"))
    def test_open_and_mixed_rejected(self, registry, kind_scenario):
        net = get_scenario(kind_scenario).network()
        with pytest.raises(UnsupportedNetworkError) as err:
            registry.solve(net, "fluid")
        assert err.value.method == "fluid"

    def test_refinement_hook_reserved(self, registry, tandem):
        """The reserved ``refinement=`` hook is gone: an unknown option."""
        with pytest.raises(TypeError, match="refinement"):
            registry.solve(tandem, "fluid", refinement="diffusion")

    def test_bad_times_string_rejected(self, tandem):
        with pytest.raises(ValidationError):
            solve_fluid(tandem, times="never")

    def test_no_state_enumeration(self, registry, tandem, monkeypatch):
        """The fluid path must never touch the CTMC state space."""
        import repro.network.statespace as statespace

        def boom(*args, **kwargs):  # pragma: no cover - tripwire
            raise AssertionError("fluid solve enumerated a state space")

        monkeypatch.setattr(statespace.NetworkStateSpace, "__init__", boom)
        res = registry.solve(tandem, "fluid", cache=False)
        assert res.system_throughput_point() > 0


class TestCaching:
    def test_memory_replay(self, registry, tandem):
        first = registry.solve(tandem, "fluid")
        again = registry.solve(tandem, "fluid")
        assert not first.from_cache and again.from_cache
        assert again.extra["cache_tier"] == "memory"

    def test_disk_replay_reconstructs_fluid_result(self, tmp_path, tandem):
        times = tuple(float(t) for t in np.linspace(0.0, 30.0, 7))
        a = SolverRegistry(cache=ResultCache(directory=tmp_path / "c")).solve(
            tandem, "fluid", times=times, pi0="loaded:q1"
        )
        b = SolverRegistry(cache=ResultCache(directory=tmp_path / "c")).solve(
            tandem, "fluid", times=times, pi0="loaded:q1"
        )
        assert b.from_cache and b.extra["cache_tier"] == "disk"
        assert isinstance(b, FluidResult)
        assert b.to_dict() == a.to_dict()

    def test_steady_and_transient_fingerprints_differ(self, registry, tandem):
        steady = registry.solve(tandem, "fluid")
        traj = registry.solve(tandem, "fluid", times=(0.0, 10.0))
        assert steady.fingerprint != traj.fingerprint


class TestSmallPopulationAgreement:
    """At N = 1 the fluid point is *exact* for MAP networks (renewal
    reward: one circulating job sees stationary service means only)."""

    @pytest.mark.parametrize("name", CLOSED_SCENARIOS)
    def test_n1_matches_exact_to_1e3(self, registry, name):
        net = get_scenario(name).network(population=1)
        fluid = registry.solve(net, "fluid")
        exact = registry.solve(net, "exact")
        xf = fluid.system_throughput_point()
        xe = exact.system_throughput_point()
        assert abs(xf - xe) / xe < 1e-3
        for k, st in enumerate(net.stations):
            qe = exact.queue_length_point(k)
            assert abs(fluid.queue_length_point(k) - qe) <= 1e-3 * max(qe, 1e-6)
            if st.kind != "delay":
                ue = exact.utilization_point(k)
                assert abs(fluid.utilization_point(k) - ue) <= 1e-3 * max(
                    ue, 1e-6
                )

    @pytest.mark.parametrize(
        ("name", "populations"),
        [
            ("bursty-tandem", (2, 4, 8, 16, 32)),  # knee N* = 1.95
            ("fig5-case-study", (4, 8, 16, 32, 64)),  # knee N* = 2.67
        ],
    )
    def test_monotone_convergence_toward_the_fluid_limit(
        self, registry, name, populations
    ):
        """Exact throughput climbs toward the fluid limit as N doubles,
        with a strictly shrinking relative gap (the repo's scaled-sequence
        validation protocol).  The gap peaks *at* the saturation knee, so
        the doubling sequence starts at the first power of two past it."""
        from repro.analysis import asymptotic_limits

        knee = asymptotic_limits(
            get_scenario(name).network(population=2)
        ).saturation_population
        assert populations[0] >= knee  # protocol precondition
        gaps = []
        for N in populations:
            net = get_scenario(name).network(population=N)
            xf = registry.solve(net, "fluid").system_throughput_point()
            xe = registry.solve(net, "exact").system_throughput_point()
            assert xe <= xf * (1 + 1e-9)  # fluid is an upper envelope
            gaps.append((xf - xe) / xf)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), (
            f"{name}: fluid gap not monotone over doubling N: {gaps}"
        )

    def test_preknee_tracking_below_the_knee(self, registry):
        """tpcw saturates only near N* ~ 196 (think time dominates), far
        past exact feasibility — below the knee the fluid point must track
        the exact solution tightly, degrading smoothly toward the knee."""
        gaps = []
        for N in (2, 8, 16, 64):
            net = get_scenario("tpcw").network(population=N)
            xf = registry.solve(net, "fluid").system_throughput_point()
            xe = registry.solve(net, "exact").system_throughput_point()
            assert xe <= xf * (1 + 1e-9)
            gaps.append((xf - xe) / xf)
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[1] < 0.01  # N = 8: deep below the knee, sub-percent
        assert gaps[-1] < 0.10  # N = 64: still a third of the knee

    def test_fluid_throughput_monotone_in_population(self, registry):
        xs = [
            registry.solve(tandem_model(N), "fluid").system_throughput_point()
            for N in (1, 2, 4, 8, 16, 1_000_000)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))


class TestMillionUsers:
    def test_million_user_steady_solve(self, registry):
        net = get_scenario("stress-large-population").network(
            population=1_000_000
        )
        res = registry.solve(net, "fluid")
        assert res.population == 1_000_000
        assert res.extra["saturated"]
        assert res.system_throughput_point() == pytest.approx(
            res.extra["asymptotic"]["throughput_limit"]
        )
        assert sum(res.extra["queue_length_inf"]) == pytest.approx(1_000_000.0)
        # Dimension stays tiny: the whole point of the tier.
        assert res.extra["fluid_dim"] < 10


class TestTrajectories:
    def test_converges_to_the_fixed_point(self, registry, tandem):
        res = registry.solve(
            tandem, "fluid",
            times=tuple(float(t) for t in np.linspace(0.0, 60.0, 13)),
            pi0="loaded:q1",
        )
        assert res.distance_tv[0] > res.distance_tv[-1]
        assert res.distance_tv[-1] < 1e-6
        for k in range(2):
            assert res.queue_length_t[k][-1] == pytest.approx(
                res.fixed_point_queue_length(k), abs=1e-5
            )

    def test_steady_pi0_stays_flat(self, registry, tandem):
        res = registry.solve(
            tandem, "fluid", times=(0.0, 5.0, 25.0), pi0="steady"
        )
        assert max(res.distance_tv) < 1e-6

    def test_auto_grid_matches_transient_default(self, registry, tandem):
        from repro.transient.solver import default_time_grid

        res = registry.solve(tandem, "fluid", times="auto")
        assert res.times == default_time_grid(tandem)

    def test_burst_pi0_relaxes_back(self, registry):
        net = get_scenario("bursty-tandem").network(population=6)
        res = registry.solve(
            net, "fluid",
            times=tuple(float(t) for t in np.linspace(0.0, 80.0, 17)),
            pi0="burst:q1",
        )
        # Conditioning on the slow phase perturbs the flow; the fluid
        # must relax back toward the fixed point (the bursty MAP's phase
        # autocorrelation makes the approach slow, so the bar is a decade
        # of decay, not machine precision).
        assert res.distance_tv[-1] < 5e-3
        assert res.distance_tv[-1] < max(res.distance_tv) / 10

    def test_burst_requires_multiphase_station(self, registry, tandem):
        with pytest.raises(ValidationError, match="bursty"):
            registry.solve(tandem, "fluid", times=(0.0, 1.0), pi0="burst:q2")

    def test_grid_keeps_caller_order(self, tandem):
        fwd = solve_fluid(tandem, times=(0.0, 10.0, 20.0), pi0="loaded:0")
        rev = solve_fluid(tandem, times=(20.0, 10.0, 0.0), pi0="loaded:0")
        assert fwd.times == (0.0, 10.0, 20.0)
        assert rev.times == (20.0, 10.0, 0.0)
        for k in range(2):
            assert fwd.queue_length_t[k] == pytest.approx(
                tuple(reversed(rev.queue_length_t[k]))
            )

    def test_bottleneck_switch_events_recorded(self):
        # Start everything at the front queue of tpcw: its occupancy
        # falls through 1 (capacity) while downstream tiers fill up.
        net = get_scenario("tpcw").network(population=12)
        res = solve_fluid(
            net, times=tuple(float(t) for t in np.linspace(0.0, 60.0, 13)),
            pi0="loaded:front",
        )
        switches = res.extra["bottleneck_switches"]
        assert switches, "expected at least one occupancy/capacity crossing"
        for ts in switches.values():
            assert all(t >= 0.0 for t in ts)

    @pytest.mark.parametrize("method", ("BDF", "Radau"))
    def test_stiff_methods_agree(self, tandem, method):
        times = tuple(float(t) for t in np.linspace(0.0, 40.0, 9))
        res = solve_fluid(tandem, times=times, pi0="loaded:q1",
                          ode_method=method)
        ref = solve_fluid(tandem, times=times, pi0="loaded:q1")
        for k in range(2):
            assert res.queue_length_t[k] == pytest.approx(
                ref.queue_length_t[k], abs=1e-5
            )


class TestMidScaleExactCrossCheck:
    def test_steady_fluid_within_exact(self, registry):
        """Mid-scale: deep in saturation the fluid steady point must sit
        within a few percent of the exact answer (40,602 states)."""
        net = get_scenario("fig5-case-study").network(population=200)
        xf = registry.solve(net, "fluid").system_throughput_point()
        xe = registry.solve(net, "exact").system_throughput_point()
        assert abs(xf - xe) / xe < 0.05


class TestSweeps:
    def test_fluid_population_sweep(self, tmp_path):
        spec = SweepSpec(
            scenario="bursty-tandem",
            populations=(1, 2, 4, 8),
            method="fluid",
        )
        runner = SweepRunner(
            registry=SolverRegistry(cache=ResultCache(directory=tmp_path / "c"))
        )
        results = runner.run_spec(spec, workers=2)
        xs = [r.system_throughput_point() for r in results]
        assert len(xs) == 4
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
        assert all(isinstance(r, FluidResult) for r in results)


class TestObservability:
    def test_spans_and_counters(self, tandem):
        import repro.obs as obs

        tele = obs.Telemetry()
        with obs.use(tele):
            solve_fluid(tandem, times=(0.0, 10.0), pi0="loaded:q1")
        names = {s.name for s in tele.roots}
        assert {"fluid.fixed_point", "fluid.integrate"} <= names
        counters = tele.snapshot().counters
        assert counters.get("fluid.fixed_point", 0) >= 1
        assert counters.get("fluid.field_eval", 0) > 0
        assert counters.get("fluid.ode_steps", 0) > 0
