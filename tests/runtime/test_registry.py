"""SolverRegistry: dispatch for every method, caching semantics, facade."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.baselines import mva
from repro.core import solve_bounds
from repro.maps import exponential, fit_map2
from repro.network import Network, queue, solve_exact
from repro.runtime import ResultCache, SolveResult, SolverRegistry

ROUTING = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture()
def bursty_tandem():
    """MAP(2) source feeding an exponential bottleneck (qbd-compatible)."""
    return Network(
        [queue("src", fit_map2(1.0, 9.0, 0.5)), queue("srv", exponential(1.3))],
        ROUTING,
        5,
    )


@pytest.fixture()
def exp_tandem():
    return Network(
        [queue("a", exponential(2.0)), queue("b", exponential(1.2))],
        ROUTING,
        5,
    )


@pytest.fixture()
def registry(tmp_path):
    return SolverRegistry(cache=ResultCache(directory=tmp_path))


class TestDispatch:
    """Every registered method name dispatches and returns the facade type."""

    def test_all_methods_registered(self, registry):
        assert set(registry.methods) == {
            "lp", "exact", "sim", "qbd", "mva", "aba", "bjb", "decomposition",
            "transient", "fluid",
        }

    @pytest.mark.parametrize(
        "method", ["lp", "exact", "sim", "qbd", "aba", "bjb", "decomposition"]
    )
    def test_dispatch_on_map_network(self, registry, bursty_tandem, method):
        opts = {"rng": 3, "horizon_events": 20_000, "warmup_events": 2_000} \
            if method == "sim" else {}
        res = registry.solve(bursty_tandem, method, **opts)
        assert isinstance(res, SolveResult)
        assert res.method == method
        assert res.station_names == ("src", "srv")
        assert res.system_throughput.lower > 0
        assert res.wall_time_s >= 0

    def test_mva_dispatch_on_product_form(self, registry, exp_tandem):
        res = registry.solve(exp_tandem, "mva")
        assert res.method == "mva"
        ref = mva(exp_tandem)
        assert res.system_throughput_point() == pytest.approx(ref.system_throughput)

    def test_unknown_method_lists_registered(self, registry, exp_tandem):
        with pytest.raises(KeyError, match="registered"):
            registry.solve(exp_tandem, "simplex-tableau")

    def test_custom_adapter_registration(self, registry, exp_tandem):
        registry.register("echo", lambda net, **_: registry.solve(net, "aba"))
        assert "echo" in registry.methods
        assert registry.solve(exp_tandem, "echo").method == "aba"


class TestAgreementWithDirectSolvers:
    def test_lp_matches_solve_bounds(self, registry, bursty_tandem):
        res = registry.solve(bursty_tandem, "lp")
        direct = solve_bounds(bursty_tandem)
        for k in range(2):
            assert res.utilization_interval(k).lower == pytest.approx(
                direct.utilization[k].lower, abs=1e-7
            )
            assert res.utilization_interval(k).upper == pytest.approx(
                direct.utilization[k].upper, abs=1e-7
            )
        assert res.system_throughput.lower == pytest.approx(
            direct.system_throughput.lower, abs=1e-7
        )

    def test_exact_matches_solve_exact(self, registry, bursty_tandem):
        res = registry.solve(bursty_tandem, "exact")
        sol = solve_exact(bursty_tandem)
        for k in range(2):
            assert res.utilization_point(k) == pytest.approx(sol.utilization(k))
            assert res.queue_length_point(k) == pytest.approx(
                sol.mean_queue_length(k)
            )

    def test_bounding_methods_bracket_exact(self, registry, bursty_tandem, exp_tandem):
        # LP and ABA bounds are valid on ANY model; BJB assumes product
        # form and is genuinely violated by bursty service (the paper's
        # motivating observation), so it is only checked on the
        # exponential network.
        sol = solve_exact(bursty_tandem)
        for method in ("lp", "aba"):
            res = registry.solve(bursty_tandem, method)
            x = res.system_throughput
            assert x.lower - 1e-7 <= sol.system_throughput(0) <= x.upper + 1e-7
        sol_pf = solve_exact(exp_tandem)
        bjb = registry.solve(exp_tandem, "bjb")
        x = bjb.system_throughput
        assert x.lower - 1e-7 <= sol_pf.system_throughput(0) <= x.upper + 1e-7
        assert bjb.extra["certified"] is True

    def test_bjb_not_certified_with_multi_phase_service(self, registry):
        from repro.scenarios import get_scenario

        net = get_scenario("fig5-case-study").network(population=4)  # one MAP(2)
        res = registry.solve(net, "bjb")
        x = registry.solve(net, "exact").system_throughput_point()
        assert not res.system_throughput.contains(x)  # [1.1765, 1.25] vs 1.0622
        assert res.extra["certified"] is False


class TestReference:
    """``reference`` names the station whose throughput is the system's."""

    @pytest.mark.parametrize("method", ["aba", "bjb", "decomposition"])
    def test_reference_scales_by_its_visit_ratio(self, registry, method):
        from repro.scenarios import get_scenario

        net = get_scenario("fig5-case-study").network(population=4)
        v1 = float(net.visit_ratios[1])
        at0 = registry.solve(net, method)
        at1 = registry.solve(net, method, reference=1)
        x0, x1 = at0.system_throughput, at1.system_throughput
        r0, r1 = at0.response_time, at1.response_time
        assert (x1.lower, x1.upper) == pytest.approx((x0.lower * v1, x0.upper * v1))
        assert (r1.lower, r1.upper) == pytest.approx((r0.lower / v1, r0.upper / v1))
        assert at1.throughput == at0.throughput

    def test_aba_brackets_exact_at_every_reference(self, registry):
        from repro.scenarios import get_scenario

        net = get_scenario("fig5-case-study").network(population=4)
        for ref in range(net.n_stations):
            x = registry.solve(net, "exact", reference=ref).system_throughput_point()
            iv = registry.solve(net, "aba", reference=ref).system_throughput
            assert iv.lower <= x <= iv.upper

    @pytest.mark.parametrize("method", SolverRegistry().methods)
    def test_reference_outside_the_stations_raises(self, registry, method):
        # Checked once, before the cache lookup: -1 would index from the
        # last station and M past it.
        from repro.scenarios import get_scenario

        net = get_scenario("fig5-case-study").network(population=3)
        for ref in (-1, net.n_stations):
            with pytest.raises(ValueError, match="reference"):
                registry.solve(net, method, reference=ref)
        assert registry.cache_stats()["misses"] == 0

    @pytest.mark.parametrize("method", SolverRegistry().methods)
    def test_last_station_reference_answers(self, registry, bursty_tandem, method):
        from repro.scenarios import get_scenario

        # qbd approximates two-station networks only
        net = (
            bursty_tandem if method == "qbd"
            else get_scenario("fig5-case-study").network(population=3)
        )
        last = net.n_stations - 1
        opts = {"rng": 1} if method == "sim" else {}
        res = registry.solve(net, method, reference=last, **opts)
        assert res.system_throughput == res.throughput[last]


class TestCaching:
    def test_hit_replays_result_and_wall_time(self, registry, bursty_tandem):
        first = registry.solve(bursty_tandem, "lp")
        second = registry.solve(bursty_tandem, "lp")
        assert not first.from_cache and second.from_cache
        assert second.wall_time_s == first.wall_time_s  # original compute time
        assert second.system_throughput.lower == first.system_throughput.lower

    def test_disk_hit_across_registries(self, tmp_path, bursty_tandem):
        SolverRegistry(cache=ResultCache(directory=tmp_path)).solve(
            bursty_tandem, "exact"
        )
        fresh = SolverRegistry(cache=ResultCache(directory=tmp_path))
        res = fresh.solve(bursty_tandem, "exact")
        assert res.from_cache
        assert fresh.cache.stats.disk_hits == 1

    def test_cache_false_bypasses(self, registry, bursty_tandem):
        registry.solve(bursty_tandem, "exact")
        res = registry.solve(bursty_tandem, "exact", cache=False)
        assert not res.from_cache

    def test_unseeded_sim_never_cached(self, registry, exp_tandem):
        a = registry.solve(exp_tandem, "sim", horizon_events=5_000,
                           warmup_events=500)
        b = registry.solve(exp_tandem, "sim", horizon_events=5_000,
                           warmup_events=500)
        assert not a.from_cache and not b.from_cache

    def test_seeded_sim_cached(self, registry, exp_tandem):
        a = registry.solve(exp_tandem, "sim", rng=11, horizon_events=5_000,
                           warmup_events=500)
        b = registry.solve(exp_tandem, "sim", rng=11, horizon_events=5_000,
                           warmup_events=500)
        assert not a.from_cache and b.from_cache
        assert b.system_throughput.lower == a.system_throughput.lower

    def test_spelled_out_defaults_share_cache_key(self, registry, bursty_tandem):
        registry.solve(bursty_tandem, "exact")
        res = registry.solve(bursty_tandem, "exact", reference=0)
        assert res.from_cache  # defaults normalized before fingerprinting

    def test_mutating_extra_does_not_corrupt_cache(self, registry, bursty_tandem):
        first = registry.solve(bursty_tandem, "exact")
        first.extra["injected"] = True
        second = registry.solve(bursty_tandem, "exact")
        assert second.from_cache
        assert "injected" not in second.extra

    def test_no_cache_registry(self, bursty_tandem):
        reg = SolverRegistry(cache=None)
        assert not reg.solve(bursty_tandem, "aba").from_cache
        assert not reg.solve(bursty_tandem, "aba").from_cache
        assert reg.cache_stats() == {}

    def test_lp_payload_does_not_depend_on_process_history(self):
        """A disk entry's bytes are the model's alone: N = 6 solved after
        N = 5 in this process equals N = 6 solved alone in a fresh one."""
        from repro.scenarios import get_scenario

        script = textwrap.dedent(
            """
            import json
            from repro.runtime import SolverRegistry
            from repro.scenarios import get_scenario

            net = get_scenario("fig5-case-study").network(population=6)
            print(json.dumps(SolverRegistry(cache=None).solve(net, "lp").to_dict()))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        alone = json.loads(proc.stdout.splitlines()[-1])

        fig5 = get_scenario("fig5-case-study")
        registry = SolverRegistry(cache=None)
        registry.solve(fig5.network(population=5), "lp")
        after = json.loads(json.dumps(registry.solve(fig5.network(population=6), "lp").to_dict()))

        def timeless(payload):
            extra = {k: v for k, v in payload.pop("extra").items() if not k.startswith("t_")}
            payload.pop("wall_time_s")
            return {**payload, "extra": extra}

        assert timeless(after) == timeless(alone)


class TestPartialMetrics:
    def test_lp_metric_subset(self, registry, bursty_tandem):
        res = registry.solve(
            bursty_tandem, "lp", metrics=("utilization[1]", "response_time")
        )
        assert res.utilization[0] is None
        assert res.utilization_interval(1).upper <= 1.0 + 1e-9
        assert res.response_time is not None
        with pytest.raises(KeyError, match="metrics"):
            res.queue_length_interval(0)

    def test_result_roundtrips_through_json(self, registry, bursty_tandem):
        res = registry.solve(bursty_tandem, "lp", metrics=("system_throughput",))
        clone = SolveResult.from_dict(res.to_dict())
        assert clone.system_throughput.lower == res.system_throughput.lower
        assert clone.utilization == res.utilization == (None, None)


class TestQbdAdapter:
    def test_requires_two_stations(self, registry):
        net = Network(
            [queue(f"q{i}", exponential(1.0 + i)) for i in range(3)],
            np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            4,
        )
        from repro.utils.errors import NotSupportedError

        with pytest.raises(NotSupportedError):
            registry.solve(net, "qbd")

    def test_tracks_exact_in_saturated_regime(self, registry):
        arrivals = fit_map2(1.0, 9.0, 0.5)
        net = Network(
            [queue("src", arrivals), queue("srv", exponential(1.3))],
            ROUTING,
            80,
        )
        res = registry.solve(net, "qbd")
        sol = solve_exact(net)
        # the open-queue approximation matches the saturated closed pair
        # (the residual gap is the finite-population truncation)
        assert res.queue_length_point(1) == pytest.approx(
            sol.mean_queue_length(1), rel=0.2
        )
        assert res.utilization_point(1) == pytest.approx(
            sol.utilization(1), rel=0.05
        )
