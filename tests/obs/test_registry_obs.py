"""Instrumentation must observe the solver stack, never perturb it."""

import numpy as np
import pytest

import repro.obs as obs
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import ResultCache, SolverRegistry
from repro.runtime.fingerprint import fingerprint_solve

ROUTING = np.array([[0.0, 1.0], [1.0, 0.0]])


def bursty_tandem():
    return Network(
        [queue("src", fit_map2(1.0, 9.0, 0.5)), queue("srv", exponential(1.3))],
        ROUTING,
        5,
    )


@pytest.fixture(autouse=True)
def _disabled_after():
    yield
    obs.disable()


def _strip_timing(payload: dict) -> dict:
    """Copy of a to_dict payload with wall-clock fields removed."""
    p = dict(payload)
    p.pop("wall_time_s", None)
    p["extra"] = {
        k: v for k, v in p["extra"].items() if not k.endswith("_s")
    }
    return p


class TestNonPerturbation:
    def test_fingerprint_identical_with_telemetry_on_and_off(self):
        net = bursty_tandem()
        off = SolverRegistry(cache=ResultCache(directory=None)).solve(net, "exact")
        with obs.use(obs.Telemetry()):
            on = SolverRegistry(cache=ResultCache(directory=None)).solve(
                net, "exact"
            )
        assert off.fingerprint == on.fingerprint
        assert fingerprint_solve(net, "exact", {}) == fingerprint_solve(
            net, "exact", {}
        )

    def test_payload_bit_identical_with_telemetry_on_and_off(self):
        net = bursty_tandem()
        off = SolverRegistry(cache=ResultCache(directory=None)).solve(net, "exact")
        with obs.use(obs.Telemetry()):
            on = SolverRegistry(cache=ResultCache(directory=None)).solve(
                net, "exact"
            )
        # exact's payload is deterministic apart from the wall clock
        assert _strip_timing(off.to_dict()) == _strip_timing(on.to_dict())

    def test_lp_payload_identical_modulo_timing(self):
        net = bursty_tandem()
        off = SolverRegistry(cache=ResultCache(directory=None)).solve(net, "lp")
        with obs.use(obs.Telemetry()):
            on = SolverRegistry(cache=ResultCache(directory=None)).solve(net, "lp")
        assert _strip_timing(off.to_dict()) == _strip_timing(on.to_dict())

    def test_cached_payload_replays_identically_across_telemetry_states(
        self, tmp_path
    ):
        net = bursty_tandem()
        cache_dir = tmp_path / "cache"
        with obs.use(obs.Telemetry()):
            first = SolverRegistry(cache=ResultCache(directory=cache_dir)).solve(
                net, "exact"
            )
        replay = SolverRegistry(cache=ResultCache(directory=cache_dir)).solve(
            net, "exact"
        )
        assert replay.from_cache
        # the stored payload is telemetry-free: a replay with telemetry
        # off is bit-identical to the original compute (provenance keys
        # are stripped by to_dict on both sides)
        assert replay.to_dict() == first.to_dict()
        assert replay.wall_time_s == first.wall_time_s

    def test_to_dict_strips_cache_provenance(self):
        net = bursty_tandem()
        res = SolverRegistry(cache=ResultCache(directory=None)).solve(net, "exact")
        assert res.extra["cache_hit"] is False
        assert res.extra["cache_tier"] == "miss"
        payload = res.to_dict()
        assert "cache_hit" not in payload["extra"]
        assert "cache_tier" not in payload["extra"]


class TestCacheProvenance:
    def test_miss_then_memory_then_disk(self, tmp_path):
        net = bursty_tandem()
        cache_dir = tmp_path / "cache"
        reg = SolverRegistry(cache=ResultCache(directory=cache_dir))
        first = reg.solve(net, "exact")
        assert (first.extra["cache_hit"], first.extra["cache_tier"]) == (
            False, "miss",
        )
        warm = reg.solve(net, "exact")
        assert (warm.extra["cache_hit"], warm.extra["cache_tier"]) == (
            True, "memory",
        )
        fresh = SolverRegistry(cache=ResultCache(directory=cache_dir))
        disk = fresh.solve(net, "exact")
        assert (disk.extra["cache_hit"], disk.extra["cache_tier"]) == (
            True, "disk",
        )
        # hits replay the original compute time (documented semantics)
        assert disk.wall_time_s == first.wall_time_s

    def test_uncached_solve_reports_miss(self):
        net = bursty_tandem()
        res = SolverRegistry(cache=None).solve(net, "aba")
        assert res.extra["cache_tier"] == "miss"
        assert res.extra["cache_hit"] is False


class TestCountersAndSpans:
    def test_solve_span_carries_cache_counters(self, tmp_path):
        net = bursty_tandem()
        reg = SolverRegistry(cache=ResultCache(directory=tmp_path / "c"))
        tele = obs.Telemetry()
        with obs.use(tele):
            reg.solve(net, "exact")
            reg.solve(net, "exact")
        snap = tele.snapshot()
        assert snap.counters["registry.cache_miss"] == 1
        assert snap.counters["registry.cache_store"] == 1
        assert snap.counters["registry.cache_hit"] == 1
        assert snap.counters["result_cache.memory_hit"] == 1
        assert snap.counters["result_cache.bytes_written"] > 0
        roots = [s.name for s in tele.roots]
        assert roots == ["registry.solve", "registry.solve"]
        miss_span, hit_span = tele.roots
        assert miss_span.attributes["cache_tier"] == "miss"
        assert hit_span.attributes["cache_tier"] == "memory"
        assert "t_fingerprint_s" in miss_span.attributes

    def test_transient_span_counts_matvecs(self):
        from repro.workloads.tandem import tandem_model

        tele = obs.Telemetry()
        with obs.use(tele):
            SolverRegistry(cache=None).solve(tandem_model(4), "transient")
        snap = tele.snapshot()
        assert snap.counters["transient.matvecs"] > 0
        assert snap.counters["transient.segments"] >= 1
        assert snap.counters["transient.poisson_terms"] >= (
            snap.counters["transient.matvecs"]
        )
        (root,) = tele.roots
        assert [c.name for c in root.children] == ["ctmc.steady_state", "transient.grid"]

    def test_exact_span_shows_the_stationary_solve(self):
        tele = obs.Telemetry()
        with obs.use(tele):
            res = SolverRegistry(cache=None).solve(bursty_tandem(), "exact")
        (root,) = tele.roots
        (ctmc_span,) = [c for c in root.children if c.name == "ctmc.steady_state"]
        attrs = ctmc_span.attributes
        assert attrs["n_states"] == res.extra["n_states"]
        assert attrs["nnz"] > attrs["n_states"]
        assert attrs["method"] == "direct"
        assert attrs["pins"] == 1
        assert 0.0 <= attrs["residual"] < 1e-12

    def test_lp_spans_nest_under_registry_solve(self):
        tele = obs.Telemetry()
        with obs.use(tele):
            SolverRegistry(cache=None).solve(bursty_tandem(), "lp")
        (root,) = tele.roots
        names = {c.name for c in root.children}
        assert names == {"lp.assembly", "lp.anchor", "lp.solve"}
        snap = tele.snapshot()
        assert snap.counters["lp.solves"] >= 2
        assert snap.counters["lp.iterations"] > 0

    def test_sim_span_counts_events(self):
        tele = obs.Telemetry()
        with obs.use(tele):
            SolverRegistry(cache=None).solve(
                bursty_tandem(), "sim", rng=7,
                horizon_events=2_000, warmup_events=200,
            )
        snap = tele.snapshot()
        assert snap.counters["sim.events"] >= 2_000
        (root,) = tele.roots
        (sim_span,) = root.children
        assert sim_span.name == "sim.run"
        assert sim_span.attributes["event_rate_per_s"] > 0
