"""Sweep telemetry: serial and parallel runs aggregate identically."""

import numpy as np
import pytest

import repro.obs as obs
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import SolverRegistry
from repro.runtime.sweep import SweepRunner

ROUTING = np.array([[0.0, 1.0], [1.0, 0.0]])
POPULATIONS = (2, 3, 4, 5)


def base_network():
    return Network(
        [queue("src", fit_map2(1.0, 4.0, 0.5)), queue("srv", exponential(1.3))],
        ROUTING,
        POPULATIONS[0],
    )


@pytest.fixture(autouse=True)
def _disabled_after():
    yield
    obs.disable()


def _run(method: str, workers: int, **opts):
    """One profiled sweep; returns (results, snapshot, sweep_span)."""
    tele = obs.Telemetry()
    with obs.use(tele):
        runner = SweepRunner(
            registry=SolverRegistry(cache=None), cache_dir=None
        )
        results = runner.population_sweep(
            base_network(), POPULATIONS, method=method,
            workers=workers, cache=False, **opts,
        )
    (sweep_span,) = tele.roots
    return results, tele.snapshot(), sweep_span


#: Work counters that must be identical whichever executor ran the sweep.
#: (Cache-locality counters — memory tiers, state-space caches — are process-local
#: by design and excluded; see docs/observability.md.)
DETERMINISTIC = (
    "registry.cache_miss",
    "sweep.points",
    "transient.matvecs",
    "transient.segments",
    "transient.poisson_terms",
    "lp.solves",
    "lp.iterations",
    "sim.events",
)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("method", ["mva", "transient"])
    def test_aggregate_totals_match(self, method):
        _, serial, _ = _run(method, workers=1)
        _, parallel, _ = _run(method, workers=2)
        for name in DETERMINISTIC:
            assert serial.counters.get(name) == parallel.counters.get(name), name

    def test_results_identical_across_paths(self):
        serial_results, _, _ = _run("mva", workers=1)
        parallel_results, _, _ = _run("mva", workers=2)
        for a, b in zip(serial_results, parallel_results):
            assert a.to_dict()["utilization"] == b.to_dict()["utilization"]

    def test_sim_seeded_sweep_matches_exactly(self):
        serial, s_snap, _ = _run(
            "sim", workers=1, base_seed=11,
            horizon_events=2_000, warmup_events=200,
        )
        parallel, p_snap, _ = _run(
            "sim", workers=2, base_seed=11,
            horizon_events=2_000, warmup_events=200,
        )
        assert s_snap.counters["sim.events"] == p_snap.counters["sim.events"]
        for a, b in zip(serial, parallel):
            assert a.system_throughput.lower == b.system_throughput.lower


class TestSweepSpanStructure:
    def test_serial_points_nest_under_sweep_span(self):
        _, snap, sweep_span = _run("mva", workers=1)
        assert sweep_span.name == "sweep.run"
        assert sweep_span.attributes["workers"] == 1
        kids = [c.name for c in sweep_span.children]
        assert kids == ["registry.solve"] * len(POPULATIONS)
        assert snap.counters["sweep.points"] == len(POPULATIONS)

    def test_parallel_points_merge_under_sweep_span_in_order(self):
        results, snap, sweep_span = _run("mva", workers=2)
        assert sweep_span.attributes["workers"] == 2
        kids = sweep_span.children
        assert [c.name for c in kids] == ["registry.solve"] * len(POPULATIONS)
        # deterministic merge: child order is sweep input order, and the
        # per-point work landed on the matching child span
        assert snap.counters["registry.cache_miss"] == len(POPULATIONS)
        for child in kids:
            assert child.counters.get("registry.cache_miss") == 1
            assert child.duration_s is not None

    def test_disabled_parallel_sweep_ships_no_state(self):
        runner = SweepRunner(registry=SolverRegistry(cache=None), cache_dir=None)
        results = runner.population_sweep(
            base_network(), POPULATIONS, method="mva", workers=2, cache=False
        )
        assert len(results) == len(POPULATIONS)
        assert not obs.get_telemetry().enabled
