"""SweepRunner: ordering, determinism serial vs parallel, shared disk cache."""

import os

import numpy as np
import pytest

from repro import obs
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.runtime import SweepRunner, derive_seed

ROUTING = np.array([[0.0, 1.0], [1.0, 0.0]])
POPULATIONS = (2, 3, 4, 5)


@pytest.fixture()
def net():
    return Network(
        [queue("a", fit_map2(1.0, 4.0, 0.4)), queue("b", exponential(1.4))],
        ROUTING,
        POPULATIONS[0],
    )


def _signature(results):
    """Bit-exact value tuple of a sweep (throughput interval endpoints)."""
    return [
        (r.system_throughput.lower, r.system_throughput.upper, r.population)
        for r in results
    ]


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(123, i) for i in range(32)]
        assert seeds == [derive_seed(123, i) for i in range(32)]
        assert len(set(seeds)) == 32

    def test_base_seed_enters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestOrderingAndDeterminism:
    def test_results_in_input_order(self, net, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        res = runner.population_sweep(net, POPULATIONS, method="exact", workers=1)
        assert [r.population for r in res] == list(POPULATIONS)

    def test_sim_sweep_serial_equals_parallel(self, net, tmp_path):
        """The acceptance property: same base seed => bit-identical results,
        whichever executor ran the points."""
        serial = SweepRunner(cache_dir=None).population_sweep(
            net, POPULATIONS, method="sim", base_seed=7, workers=1,
            horizon_events=10_000, warmup_events=1_000,
        )
        parallel = SweepRunner(cache_dir=None).population_sweep(
            net, POPULATIONS, method="sim", base_seed=7, workers=2,
            horizon_events=10_000, warmup_events=1_000,
        )
        assert _signature(serial) == _signature(parallel)

    def test_lp_sweep_serial_equals_parallel(self, net, tmp_path):
        serial = SweepRunner(cache_dir=None).population_sweep(
            net, POPULATIONS, method="lp", workers=1
        )
        parallel = SweepRunner(cache_dir=None).population_sweep(
            net, POPULATIONS, method="lp", workers=2
        )
        # Not bit-exact: the persistent LP backend warm-starts each
        # population from the previous one's basis, and forked workers
        # inherit whatever lineage the parent process accumulated, so
        # the two executions can take different (equally optimal) simplex
        # paths.  The contract is value agreement at LP tolerance.
        for s, p in zip(_signature(serial), _signature(parallel), strict=True):
            assert s[2] == p[2]  # population order is still exact
            assert s[0] == pytest.approx(p[0], abs=1e-9)
            assert s[1] == pytest.approx(p[1], abs=1e-9)


class TestDefaultWorkers:
    def test_default_follows_the_cpu_affinity(self, net, monkeypatch):
        """Pinned to one core of a two-CPU host (``taskset -c 0``), a
        default sweep solves serially: the worker count is the affinity
        count the LP pair threads use, not ``os.cpu_count()``."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        tele = obs.Telemetry()
        with obs.use(tele):
            SweepRunner(cache_dir=None).population_sweep(net, POPULATIONS, method="mva")
        [span] = [sp for sp in tele.roots if sp.name == "sweep.run"]
        assert span.attributes["workers"] == 1


class TestSweepCache:
    def test_parallel_workers_populate_shared_disk_cache(self, net, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.population_sweep(net, POPULATIONS, method="lp", workers=2)
        assert not any(r.from_cache for r in first)
        # rerun serially in this process: every point is a disk hit
        second = runner.population_sweep(net, POPULATIONS, method="lp", workers=1)
        assert all(r.from_cache for r in second)
        assert _signature(first) == _signature(second)

    def test_cache_disabled(self, net):
        runner = SweepRunner(cache_dir=None)
        runner.population_sweep(net, POPULATIONS[:2], method="aba", workers=1)
        res = runner.population_sweep(net, POPULATIONS[:2], method="aba", workers=1)
        assert not any(r.from_cache for r in res)
