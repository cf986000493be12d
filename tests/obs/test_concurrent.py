"""Concurrent telemetry: threaded trace round-trips, sweep artifact parity."""

import json
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.maps import exponential, fit_map2
from repro.network import Network, queue
from repro.obs.sentinel import validate_artifact
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


class TestThreadedTraceRoundTrip:
    N_THREADS = 4
    DEPTH = 3

    def _worker(self, tele, tid, barrier):
        barrier.wait()
        for i in range(self.DEPTH):
            with tele.span(f"t{tid}.level{i}", thread=tid, step=i):
                tele.counter("threads.steps")
                with tele.span(f"t{tid}.inner", thread=tid):
                    tele.observe("threads.latency_s", 0.001 * (i + 1))

    def test_interleaved_span_trees_round_trip(self, tmp_path):
        """Per-thread span stacks stay disjoint and survive JSONL round-trip."""
        tele = obs.Telemetry()
        barrier = threading.Barrier(self.N_THREADS)
        with obs.use(tele):
            threads = [
                threading.Thread(target=self._worker, args=(tele, tid, barrier))
                for tid in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        # every thread produced DEPTH roots, each with one child, and the
        # interleaving never cross-attached spans between threads
        assert len(tele.roots) == self.N_THREADS * self.DEPTH
        for root in tele.roots:
            tid = root.attributes["thread"]
            assert root.name.startswith(f"t{tid}.")
            (child,) = root.children
            assert child.name == f"t{tid}.inner"
            assert child.attributes["thread"] == tid

        path = tmp_path / "threads.jsonl"
        obs.export_jsonl(tele, path)
        records = obs.load_trace(path)
        assert obs.validate_trace(records) == []
        rebuilt = obs.spans_from_records(records)
        assert {(s.name, s.attributes["thread"]) for s in rebuilt} == {
            (s.name, s.attributes["thread"]) for s in tele.roots
        }
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["counters"]["threads.steps"] == (
            self.N_THREADS * self.DEPTH
        )
        assert metrics["histograms"]["threads.latency_s"]["count"] == (
            self.N_THREADS * self.DEPTH
        )

    def test_concurrent_counters_do_not_drop_increments(self):
        tele = obs.Telemetry()
        n, per = 8, 500
        barrier = threading.Barrier(n)

        def bump():
            barrier.wait()
            for _ in range(per):
                tele.counter("contended")

        threads = [threading.Thread(target=bump) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tele.snapshot().counters["contended"] == n * per


class TestSpanHandover:
    N_THREADS = 4

    def test_worker_spans_nest_under_the_handed_parent(self):
        tele = obs.Telemetry()
        errors: list = []

        def work(parent, i):
            try:
                with obs.use(tele, parent=parent):
                    with obs.get_telemetry().span("work", i=i):
                        obs.get_telemetry().counter("handover.steps")
                # leaving the block hands the parent back: the stack is empty
                assert tele.current_span() is None
            except AssertionError as exc:  # pragma: no cover - reported below
                errors.append(exc)

        with obs.use(tele), tele.span("caller") as caller:
            threads = [
                threading.Thread(target=work, args=(caller, i))
                for i in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
                assert not t.is_alive()
        assert errors == []
        assert [r.name for r in tele.roots] == ["caller"]
        assert sorted(c.attributes["i"] for c in caller.children) == list(
            range(self.N_THREADS)
        )
        assert tele.snapshot().counters["handover.steps"] == self.N_THREADS


class TestSweepArtifactParity:
    """Serial and parallel sweeps produce identical bench artifacts."""

    #: Counters that must agree whichever executor ran the sweep.
    DETERMINISTIC = ("registry.cache_miss", "sweep.points")

    def _sweep_artifact(self, tmp_path, workers):
        """One profiled sweep, reported as an artifact built per the
        bench_reporting snapshot-flattening convention."""
        tele = obs.Telemetry()
        with obs.use(tele):
            runner = SweepRunner(
                registry=SolverRegistry(cache=None), cache_dir=None
            )
            runner.population_sweep(
                base_network(), POPULATIONS, method="mva",
                workers=workers, cache=False,
            )
        snap = tele.snapshot()
        entry = {"case": "sweep"}
        for name in self.DETERMINISTIC:
            entry[name.replace(".", "_")] = snap.counters[name]
        entry["n_registry_solve"] = snap.histograms[
            "span.registry.solve.duration_s"
        ]["count"]
        payload = {
            "schema": 1,
            "benchmark": "sweepdemo",
            "preset": "quick",
            "python": "3.11",
            "entries": [entry],
        }
        path = tmp_path / f"BENCH_sweepdemo_w{workers}.quick.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    def test_serial_parallel_artifacts_identical(self, tmp_path):
        serial = self._sweep_artifact(tmp_path, workers=1)
        parallel = self._sweep_artifact(tmp_path, workers=2)
        # the deterministic fields are byte-identical across executors
        assert serial.read_bytes() == parallel.read_bytes()
        payload = validate_artifact(json.loads(serial.read_text()), source=serial.name)
        (entry,) = payload["entries"]
        assert entry["n_registry_solve"] == len(POPULATIONS)
        assert entry["sweep_points"] == len(POPULATIONS)

    def test_completed_points_gauge_reaches_n_on_both_paths(self):
        for workers in (1, 2):
            tele = obs.Telemetry()
            with obs.use(tele):
                SweepRunner(
                    registry=SolverRegistry(cache=None), cache_dir=None
                ).population_sweep(
                    base_network(), POPULATIONS, method="mva",
                    workers=workers, cache=False,
                )
            snap = tele.snapshot()
            assert snap.gauges["sweep.completed_points"] == len(POPULATIONS)
