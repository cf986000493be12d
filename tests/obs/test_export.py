"""Prometheus/JSON exposition and the stdlib metrics endpoint."""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

import repro.obs as obs
from repro.obs.core import TelemetrySnapshot
from repro.obs.export import (
    MetricsServer,
    prometheus_name,
    render_metrics_json,
    render_prometheus,
)


def snapshot():
    return TelemetrySnapshot(
        counters={"lp.iterations": 42, "registry.cache_hit": 3},
        gauges={"sweep.completed_points": 2.0},
        histograms={
            "span.registry.solve.duration_s": {
                "count": 4, "sum": 0.8, "min": 0.1, "max": 0.3,
                "mean": 0.2, "p50": 0.2, "p90": 0.28, "p95": 0.29,
                "p99": 0.3,
            },
        },
    )


class TestPrometheusRendering:
    def test_name_sanitization(self):
        assert prometheus_name("lp.iterations") == "repro_lp_iterations"
        assert prometheus_name("weird-name/x", prefix="") == "weird_name_x"

    def test_counters_get_total_suffix_and_type_line(self):
        text = render_prometheus(snapshot())
        assert "# TYPE repro_lp_iterations_total counter" in text
        assert "repro_lp_iterations_total 42" in text

    def test_gauges_render_verbatim(self):
        text = render_prometheus(snapshot())
        assert "# TYPE repro_sweep_completed_points gauge" in text
        assert "repro_sweep_completed_points 2" in text

    def test_histograms_become_summaries(self):
        text = render_prometheus(snapshot())
        metric = "repro_span_registry_solve_duration_s"
        assert f"# TYPE {metric} summary" in text
        assert f'{metric}{{quantile="0.5"}} 0.2' in text
        assert f'{metric}{{quantile="0.99"}} 0.3' in text
        assert f"{metric}_sum 0.8" in text
        assert f"{metric}_count 4" in text

    def test_empty_snapshot_renders_empty_document(self):
        assert render_prometheus(TelemetrySnapshot()) == "\n"

    def test_json_rendering_round_trips(self):
        doc = json.loads(render_metrics_json(snapshot()))
        assert doc["counters"]["lp.iterations"] == 42
        assert doc["histograms"]["span.registry.solve.duration_s"]["count"] == 4


class TestMetricsServer:
    def test_serves_prometheus_and_json(self):
        with MetricsServer(port=0, snapshot_fn=snapshot) as server:
            with urlopen(f"{server.url}/metrics", timeout=10) as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
            assert "repro_lp_iterations_total 42" in text
            doc = json.loads(
                urlopen(f"{server.url}/metrics.json", timeout=10).read()
            )
            assert doc["gauges"]["sweep.completed_points"] == 2.0

    def test_unknown_path_is_404(self):
        with MetricsServer(port=0, snapshot_fn=snapshot) as server:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{server.url}/nope", timeout=10)
            assert excinfo.value.code == 404

    def test_default_snapshot_fn_tracks_live_telemetry(self):
        tele = obs.enable()
        try:
            server = obs.start_metrics_server()
            try:
                before = urlopen(f"{server.url}/metrics", timeout=10).read().decode()
                tele.counter("live.updates", 5)
                after = urlopen(f"{server.url}/metrics", timeout=10).read().decode()
            finally:
                server.stop()
        finally:
            obs.disable()
        assert "repro_live_updates_total" not in before
        assert "repro_live_updates_total 5" in after

    def test_scrape_after_a_parallel_sweep_shows_its_aggregates(self):
        from repro.runtime import SolverRegistry
        from repro.runtime.sweep import SweepRunner
        from repro.scenarios import get_scenario

        populations = [2, 3, 4, 5]
        obs.enable()
        try:
            server = obs.start_metrics_server()
            try:
                SweepRunner(
                    registry=SolverRegistry(cache=None), cache_dir=None
                ).population_sweep(
                    get_scenario("fig5-case-study").network(2), populations,
                    method="lp", workers=2, cache=False,
                )
                text = urlopen(f"{server.url}/metrics", timeout=10).read().decode()
            finally:
                server.stop()
        finally:
            obs.disable()
        assert f"repro_sweep_completed_points {len(populations)}" in text
        assert "repro_lp_solves_total" in text
        assert "# TYPE repro_span_sweep_run_duration_s summary" in text
