"""Perf-history ledger: schema validation, ingestion, trajectory queries."""

import json
from pathlib import Path

import pytest

from repro.obs.history import (
    Ledger,
    artifact_kind,
    benchmark_from_path,
    current_git_rev,
    render_diff,
    render_show,
    render_trend,
    timing_fields,
    validate_artifact,
)
from repro.obs.sentinel import BASELINE_GATES

REPO_ROOT = Path(__file__).resolve().parents[2]


def artifact(benchmark="demo", preset="quick", entries=None):
    """A minimal valid artifact payload."""
    if entries is None:
        entries = [{"case": "solve", "t_wall_s": 0.5, "iterations": 12}]
    return {
        "schema": 1,
        "benchmark": benchmark,
        "preset": preset,
        "python": "3.11.7",
        "entries": entries,
    }


def write_artifact(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


class TestValidateArtifact:
    def test_valid_payload_passes_through(self):
        payload = artifact()
        assert validate_artifact(payload) is payload

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.update(schema=2), "schema"),
            (lambda p: p.update(benchmark=""), "benchmark"),
            (lambda p: p.update(preset="huge"), "preset"),
            (lambda p: p.update(python=None), "python"),
            (lambda p: p.update(entries=[]), "entries"),
            (lambda p: p["entries"][0].pop("case"), "case"),
            (lambda p: p["entries"][0].update(bad=[1, 2]), "non-scalar"),
            (lambda p: p["entries"][0].update(t_x_s=float("inf")), "non-finite"),
        ],
    )
    def test_violations_raise_with_source(self, mutate, match):
        payload = artifact()
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_artifact(payload, source="BENCH_demo.json")

    def test_all_committed_artifacts_validate(self):
        # A named set, not a file count: the ``BENCH_*.quick.json`` CI
        # artifacts are gitignored, so what is on disk varies by checkout.
        for name in BASELINE_GATES:
            path = REPO_ROOT / f"BENCH_{name}.json"
            payload = validate_artifact(json.loads(path.read_text()), source=path.name)
            assert payload["benchmark"] == benchmark_from_path(path) == name


class TestNamingContract:
    def test_quick_vs_canonical(self):
        assert artifact_kind("BENCH_kron.quick.json") == "quick"
        assert artifact_kind("BENCH_kron.json") == "canonical"

    def test_benchmark_parsing(self):
        assert benchmark_from_path("BENCH_lp_scaling.json") == "lp_scaling"
        assert benchmark_from_path("a/b/BENCH_lp_scaling.quick.json") == "lp_scaling"

    @pytest.mark.parametrize("name", ["results.json", "BENCH_.json", "BENCH_x.txt"])
    def test_off_contract_names_raise(self, name):
        with pytest.raises(ValueError):
            benchmark_from_path(name)

    def test_timing_fields_selects_the_t_s_convention(self):
        fields = {"t_wall_s": 1.5, "t_solve_s": 2, "iterations": 9,
                  "saturated": True, "method": "lp", "t_flag_s": False}
        assert timing_fields(fields) == {"t_wall_s": 1.5, "t_solve_s": 2.0}


class TestLedger:
    def test_ingest_appends_one_record_per_entry(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        path = write_artifact(
            tmp_path / "BENCH_demo.quick.json",
            artifact(entries=[
                {"case": "a", "t_wall_s": 0.1},
                {"case": "b", "t_wall_s": 0.2},
            ]),
        )
        assert ledger.ingest(path, rev="abc", timestamp="2026-01-01T00:00:00Z") == 2
        recs = ledger.records()
        assert [r["case"] for r in recs] == ["a", "b"]
        assert all(r["benchmark"] == "demo" and r["rev"] == "abc" for r in recs)
        assert recs[0]["fields"] == {"t_wall_s": 0.1}

    def test_reingest_identical_content_is_a_noop(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        path = write_artifact(tmp_path / "BENCH_demo.quick.json", artifact())
        assert ledger.ingest(path) == 1
        assert ledger.ingest(path) == 0
        assert len(ledger.records()) == 1

    def test_repeated_case_names_get_case_index(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        path = write_artifact(
            tmp_path / "BENCH_demo.quick.json",
            artifact(entries=[
                {"case": "point", "t_wall_s": 0.1},
                {"case": "point", "t_wall_s": 0.2},
            ]),
        )
        ledger.ingest(path)
        assert [r["case_index"] for r in ledger.records()] == [0, 1]

    def test_corrupt_artifact_never_reaches_the_store(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        bad = artifact()
        bad["entries"] = []
        path = write_artifact(tmp_path / "BENCH_demo.quick.json", bad)
        with pytest.raises(ValueError):
            ledger.ingest(path)
        assert ledger.records() == []

    def test_baseline_for_latest_and_exclusion(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        p1 = write_artifact(
            tmp_path / "BENCH_demo.quick.json",
            artifact(entries=[{"case": "solve", "t_wall_s": 0.1}]),
        )
        ledger.ingest(p1, timestamp="2026-01-01T00:00:00Z")
        p2 = write_artifact(
            tmp_path / "BENCH_demo2.quick.json",
            artifact(entries=[{"case": "solve", "t_wall_s": 0.3}]),
        )
        ledger.ingest(p2, timestamp="2026-01-02T00:00:00Z")
        latest = ledger.baseline_for("demo", "quick", "solve")
        assert latest["fields"]["t_wall_s"] == 0.3
        previous = ledger.baseline_for(
            "demo", "quick", "solve", exclude_sha=latest["artifact_sha"]
        )
        assert previous["fields"]["t_wall_s"] == 0.1
        assert ledger.baseline_for("demo", "large", "solve") is None

    def test_ingest_directory_is_idempotent(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        write_artifact(tmp_path / "BENCH_a.quick.json", artifact("a"))
        write_artifact(tmp_path / "BENCH_b.quick.json", artifact("b"))
        first = ledger.ingest_directory(tmp_path)
        assert first == {"BENCH_a.quick.json": 1, "BENCH_b.quick.json": 1}
        again = ledger.ingest_directory(tmp_path)
        assert set(again.values()) == {0}

    def test_current_git_rev_in_this_repo(self):
        rev = current_git_rev(REPO_ROOT)
        assert rev and rev != "unknown"


class TestRendering:
    def _two_snapshot_ledger(self, tmp_path):
        ledger = Ledger(tmp_path / "perf")
        for day, t in (("01", 0.1), ("02", 0.25)):
            path = write_artifact(
                tmp_path / f"BENCH_demo_{day}.quick.json",
                {**artifact("demo"), "entries": [
                    {"case": "solve", "t_wall_s": t, "iterations": 12},
                ]},
            )
            ledger.ingest(
                path, rev=f"rev{day}", timestamp=f"2026-01-{day}T00:00:00Z"
            )
        return ledger

    def test_show_renders_every_benchmark(self, tmp_path):
        ledger = self._two_snapshot_ledger(tmp_path)
        out = render_show(ledger)
        assert "demo [quick]" in out and "2 snapshot(s)" in out
        assert "solve: t_wall_s=0.25s" in out

    def test_show_on_empty_ledger(self, tmp_path):
        assert "empty" in render_show(Ledger(tmp_path / "perf"))

    def test_diff_reports_ratio(self, tmp_path):
        ledger = self._two_snapshot_ledger(tmp_path)
        out = render_diff(ledger, "demo")
        assert "rev01" in out and "rev02" in out
        assert "solve.t_wall_s: 0.1 -> 0.25 (2.50x)" in out

    def test_trend_lists_every_point(self, tmp_path):
        ledger = self._two_snapshot_ledger(tmp_path)
        out = render_trend(ledger, "demo", "solve", "t_wall_s")
        assert out.count("@ rev") == 2
