"""The BENCH artifact envelope, its naming contract, and the baseline gates."""

import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.sentinel import (
    ASSEMBLY_SPEEDUP_GATE,
    BASELINE_GATES,
    INSTRUMENTATION_OVERHEAD_GATE,
    LP_PERSISTENT_SWEEP_GATE,
    benchmark_from_path,
    check_baseline_gates,
    validate_artifact,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def artifact(benchmark="demo", preset="quick", entries=None):
    if entries is None:
        entries = [{"case": "solve", "t_wall_s": 0.5}]
    return {
        "schema": 1,
        "benchmark": benchmark,
        "preset": preset,
        "python": "3.11.7",
        "entries": entries,
    }


def write(path: Path, payload: dict) -> Path:
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
    def test_benchmark_parsing(self):
        assert benchmark_from_path("BENCH_lp_scaling.json") == "lp_scaling"
        assert benchmark_from_path("a/b/BENCH_lp_scaling.quick.json") == "lp_scaling"

    @pytest.mark.parametrize("name", ["results.json", "BENCH_.json", "BENCH_x.txt"])
    def test_off_contract_names_raise(self, name):
        with pytest.raises(ValueError):
            benchmark_from_path(name)


class TestBaselineGates:
    def test_all_committed_artifacts_pass(self):
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            report = check_baseline_gates(path)
            assert report.ok, report.render()

    def test_unknown_benchmark_passes_with_note(self, tmp_path):
        path = write(tmp_path / "BENCH_novel.quick.json", artifact("novel"))
        report = check_baseline_gates(path)
        assert report.ok
        assert any("no baseline gates" in n for n in report.notes)

    def test_transient_speedup_floor_enforced_on_any_preset(self, tmp_path):
        path = write(
            tmp_path / "BENCH_transient.quick.json",
            artifact("transient", entries=[
                {"case": "transient_grid_reuse", "matvec_speedup": 2.0},
                {"case": "transient_registry_cache", "t_solve_s": 0.1},
            ]),
        )
        report = check_baseline_gates(path)
        assert not report.ok
        assert "matvec speedup" in report.regressions[0]

    def test_missing_required_case_fails(self, tmp_path):
        path = write(
            tmp_path / "BENCH_kron.quick.json",
            artifact("kron", entries=[
                {"case": "kron_memory_win", "memory_win_factor": 9.0},
            ]),
        )
        report = check_baseline_gates(path)
        assert not report.ok
        assert "kron_registry_solves" in report.regressions[0]

    def test_kron_memory_win_gate_follows_preset(self, tmp_path):
        entries = [
            {"case": "kron_memory_win", "memory_win_factor": 9.0},
            {"case": "kron_registry_solves", "backend": "operator"},
        ]
        quick = write(
            tmp_path / "BENCH_kron.quick.json", artifact("kron", "quick", entries)
        )
        assert check_baseline_gates(quick).ok  # 9x clears the quick gate
        large = write(tmp_path / "BENCH_kron.json", artifact("kron", "large", entries))
        report = check_baseline_gates(large)
        assert not report.ok
        assert "memory win 9.0 < 10.0" in report.regressions[0]

    def test_fluid_wall_clock_gate_is_large_only(self, tmp_path):
        entries = [
            {"case": "fluid_million", "states_enumerated": False,
             "population": 100_000, "saturated": True, "t_wall_s": 500.0,
             "fluid_dim": 6},
            {"case": "fluid_small_agreement", "max_rel_error": 1e-9},
            {"case": "fluid_convergence", "monotone": True,
             "gap_first": 0.4, "gap_last": 0.1},
        ]
        quick = write(
            tmp_path / "BENCH_fluid.quick.json",
            artifact("fluid", "quick", entries),
        )
        assert check_baseline_gates(quick).ok  # slow wall clock: quick ignores
        large = write(
            tmp_path / "BENCH_fluid.json", artifact("fluid", "large", entries)
        )
        report = check_baseline_gates(large)
        assert not report.ok  # not the million-user run, over the ceiling
        assert any("million" in m for m in report.regressions)

    def test_fluid_state_enumeration_tripwire_on_any_preset(self, tmp_path):
        path = write(
            tmp_path / "BENCH_fluid.quick.json",
            artifact("fluid", entries=[
                {"case": "fluid_million", "states_enumerated": True},
                {"case": "fluid_small_agreement", "max_rel_error": 1e-9},
                {"case": "fluid_convergence", "monotone": True,
                 "gap_first": 0.4, "gap_last": 0.1},
            ]),
        )
        report = check_baseline_gates(path)
        assert not report.ok
        assert "enumerated" in report.regressions[0]

    def test_lp_large_warm_start_evidence_required(self, tmp_path):
        entries = [
            {"case": "lp_scaling", "method_used": "lp", "lp_iterations": 10},
            {"case": "assembly_speedup", "speedup": 6.0},
            {"case": "lp_persistent", "cold_iterations": 5, "warm_iterations": 0},
            {"case": "lp_persistent_sweep", "sweep_speedup": 4.0},
            {"case": "instrumentation_overhead", "overhead_frac": 0.01},
        ]
        large = write(
            tmp_path / "BENCH_lp_scaling.json",
            artifact("lp_scaling", "large", entries),
        )
        report = check_baseline_gates(large)
        assert not report.ok
        assert "lacks iteration evidence" in report.regressions[0]
        quick = write(
            tmp_path / "BENCH_lp_scaling.quick.json",
            artifact("lp_scaling", "quick", entries),
        )
        assert check_baseline_gates(quick).ok

    def test_lp_large_thresholds_enforced(self, tmp_path):
        entries = [
            {"case": "lp_scaling", "method_used": "lp", "lp_iterations": 10},
            {"case": "assembly_speedup", "speedup": ASSEMBLY_SPEEDUP_GATE - 0.1},
            {"case": "lp_persistent", "cold_iterations": 5, "warm_iterations": 2},
            {"case": "lp_persistent_sweep",
             "sweep_speedup": LP_PERSISTENT_SWEEP_GATE - 0.1},
            {"case": "instrumentation_overhead",
             "overhead_frac": INSTRUMENTATION_OVERHEAD_GATE + 0.01},
        ]
        large = write(
            tmp_path / "BENCH_lp_scaling.json",
            artifact("lp_scaling", "large", entries),
        )
        fails = check_baseline_gates(large).regressions
        assert len(fails) == 3
        assert any("persistent sweep speedup" in m for m in fails)
        assert any("assembly speedup" in m for m in fails)
        assert any("instrumentation overhead" in m for m in fails)
        quick = write(
            tmp_path / "BENCH_lp_scaling.quick.json",
            artifact("lp_scaling", "quick", entries),
        )
        assert check_baseline_gates(quick).ok  # timing gates are large-only


class TestBaselineCLI:
    """``python -m repro.obs sentinel baseline`` exit codes."""

    def test_committed_artifacts_exit_zero(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        paths = [f"BENCH_{name}.json" for name in BASELINE_GATES]
        assert main(["sentinel", "baseline", *paths]) == 0

    def test_no_artifact_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sentinel", "baseline"]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_failing_gate_exits_one(self, tmp_path, monkeypatch, capsys):
        write(
            tmp_path / "BENCH_transient.quick.json",
            artifact("transient", entries=[
                {"case": "transient_grid_reuse", "matvec_speedup": 2.0},
                {"case": "transient_registry_cache", "t_solve_s": 0.1},
            ]),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["sentinel", "baseline"]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, match",
        [
            # a kron artifact saved as the fluid record would otherwise be
            # gated as kron, and the fluid gates would never run
            ("BENCH_fluid.json", "'fluid'.*'kron'"),
            ("kron.json", "not a BENCH_"),
        ],
    )
    def test_misnamed_artifact_raises(self, tmp_path, name, match):
        kron = json.loads((REPO_ROOT / "BENCH_kron.json").read_text())
        path = write(tmp_path / name, kron)
        with pytest.raises(ValueError, match=match):
            main(["sentinel", "baseline", str(path)])
