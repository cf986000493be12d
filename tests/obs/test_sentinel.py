"""Regression sentinel: tolerance bands and declarative baseline gates."""

import json
from pathlib import Path

import pytest

from repro.obs.history import Ledger
from repro.obs.sentinel import (
    ASSEMBLY_SPEEDUP_GATE,
    INSTRUMENTATION_OVERHEAD_GATE,
    LP_PERSISTENT_SWEEP_GATE,
    check_artifact,
    check_baseline_gates,
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


@pytest.fixture()
def seeded(tmp_path):
    """A ledger holding one baseline snapshot of the demo benchmark."""
    ledger = Ledger(tmp_path / "perf")
    base = write(
        tmp_path / "BENCH_demo.quick.json",
        artifact(entries=[
            {"case": "solve", "t_wall_s": 1.0, "t_tiny_s": 0.001},
        ]),
    )
    ledger.ingest(base, rev="base", timestamp="2026-01-01T00:00:00Z")
    return ledger, tmp_path


class TestToleranceBands:
    def test_within_band_passes(self, seeded):
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[
                {"case": "solve", "t_wall_s": 1.3, "t_tiny_s": 0.0012},
            ]),
        )
        report = check_artifact(fresh, ledger)
        assert report.ok
        assert any("within band" in n for n in report.notes)

    def test_clear_slowdown_fails(self, seeded):
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[
                {"case": "solve", "t_wall_s": 2.2, "t_tiny_s": 0.001},
            ]),
        )
        report = check_artifact(fresh, ledger)
        assert not report.ok
        (msg,) = report.regressions
        assert "solve.t_wall_s" in msg and "@ base" in msg

    def test_relative_breach_below_floor_is_noise(self, seeded):
        # 10x slower but only +9ms: under the absolute floor, not a regression
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[
                {"case": "solve", "t_wall_s": 1.0, "t_tiny_s": 0.01},
            ]),
        )
        assert check_artifact(fresh, ledger).ok

    def test_absolute_excess_without_ratio_breach_is_noise(self, seeded):
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[
                {"case": "solve", "t_wall_s": 1.4, "t_tiny_s": 0.001},
            ]),
        )
        assert check_artifact(fresh, ledger).ok

    def test_unknown_case_is_a_note_not_a_failure(self, seeded):
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[{"case": "brand_new", "t_wall_s": 9.0}]),
        )
        report = check_artifact(fresh, ledger)
        assert report.ok
        assert any("no baseline" in n for n in report.notes)

    def test_unmodified_rerun_self_compares_within_band(self, seeded):
        ledger, tmp = seeded
        report = check_artifact(tmp / "BENCH_demo.quick.json", ledger)
        assert report.ok
        assert any("within band" in n for n in report.notes)

    def test_band_parameters_are_adjustable(self, seeded):
        ledger, tmp = seeded
        fresh = write(
            tmp / "BENCH_demo_f.quick.json",
            artifact(entries=[
                {"case": "solve", "t_wall_s": 1.3, "t_tiny_s": 0.001},
            ]),
        )
        assert not check_artifact(fresh, ledger, ratio=1.1, floor_s=0.0).ok


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
