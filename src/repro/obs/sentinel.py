"""The ``BENCH_*.json`` artifact envelope and its invariant gates.

The benches write their acceptance records through
``benchmarks/bench_reporting.py``: ``BENCH_lp_scaling.json`` (the
paper's 10 MAP(2) queues at N = 50), ``BENCH_transient.json``,
``BENCH_fluid.json`` and ``BENCH_kron.json``.  This module is the one
definition of such a file:

* :func:`validate_artifact` — the envelope schema every artifact obeys;
* :func:`benchmark_from_path` — the naming contract:
  ``BENCH_<name>.json`` is the committed large-preset record,
  ``BENCH_<name>.quick.json`` a quick-preset run (gitignored);
* :func:`check_baseline_gates` — the per-benchmark invariant gates
  (:data:`BASELINE_GATES`), run by ``python -m repro.obs sentinel
  baseline``.  They are the declarative port of the per-bench assertions
  CI used to carry as inline python heredocs: required cases present,
  deterministic counters in range, speedup factors above their floors.
  Deterministic facts are checked on every preset; wall-clock claims
  only on the large preset, and quick artifacts therefore pass trivially
  where only timing gates exist.

Each threshold is defined once, here; the benches import it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ARTIFACT_PRESETS",
    "ARTIFACT_SCHEMA_VERSION",
    "ASSEMBLY_SPEEDUP_GATE",
    "BASELINE_GATES",
    "INSTRUMENTATION_OVERHEAD_GATE",
    "KRON_MEMORY_WIN_GATE",
    "LP_PERSISTENT_SWEEP_GATE",
    "SentinelReport",
    "TRANSIENT_REUSE_GATE",
    "benchmark_from_path",
    "check_baseline_gates",
    "validate_artifact",
]

#: Envelope schema version; ``benchmarks/bench_reporting.py`` writes it.
ARTIFACT_SCHEMA_VERSION = 1

#: Presets a valid artifact may declare.
ARTIFACT_PRESETS = ("quick", "large")

_SCALAR_TYPES = (bool, int, float, str, type(None))

#: Least matvec speedup of one shared transient sweep over a 50-point grid
#: against 50 single-point sweeps (matvec counts are deterministic).
TRANSIENT_REUSE_GATE = 5.0

#: Least operator-vs-CSR memory win of the Kronecker backend, by the
#: artifact's preset.  The operator's floor is its cached closed-form
#: diagonal, so the win is capped by the per-state CSR fill of each
#: preset's ring shape (~13x at the large one); each gate sits just under
#: that ceiling.
KRON_MEMORY_WIN_GATE = {"quick": 4.0, "large": 10.0}

#: Least wall-clock speedup of the large M = 10 ``lp_persistent_sweep``:
#: the persistent engine at the auto method (interior point at this size)
#: against stateless dual simplex.  Most of the win is the method, not
#: persistence (see docs/performance.md, "The LP solve path").
LP_PERSISTENT_SWEEP_GATE = 3.0

#: Least speedup of the vectorized constraint assembly over the seed
#: row-wise emitter at the large preset (the paper's 10 queues, N = 50).
ASSEMBLY_SPEEDUP_GATE = 5.0

#: Most wall-clock overhead of telemetry plus the flight recorder on the
#: large M = 3, N = 50 LP solve: the median over alternating
#: enabled/disabled pairs.
INSTRUMENTATION_OVERHEAD_GATE = 0.05


@dataclass
class SentinelReport:
    """Outcome of one sentinel run: per-case findings plus verdict."""

    source: str
    regressions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no regression (notes alone never fail the gate)."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable multi-line summary (CLI output)."""
        lines = [f"sentinel: {self.source}"]
        lines += [f"  REGRESSION {msg}" for msg in self.regressions]
        lines += [f"  {msg}" for msg in self.notes]
        lines.append(
            f"  verdict: {'FAIL' if self.regressions else 'PASS'} "
            f"({len(self.regressions)} regression(s))"
        )
        return "\n".join(lines)


def benchmark_from_path(path: "Path | str") -> str:
    """Benchmark name encoded in an artifact filename.

    ``BENCH_lp_scaling.json`` and ``BENCH_lp_scaling.quick.json`` both
    map to ``lp_scaling``.  Raises :class:`ValueError` for filenames
    outside the ``BENCH_<name>[.quick].json`` contract.
    """
    name = Path(path).name
    if not (name.startswith("BENCH_") and name.endswith(".json")):
        raise ValueError(f"not a BENCH_*.json artifact name: {name!r}")
    stem = name[len("BENCH_") : -len(".json")]
    if stem.endswith(".quick"):
        stem = stem[: -len(".quick")]
    if not stem:
        raise ValueError(f"artifact name has an empty benchmark: {name!r}")
    return stem


def validate_artifact(payload: dict, *, source: str = "artifact") -> dict:
    """Check one bench artifact against the shared envelope schema.

    The envelope is ``{"schema": 1, "benchmark": str, "preset":
    "quick"|"large", "python": str, "entries": [{"case": str, ...scalar
    fields...}]}`` with every float finite.  Raises :class:`ValueError`
    naming ``source`` on the first violation; returns ``payload`` so the
    call composes (``validate_artifact(json.load(f))``).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: artifact must be a JSON object")
    if payload.get("schema") != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{source}: schema must be {ARTIFACT_SCHEMA_VERSION}, "
            f"got {payload.get('schema')!r}"
        )
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise ValueError(f"{source}: benchmark must be a non-empty string")
    if payload.get("preset") not in ARTIFACT_PRESETS:
        raise ValueError(
            f"{source}: preset must be one of {ARTIFACT_PRESETS}, "
            f"got {payload.get('preset')!r}"
        )
    if not isinstance(payload.get("python"), str):
        raise ValueError(f"{source}: python must be a version string")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{source}: entries must be a non-empty list")
    for i, entry in enumerate(entries):
        where = f"{source}: entries[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        case = entry.get("case")
        if not isinstance(case, str) or not case:
            raise ValueError(f"{where} must have a non-empty 'case'")
        for key, value in entry.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise ValueError(
                    f"{where} field {key!r} has non-scalar type "
                    f"{type(value).__name__}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{where} field {key!r} is non-finite")
    return payload


# -- declarative baseline gates (the former CI heredocs) -------------------


def _entry(payload: dict, case: str) -> "dict | None":
    """First entry of ``case`` in an artifact, or ``None``."""
    return next((e for e in payload["entries"] if e["case"] == case), None)


def _require_cases(payload: dict, cases: set[str]) -> list[str]:
    """Failure messages for any required case missing from the artifact."""
    have = {e["case"] for e in payload["entries"]}
    return [f"missing required case {c!r}" for c in sorted(cases - have)]


def _gates_lp_scaling(payload: dict) -> list[str]:
    """LP benchmark invariants (speedups large-only, evidence any preset)."""
    fails = _require_cases(
        payload,
        {
            "lp_scaling",
            "assembly_speedup",
            "lp_persistent",
            "lp_persistent_sweep",
            "instrumentation_overhead",
        },
    )
    if fails:
        return fails
    for e in payload["entries"]:
        if e["case"] == "lp_scaling" and not (
            e.get("method_used") and e.get("lp_iterations", 0) > 0
        ):
            fails.append(f"lp_scaling entry lacks solve evidence: {e}")
    if payload["preset"] == "large":
        sweep = _entry(payload, "lp_persistent_sweep")
        if sweep.get("sweep_speedup", 0.0) < LP_PERSISTENT_SWEEP_GATE:
            fails.append(
                f"persistent sweep speedup {sweep.get('sweep_speedup')!r} "
                f"< {LP_PERSISTENT_SWEEP_GATE}"
            )
        assembly = _entry(payload, "assembly_speedup")
        if assembly.get("speedup", 0.0) < ASSEMBLY_SPEEDUP_GATE:
            fails.append(
                f"assembly speedup {assembly.get('speedup')!r} "
                f"< {ASSEMBLY_SPEEDUP_GATE}"
            )
        overhead = _entry(payload, "instrumentation_overhead")
        if not overhead.get("overhead_frac", 1.0) <= INSTRUMENTATION_OVERHEAD_GATE:
            fails.append(
                f"instrumentation overhead {overhead.get('overhead_frac')!r} "
                f"> {INSTRUMENTATION_OVERHEAD_GATE}"
            )
        for e in payload["entries"]:
            if e["case"] == "lp_persistent" and not (
                e.get("cold_iterations", 0) > 0 and e.get("warm_iterations", 0) > 0
            ):
                fails.append(f"lp_persistent entry lacks iteration evidence: {e}")
    return fails


def _gates_transient(payload: dict) -> list[str]:
    """Transient benchmark invariants (matvec counts are deterministic)."""
    fails = _require_cases(
        payload, {"transient_grid_reuse", "transient_registry_cache"}
    )
    if fails:
        return fails
    reuse = _entry(payload, "transient_grid_reuse")
    if reuse.get("matvec_speedup", 0.0) < TRANSIENT_REUSE_GATE:
        fails.append(
            f"grid-reuse matvec speedup {reuse.get('matvec_speedup')!r} "
            f"< {TRANSIENT_REUSE_GATE}"
        )
    return fails


def _gates_fluid(payload: dict) -> list[str]:
    """Fluid-tier invariants (million-user wall clock large-only)."""
    fails = _require_cases(
        payload, {"fluid_million", "fluid_small_agreement", "fluid_convergence"}
    )
    if fails:
        return fails
    million = _entry(payload, "fluid_million")
    if million.get("states_enumerated"):
        fails.append(f"fluid solve enumerated the CTMC state space: {million}")
    small = _entry(payload, "fluid_small_agreement")
    if not small.get("max_rel_error", 1.0) <= 1e-3:
        fails.append(f"small-N exactness margin lost: {small}")
    conv = _entry(payload, "fluid_convergence")
    if not (
        conv.get("monotone")
        and conv.get("gap_last", 1.0) < conv.get("gap_first", 0.0)
    ):
        fails.append(f"doubling-population convergence lost: {conv}")
    if payload["preset"] == "large":
        if million.get("population") != 1_000_000:
            fails.append(f"large fluid artifact is not the million-user run: {million}")
        if not million.get("saturated"):
            fails.append(f"million-user scenario no longer saturated: {million}")
        if not million.get("t_wall_s", 1e9) < 30.0:
            fails.append(f"million-user solve over the 30s ceiling: {million}")
        if not million.get("fluid_dim", 1e9) < 10:
            fails.append(f"fluid dimension blew up: {million}")
    return fails


def _gates_kron(payload: dict) -> list[str]:
    """Kronecker-backend invariants (memory win is deterministic)."""
    fails = _require_cases(payload, {"kron_memory_win", "kron_registry_solves"})
    if fails:
        return fails
    win = _entry(payload, "kron_memory_win")
    gate = KRON_MEMORY_WIN_GATE[payload["preset"]]
    if win.get("memory_win_factor", 0.0) < gate:
        fails.append(
            f"operator-vs-CSR memory win {win.get('memory_win_factor')!r} < {gate}"
        )
    solves = _entry(payload, "kron_registry_solves")
    if solves.get("backend") not in ("auto", "operator"):
        fails.append(f"registry dispatched an unexpected backend: {solves}")
    return fails


#: Per-benchmark invariant checks; each maps an artifact payload to a
#: list of failure strings (empty = pass).  Benchmarks without an entry
#: are schema-validated only.
BASELINE_GATES = {
    "lp_scaling": _gates_lp_scaling,
    "transient": _gates_transient,
    "fluid": _gates_fluid,
    "kron": _gates_kron,
}


def check_baseline_gates(artifact_path: "Path | str") -> SentinelReport:
    """Run the declarative invariant gates over one artifact.

    Checks the naming contract and the envelope, then applies the
    benchmark's :data:`BASELINE_GATES` entry.  Raises
    :class:`ValueError` for a file outside the contract, an invalid
    envelope, or a ``BENCH_<name>`` whose ``<name>`` is not the
    artifact's ``benchmark`` (it would be gated as the wrong benchmark).
    Unknown benchmarks pass with a note — a new bench gets schema
    validation for free and adds its gates here when it has invariants
    worth enforcing.
    """
    path = Path(artifact_path)
    name = benchmark_from_path(path)
    payload = validate_artifact(
        json.loads(path.read_text()), source=path.name
    )
    if payload["benchmark"] != name:
        raise ValueError(
            f"{path.name}: file name says benchmark {name!r}, "
            f"the artifact says {payload['benchmark']!r}"
        )
    report = SentinelReport(source=path.name)
    gate = BASELINE_GATES.get(payload["benchmark"])
    if gate is None:
        report.notes.append(
            f"no baseline gates registered for benchmark "
            f"{payload['benchmark']!r} (schema-validated only)"
        )
        return report
    report.regressions.extend(gate(payload))
    if report.ok:
        report.notes.append(
            f"baseline gates OK ({payload['benchmark']}, "
            f"preset={payload['preset']}, {len(payload['entries'])} entries)"
        )
    return report
