"""JSON perf reporter: the machine-readable benchmark acceptance record.

Benchmarks record structured entries through the session-scoped
``perf_report`` fixture (see ``conftest.py``); at session end the reporter
writes ``BENCH_lp_scaling.json`` at the repository root (override with
``REPRO_BENCH_JSON``).  The file is the tracked perf baseline: every PR
that touches the LP kernel regenerates it via ``make bench-large``, and
``python -m repro.obs sentinel baseline`` gates it.

Any reporter failure (unserializable entry, unwritable path, an artifact
that fails :func:`repro.obs.sentinel.validate_artifact`) raises — the CI
bench job fails on reporter errors, never on timing noise.

Timing sources: entries that time *instrumented* code paths go through
:meth:`PerfReporter.record_snapshot`, which flattens a
:class:`repro.obs.TelemetrySnapshot` (span-duration histograms, counters)
into entry fields — one timing owner, no bespoke stopwatches.  Raw
``time.perf_counter()`` remains legitimate only for code the telemetry
layer cannot see: reference implementations and the
enabled-vs-disabled overhead harness itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
from pathlib import Path

from repro.obs.sentinel import ARTIFACT_SCHEMA_VERSION, validate_artifact

#: (M, N) of the ring-of-MAP(2) stress shape per preset.  "large" is the
#: paper's Section 2 claim: 10 MAP(2) queues at N = 50.
PRESETS = {"quick": (10, 25), "large": (10, 50)}


def bench_preset() -> str:
    """Active preset name from ``REPRO_BENCH_PRESET`` (default: quick)."""
    preset = os.environ.get("REPRO_BENCH_PRESET", "quick").lower()
    if preset not in PRESETS:
        raise ValueError(
            f"REPRO_BENCH_PRESET must be one of {sorted(PRESETS)}, got {preset!r}"
        )
    return preset


def default_report_path(
    benchmark: str = "lp_scaling", env_var: str = "REPRO_BENCH_JSON"
) -> Path:
    """Output path for the active preset (``env_var`` overrides).

    This is the artifact naming contract (shared with
    ``repro.obs.sentinel.benchmark_from_path``): the large preset writes
    the *canonical* tracked baseline ``BENCH_<benchmark>.json``; the
    quick preset always writes ``BENCH_<benchmark>.quick.json``, which
    ``.gitignore`` keeps untracked, so a quick run can never clobber the
    committed large-preset measurement.  CI runs the
    quick presets unpinned and gates the ``.quick.json`` outputs with
    ``python -m repro.obs sentinel baseline``; the env var remains an
    explicit escape hatch for tests and one-off comparisons.
    """
    env = os.environ.get(env_var)
    if env:
        return Path(env)
    name = (
        f"BENCH_{benchmark}.json"
        if bench_preset() == "large"
        else f"BENCH_{benchmark}.quick.json"
    )
    return Path(__file__).resolve().parent.parent / name


class PerfReporter:
    """Collects benchmark entries and writes the JSON artifact atomically."""

    def __init__(
        self,
        path: "Path | str | None" = None,
        benchmark: str = "lp_scaling",
    ) -> None:
        self.benchmark = benchmark
        self.path = (
            Path(path) if path is not None else default_report_path(benchmark)
        )
        self.entries: list[dict] = []

    def record(self, case: str, **fields) -> dict:
        """Append one entry; scalars only, non-finite floats are an error."""
        entry: dict = {"case": str(case)}
        for key, value in fields.items():
            if isinstance(value, bool) or value is None or isinstance(value, str):
                entry[key] = value
            elif isinstance(value, (int, float)):
                value = float(value) if isinstance(value, float) else int(value)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"perf entry {case!r}: field {key!r} is non-finite"
                    )
                entry[key] = value
            else:
                raise TypeError(
                    f"perf entry {case!r}: field {key!r} has unserializable "
                    f"type {type(value).__name__}"
                )
        self.entries.append(entry)
        return entry

    def record_snapshot(
        self, case: str, snapshot, spans=(), counters=(), **fields
    ) -> dict:
        """Record an entry whose timings come from a telemetry snapshot.

        For each name in ``spans`` the snapshot's
        ``span.<name>.duration_s`` histogram is flattened into
        ``t_<name>_s`` (total seconds) and ``n_<name>`` (call count);
        each name in ``counters`` is copied verbatim (dots mapped to
        underscores).  A missing span or counter raises — a bench asking
        for timings the instrumentation did not produce is a harness
        bug, not noise.  Extra ``fields`` ride along as in
        :meth:`record`.
        """
        extracted: dict = {}
        for name in spans:
            hist = snapshot.histograms.get(f"span.{name}.duration_s")
            if hist is None:
                raise KeyError(
                    f"perf entry {case!r}: snapshot has no span timings "
                    f"for {name!r}"
                )
            slug = name.replace(".", "_")
            extracted[f"t_{slug}_s"] = float(hist["sum"])
            extracted[f"n_{slug}"] = int(hist["count"])
        for name in counters:
            if name not in snapshot.counters:
                raise KeyError(
                    f"perf entry {case!r}: snapshot has no counter {name!r}"
                )
            extracted[name.replace(".", "_")] = snapshot.counters[name]
        return self.record(case, **extracted, **fields)

    def payload(self) -> dict:
        """The full JSON document."""
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "preset": bench_preset(),
            "python": platform.python_version(),
            "entries": list(self.entries),
        }

    def write(self) -> Path:
        """Serialize, write atomically, and validate what was written.

        The file is read back and checked against the shared envelope
        schema, so a malformed artifact fails when it is written, not
        when it is gated.
        """
        text = json.dumps(self.payload(), indent=2, allow_nan=False) + "\n"
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(text)
        tmp.replace(self.path)
        validate_artifact(json.loads(self.path.read_text()), source=str(self.path))
        return self.path
