"""Self-test of the repository benchmark, at tiny sizes (about a minute).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_emits_every_declared_metric(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_every_per_layer_metric_names_what_it_moves():
    mapping = json.loads((HERE / "layers.json").read_text())["layers"]
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]} | {"all"}
    assert all(entry["on"] in workloads for entry in mapping.values())


def test_injected_slowdown_moves_only_its_layer(monkeypatch, tmp_path):
    import cells as C
    from pipeline import Pipeline, Tracer
    from repro.markov import ctmc

    cells = [
        c for c in C.cells_for("solve-kernels", seed=0, tiny=True)
        if c.method in ("exact", "transient")
    ]
    runs = iter(range(100))
    real = ctmc.steady_state_ctmc

    def twice_as_slow(*args, **kwargs):
        t0 = time.perf_counter()
        out = real(*args, **kwargs)
        time.sleep(time.perf_counter() - t0)
        return out

    def self_times(slow: bool) -> dict:
        monkeypatch.setattr(ctmc, "steady_state_ctmc", twice_as_slow if slow else real)
        tracer = Tracer()
        pipe = Pipeline(tracer, tmp_path / f"cache-{next(runs)}")
        with tracer.span("bench.pass"):
            for cell in cells:
                pipe.solve(cell)
        return tracer.self_times()

    self_times(False)  # imports and lazy set-up are not part of the comparison
    # Alternate the two sides and compare medians: the layers here take tens
    # of milliseconds, where one run on a shared machine can be 30% off.
    pairs = [(self_times(False), self_times(True)) for _ in range(5)]
    base = {k: statistics.median(b[k] for b, _ in pairs) for k in pairs[0][0]}
    slowed = {k: statistics.median(s[k] for _, s in pairs) for k in pairs[0][0]}
    added = slowed["markov.ctmc"] - base["markov.ctmc"]
    assert added >= 0.7 * base["markov.ctmc"]
    for name, t in base.items():
        if name != "markov.ctmc":
            assert abs(slowed[name] - t) <= 0.25 * added + 0.2 * t + 0.002, name
