"""The repository benchmark: two workloads over the solve path.

    python3 perfbench/run.py --workload solve-kernels --seed 1 --seconds 60 --trace 0

Run from anywhere; it measures the program under ``src/`` next to this
directory.  Workloads, metrics and their bounds are declared in
``BENCHMARK.json``; the cells of each workload are in ``cells.py``.

Each workload is a closed loop: one client process issues its cells back
to back.  ``--trace 0`` spawns fresh client processes (``worker.py``) one
after another for about ``--seconds``, each running the cold pass on an
empty disk cache, then set-up-only clients until there are five set-up
samples, and prints the end-to-end metrics: ``wall_norm_s`` is the cold
pass with each cell at its fastest among the clients (``best_pass``),
scaled to the host speed ``REF_NOMINAL_S`` stands for; ``setup_s`` and
``peak_rss_mb`` are medians over clients.  The unscaled pass (``wall_s``)
and the reference time are in the run summary.
``--trace 1`` runs one untraced cold client, one client that reruns the
cells on its cache (the disk replay), and one traced client that
re-drives the same cells layer by layer (``pipeline.py``), and prints the
per-layer metrics, per-cell solve and replay latency percentiles among
them.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every output check passed, 1 when a check failed,
and 2 when the benchmark could not run (no result is printed then).  A
summary with the environment fingerprint, and the spans of a traced run,
are written under ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cells as C  # noqa: E402

clock = time.perf_counter

#: Set-up samples per untraced run (extra set-up-only clients fill the gap).
MIN_SETUP_SAMPLES = 5

#: No client is started that could still be running past this many seconds.
RUN_BUDGET_S = 170.0

#: One BLAS/OpenMP thread per client: runs on a shared 2-core machine stay
#: comparable, and the closed loop is one client in one process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def environment() -> dict:
    """CPU, cores, thread settings and source revision of this run."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, timeout=10,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "git_rev": rev,
        "git_dirty_src": dirty,
    }


class Runner:
    """Spawns client processes for one workload and collects their reports."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.t_start = clock()
        self.n = 0
        self.env = {**os.environ, **THREAD_ENV}

    def elapsed(self) -> float:
        return clock() - self.t_start

    def spawn(self, mode: str, reuse: dict | None = None) -> dict:
        """Run one client; ``reuse`` (a cold client's report) gives a replay
        client that client's cache directory and payloads."""
        self.n += 1
        out = self.work / f"{mode}-{self.n}.json"
        cache = reuse["cache"] if reuse else str(self.work / f"cache-{self.n}")
        payloads = reuse["payloads"] if reuse else str(self.work / f"payloads-{self.n}.json")
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--cache", cache, "--payloads", payloads, "--out", str(out),
            *(["--tiny"] if self.args.tiny else []),
        ]
        timeout = RUN_BUDGET_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before a client could start")
        t_spawn = clock()
        try:
            proc = subprocess.run(
                cmd + ["--t-spawn", repr(t_spawn)],
                env=self.env, cwd=ROOT, stdout=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} client exceeded {timeout:.0f}s") from None
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{mode} client exited with code {proc.returncode}")
        report = json.loads(out.read_text())
        report.update(client_s=clock() - t_spawn, cache=cache, payloads=payloads)
        return report


#: Time of ``worker.reference_s`` on an unloaded 2-vCPU Xeon (2.1 GHz).
#: ``wall_norm_s`` is the cold pass scaled to a host running that fast.
REF_NOMINAL_S = 0.12


def best_pass(cold: list[dict]) -> float:
    """Cold-pass time with each cell at its fastest among the cold clients.

    The host's speed swings by up to 70% in episodes of 10-15 s, so the
    median of a few multi-second passes follows whichever episodes the run
    happened to hit.  A cell's fastest cold latency over clients spread
    across the run is the part of its cost the program owns; the sum over
    cells is the pass those latencies add up to.  Phases of a slower host
    that outlast a run remain; ``wall_norm_s`` divides them out with the
    fastest reference-kernel time of the same clients.
    """
    return sum(min(lat) for lat in zip(*(r["latencies"] for r in cold)))


def untraced(runner: Runner) -> tuple[dict, list[dict]]:
    """Cold clients while at least half of the next one fits in
    ``--seconds``, then set-up-only clients up to ``MIN_SETUP_SAMPLES``
    set-up samples.  A workload whose pass takes half the run still gets
    two passes, so each cell's fastest latency has two samples far apart."""
    args = runner.args
    cold: list[dict] = []
    while not cold or runner.elapsed() + 0.5 * cold[-1]["client_s"] <= args.seconds:
        cold.append(runner.spawn("cold"))
    setups = [r["setup_s"] for r in cold]
    want = 1 if args.tiny else MIN_SETUP_SAMPLES
    while len(setups) < want:
        setups.append(runner.spawn("setup")["setup_s"])
    wall = best_pass(cold)
    ref = min(r["ref_s"] for r in cold)
    metrics = {
        "setup_s": median(setups),
        "wall_norm_s": wall * REF_NOMINAL_S / ref,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in cold]),
        # not declared: kept in the run summary
        "wall_s": wall,
        "ref_s": ref,
    }
    return metrics, cold


def traced(runner: Runner) -> tuple[dict, list[dict]]:
    """An untraced cold client, a replay client on its cache (a rerun),
    and a traced client re-driving the same cells."""
    base = runner.spawn("cold")
    replay = runner.spawn("replay", reuse=base)
    tr = runner.spawn("traced")
    metrics = dict(tr["layers"])
    metrics.update(
        {
            "solve_p50_s": percentile(base["latencies"], 50),
            "solve_p90_s": percentile(base["latencies"], 90),
            "replay_p50_s": percentile(replay["replay_latencies"], 50),
            "replay_p90_s": percentile(replay["replay_latencies"], 90),
        }
    )
    metrics["bench.untraced_wall_s"] = base["wall_s"]
    metrics["bench.ref_s"] = base["ref_s"]
    metrics["bench.trace_overhead_frac"] = (tr["wall_s"] - base["wall_s"]) / base["wall_s"]
    # The re-drive must compute what the registry computed: the same cache
    # key and payload shape, and the same numbers to the reference tolerance.
    for cell_id, (key, shape, floats) in base["signatures"].items():
        got = tr["signatures"].get(cell_id)
        if (
            got is None
            or got[:2] != [key, shape]
            or len(got[2]) != len(floats)
            or not all(map(C.close, got[2], floats, [C.REF_RTOL] * len(floats)))
        ):
            tr["failed"].setdefault(cell_id, []).append(
                "traced re-drive differs from the registry solve"
            )
    return metrics, [base, replay, tr]


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(C.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny cells, for the self-test (not a measurement)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: the program (src/repro) or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".perfbench-runs"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Byte-compile once up front: first-import compilation is not set-up
    # time users pay on every run.
    compileall.compile_dir(ROOT / "src", quiet=1)
    runner = Runner(args, work)
    try:
        if args.trace:
            metrics, reports = traced(runner)
        else:
            metrics, reports = untraced(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = {}
    for r in reports:
        for cell_id, problems in r["failed"].items():
            failed.setdefault(cell_id, []).extend(problems)
    attempted = sum(r["attempted"] for r in reports)
    n_failed = sum(len(r["failed"]) for r in reports)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2

    env = {**environment(), **reports[-1]["libs"]}
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": env, "metrics": metrics,
        "failed": failed,
        "clients": [
            {k: r.get(k) for k in ("mode", "setup_s", "wall_s", "client_s", "peak_rss_mb",
                                   "latencies", "replay_latencies")}
            for r in reports
        ],
    }
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            fh.write(json.dumps({"type": "header", "workload": args.workload,
                                 "seed": args.seed, "env": env}) + "\n")
            for span in reports[-1]["spans"]:
                fh.write(json.dumps({"type": "span", **span}) + "\n")
    for cell_id, problems in failed.items():
        print(f"FAILED {cell_id}: {'; '.join(problems)}")
    print("env " + json.dumps(env, sort_keys=True))
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
