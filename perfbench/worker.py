"""One benchmark client process: set up, run one pass set, report as JSON.

Spawned by ``run.py``; not meant to be run by hand.  Modes:

``setup``   import the program, load the catalog, build a registry on an
            empty cache directory, and stop (a set-up time sample).
``cold``    the untraced cold pass: every cell through
            ``SolverRegistry.solve`` on an empty disk cache.
``replay``  a rerun on a cache a cold client filled: replay passes, each
            through a new registry on that directory, for a few seconds.
``traced``  the same cells re-driven layer by layer (``pipeline.py``): a
            cold pass, a disk replay pass and a memory-tier pass, then the
            rmatvec probe; the spans, kept in memory, go out in the report.

Set-up time runs from the parent's spawn timestamp (``--t-spawn``, taken
from the same monotonic clock) to the moment the first solve can be issued.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import cells as C

clock = time.perf_counter

#: Replay time per replay client: workloads with few cells replay them
#: repeatedly, and each cell's replay latency is the median of its repeats,
#: so the percentiles over cells do not jump between cells of different cost.
MIN_REPLAY_S = 2.0


def _signature(payload: dict) -> list:
    """``[shape digest, float leaves]`` of a payload without its timings
    (``wall_time_s``, ``extra["t_*_s"]``).

    Floats are compared with a tolerance rather than hashed: the transient
    engine's expm fallback estimates norms from random vectors, so its last
    bits differ from process to process.
    """
    floats: list[float] = []

    def walk(v):
        if isinstance(v, float):
            floats.append(v)
            return "f"
        if isinstance(v, dict):
            return {k: walk(v[k]) for k in sorted(v)}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v

    body = {k: v for k, v in payload.items() if k != "wall_time_s"}
    body["extra"] = {
        k: v for k, v in body["extra"].items()
        if not (k.startswith("t_") and k.endswith("_s"))
    }
    shape = json.dumps(walk(body))
    return [hashlib.sha256(shape.encode()).hexdigest()[:16], floats]


def reference_s() -> float:
    """Time of a fixed kernel mix owned by the benchmark, not the program:
    an interpreter loop, a dense LU and a small HiGHS LP, the kinds of work
    the solve paths do, each at its fastest of five repeats.

    Run in every cold client right after its pass, it tells how fast the
    host was in that run; ``run.py`` scales the pass by it.
    """
    import numpy as np
    import scipy.linalg
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    dense = rng.random((600, 600))
    A_ub = rng.random((200, 400))
    b_ub = 0.5 * A_ub.sum(axis=1)
    cost = -rng.random(400)

    def interpreter():
        s = 0
        for i in range(1_000_000):
            s += i * i % 7

    parts = (
        interpreter,
        lambda: scipy.linalg.lu_factor(dense),
        lambda: linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, 1), method="highs"),
    )
    total = 0.0
    for part in parts:
        reps = []
        for _ in range(5):
            t0 = clock()
            part()
            reps.append(clock() - t0)
        total += min(reps)
    return total


def _same(a: dict, b: dict) -> bool:
    # JSON text, not ==: NaN payload entries must compare equal to themselves
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class Checker:
    """Runs the output checks and counts failed cells."""

    def __init__(self, refs: dict) -> None:
        self.refs = refs
        self.failed: dict[str, list[str]] = {}
        self.exact_in_pass: dict[str, dict] = {}

    def fail(self, cell, problem: str) -> None:
        problems = self.failed.setdefault(cell.id, [])
        if problem not in problems:
            problems.append(problem)

    def check(self, cell, payload: dict) -> None:
        for problem in C.check_cell(cell, payload, self.refs, self.exact_in_pass):
            self.fail(cell, problem)
        if cell.method == "exact":
            self.exact_in_pass[cell.model] = payload


def cold_pass(cells, cache_dir: Path, checker: Checker) -> tuple[dict, dict]:
    """Every cell once through one registry on an empty disk cache."""
    from repro.runtime.cache import ResultCache
    from repro.runtime.registry import SolverRegistry
    from repro.scenarios import get_scenario

    registry = SolverRegistry(ResultCache(directory=cache_dir))
    results, lat = {}, []
    t_pass = clock()
    for cell in cells:
        t0 = clock()
        try:
            net = get_scenario(cell.scenario).network(cell.population)
            results[cell.id] = registry.solve(net, cell.method, **cell.opts)
        except Exception:
            traceback.print_exc()
            checker.fail(cell, "raised")
        lat.append(clock() - t0)
    wall = clock() - t_pass
    cold, signatures = {}, {}
    for cell in cells:
        if cell.id in results:
            cold[cell.id] = results[cell.id].to_dict()
            signatures[cell.id] = [results[cell.id].fingerprint, *_signature(cold[cell.id])]
            checker.check(cell, cold[cell.id])
    return {"wall_s": wall, "latencies": lat, "signatures": signatures}, cold


def replay_passes(replay, cache_dir: Path, cold: dict, checker: Checker) -> dict:
    """Replay passes over a filled cache directory, each through a new
    registry, until ``MIN_REPLAY_S`` have passed; a cell's latency is the
    median of its repeats."""
    from repro.runtime.cache import ResultCache
    from repro.runtime.registry import SolverRegistry
    from repro.scenarios import get_scenario

    lat: dict[str, list[float]] = {cell.id: [] for cell in replay}
    t_start = clock()
    while clock() - t_start < MIN_REPLAY_S or not lat[replay[0].id]:
        registry = SolverRegistry(ResultCache(directory=cache_dir))
        for cell in replay:
            t0 = clock()
            try:
                net = get_scenario(cell.scenario).network(cell.population)
                res = registry.solve(net, cell.method, **cell.opts)
            except Exception:
                traceback.print_exc()
                res = None
            lat[cell.id].append(clock() - t0)
            if res is None or cell.id not in cold:
                checker.fail(cell, "replay raised")
            elif res.extra.get("cache_tier") == "miss":
                checker.fail(cell, "replay missed the cache")
            elif not _same(res.to_dict(), cold[cell.id]):
                checker.fail(cell, "replay differs from the cold payload")
    return {"replay_latencies": [statistics.median(v) for v in lat.values()]}


def traced_passes(cells, replay, cache_dir: Path, checker: Checker, tracer,
                  probes, seed: int) -> dict:
    """Cold, disk-replay and memory passes, re-driven layer by layer."""
    from pipeline import Pipeline
    from repro.runtime.cache import ResultCache

    pipe = Pipeline(tracer, cache_dir)
    roots, cold, signatures = {}, {}, {}
    for name, order in (("cold", cells), ("replay", replay), ("memory", replay)):
        if name == "replay":
            pipe.cache = ResultCache(directory=cache_dir)
        with tracer.span("bench.pass") as root:
            for cell in order:
                tracer.cell = cell.id
                with tracer.span("bench.cell"):
                    try:
                        res, tier = pipe.solve(cell)
                    except Exception:
                        traceback.print_exc()
                        res = None
                if res is None:
                    checker.fail(cell, f"{name} pass raised")
                    continue
                payload = res.to_dict()
                if name == "cold":
                    cold[cell.id] = payload
                    signatures[cell.id] = [res.fingerprint, *_signature(payload)]
                elif tier == "miss" or (name == "memory" and tier != "memory"):
                    checker.fail(cell, f"{name} pass served from {tier}")
                elif cell.id not in cold or not _same(payload, cold[cell.id]):
                    checker.fail(cell, f"{name} pass differs from the cold payload")
            tracer.cell = None
        roots[name] = root
    for cell in cells:
        if cell.id in cold:
            checker.check(cell, cold[cell.id])

    probe_out = []
    with tracer.span("bench.probe"):
        for scenario, n in probes:
            probe_out.append(pipe.probe_rmatvec(scenario, n, seed))
    for p in probe_out:
        if not p["agrees"]:
            checker.failed[f"probe:{p['model']}"] = [
                f"operator rmatvec differs from CSR by {p['max_abs_diff']}"
            ]
    return {"pipe": pipe, "roots": roots, "cold": cold, "signatures": signatures,
            "probes": probe_out}


def layer_metrics(cells, out: dict, tracer, refs: dict) -> dict:
    """Per-layer totals of the traced run (seconds are self times)."""
    from pipeline import BENCH_SPANS

    pipe, roots = out["pipe"], out["roots"]
    st = tracer.self_times()
    st_cold = tracer.self_times(roots["cold"]["id"])
    cold_wall = roots["cold"]["end"] - roots["cold"]["start"]
    c, h = pipe.counts, pipe.health
    widths = []
    gaps = []
    for cell in cells:
        payload = out["cold"].get(cell.id)
        if payload is None:
            continue
        if cell.method == "lp":
            lo, hi = payload["system_throughput"]
            widths.append((hi - lo) / refs["exact_x"][cell.model])
        if cell.method == "transient":
            exact = next((out["cold"].get(e.id) for e in cells
                          if e.method == "exact" and e.model == cell.model), None)
            if exact is not None:
                for key, ref_key in (("throughput_inf", "throughput"),
                                     ("queue_length_inf", "queue_length")):
                    for got, iv in zip(payload["extra"][key], exact[ref_key]):
                        gaps.append(abs(got - iv[0]))
    probes = out["probes"]
    kron_s = sum(p["kronop_rmatvec_s"] for p in probes)
    csr_s = sum(p["csr_rmatvec_s"] for p in probes)
    program = sum(v for k, v in st_cold.items() if k not in BENCH_SPANS)
    sim_s = st.get("sim.run", 0.0)
    m = {
        "scenarios.build_s": st.get("scenarios.build", 0.0),
        "runtime.fingerprint_s": st.get("runtime.fingerprint", 0.0),
        "runtime.cache.lookup_s": st.get("runtime.cache.lookup", 0.0),
        "runtime.cache.memory_hit_s": st.get("runtime.cache.memory_hit", 0.0),
        "runtime.cache.hit_ratio": pipe.hits / max(pipe.lookups, 1),
        "runtime.cache.put_s": st.get("runtime.cache.put", 0.0),
        "runtime.cache.bytes_written": c["cache_bytes"],
        "runtime.registry.to_dict_s": st.get("runtime.registry.to_dict", 0.0),
        "runtime.registry.from_dict_s": st.get("runtime.registry.from_dict", 0.0),
        "runtime.registry.result_s": st.get("runtime.registry.result", 0.0),
        "core.assembly_s": st.get("core.assembly", 0.0),
        "core.assembly.n_variables": c["n_variables"],
        "core.assembly.n_rows": c["n_rows"],
        "core.assembly.nnz": c["nnz"],
        "core.assembly.max_row_nnz": c["max_row_nnz"],
        "core.lp.solve_s": st.get("core.lp", 0.0),
        "core.lp.solves": c["lp_solves"],
        "core.lp.iterations": c["lp_iterations"],
        "core.lp.ipm_cells": c["ipm_cells"],
        "core.lp.warm_starts": c["warm_starts"],
        "core.lp.basis_reuse": c["basis_reuse"],
        "core.lp.fallbacks": c["fallbacks"],
        "core.lp.bound_width": sum(widths) / len(widths) if widths else 0.0,
        "network.statespace_s": st.get("network.statespace", 0.0),
        "network.states": c["states"],
        "network.generator_s": st.get("network.generator", 0.0),
        "network.generator_nnz": c["generator_nnz"],
        "network.metrics_s": st.get("network.metrics", 0.0),
        "markov.ctmc.solve_s": st.get("markov.ctmc", 0.0),
        "markov.ctmc.stationary_solves": c["stationary_solves"],
        "markov.ctmc.residual": max(h["ctmc_residual"], default=0.0),
        "markov.kronop.build_s": st.get("markov.kronop.build", 0.0),
        "markov.kronop.rmatvec_s": kron_s,
        "markov.csr.rmatvec_s": csr_s,
        "markov.kronop.rmatvec_ratio": kron_s / csr_s if csr_s else 0.0,
        "markov.csr.rmatvec_bytes": sum(p["csr_bytes_computed"] for p in probes),
        "markov.kronop.bytes": sum(p["kronop_bytes_computed"] for p in probes),
        "transient.initial_s": st.get("transient.initial", 0.0),
        "transient.grid_s": st.get("transient.grid", 0.0),
        "transient.matvecs": c["matvecs"],
        "transient.segments": c["segments"],
        "transient.expm_cells": c["expm_cells"],
        "transient.project_s": st.get("transient.project", 0.0),
        "transient.inf_gap": max(gaps, default=0.0),
        "sim.run_s": sim_s,
        "sim.events": c["sim_events"],
        "sim.events_per_s": c["sim_events"] / sim_s if sim_s else 0.0,
        "fluid.solve_s": st.get("fluid.solve", 0.0),
        "qbd.solve_s": st.get("qbd.solve", 0.0),
        "baselines.solve_s": st.get("baselines.solve", 0.0),
        "bench.traced_wall_s": cold_wall,
        "bench.layer_coverage": program / cold_wall,
        "bench.self_s": sum(st_cold.get(k, 0.0) for k in BENCH_SPANS),
    }
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "cold", "replay", "traced"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--cache", type=Path, required=True,
                    help="disk cache directory: new, except for --mode replay")
    ap.add_argument("--payloads", type=Path,
                    help="cold payloads: written by --mode cold, read by --mode replay")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    # --- set-up: what a user pays before the first solve can be issued ---
    from repro.runtime.cache import ResultCache
    from repro.runtime.registry import SolverRegistry
    from repro.scenarios import get_scenario_registry

    get_scenario_registry()
    if args.mode != "replay":
        args.cache.mkdir(parents=True)  # raises unless new, hence empty
    SolverRegistry(ResultCache(directory=args.cache))
    setup_s = clock() - args.t_spawn

    report = {"mode": args.mode, "setup_s": setup_s}
    if args.mode != "setup":
        cells = C.cells_for(args.workload, args.seed, args.tiny)
        replay = C.replay_order(cells, args.seed)
        refs = C.load_refs()
        checker = Checker(refs)
        if args.mode == "cold":
            measured, cold = cold_pass(cells, args.cache, checker)
            report.update(measured, ref_s=reference_s())
            args.payloads.write_text(json.dumps(cold))
        elif args.mode == "replay":
            cold = json.loads(args.payloads.read_text())
            report.update(replay_passes(replay, args.cache, cold, checker))
        else:
            from pipeline import Tracer

            tracer = Tracer()
            probes = C.probe_models(args.workload, args.tiny)
            out = traced_passes(cells, replay, args.cache, checker, tracer, probes,
                                args.seed)
            report["layers"] = layer_metrics(cells, out, tracer, refs)
            report["wall_s"] = report["layers"]["bench.traced_wall_s"]
            report["signatures"] = out["signatures"]
            report["probes"] = out["probes"]
            report["spans"] = tracer.spans
        report["attempted"] = len(cells)
        report["failed"] = checker.failed
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["libs"] = _libs()
    args.out.write_text(json.dumps(report))
    return 0


def _libs() -> dict:
    import numpy
    import scipy

    from repro.core.lpbackend import highs_impl

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs_binding": highs_impl(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


if __name__ == "__main__":
    sys.exit(main())
