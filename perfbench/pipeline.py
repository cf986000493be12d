"""The traced re-drive: each cell's solve path, one layer call at a time.

``SolverRegistry.solve`` runs fingerprint -> cache lookup -> adapter ->
serialization -> cache put in one call.  The traced run instead calls each
layer's public function itself, in the same order and with the same
arguments, and times every call as a span held in memory.  Nothing is
instrumented inside the program: where an adapter is a thin wrapper over
several layers (``lp``, ``exact``, ``transient``, ``sim``) its layer calls
are repeated here, and ``run.py`` checks that the resulting payload has
the registry's cache key and shape and its numbers to 1e-9, so the re-drive
cannot drift from the program silently.  The other adapters are single-layer and are called
as they are.

Layer functions are looked up on their modules at call time, so a test can
wrap one of them (e.g. ``repro.markov.ctmc.steady_state_ctmc``) and see
only that layer's self time move.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from repro import scenarios
from repro.core.bounds import Interval
from repro.markov import ctmc
from repro.markov.uniformization import UniformizedOperator
from repro.network import exact as exact_mod
from repro.network import kron
from repro.network.statespace import NetworkStateSpace, StateSpaceCache, expected_state_count
from repro.runtime import fingerprint
from repro.runtime.batch import BatchLPSolver
from repro.runtime.cache import ResultCache
from repro.runtime.registry import SolveResult, SolverRegistry
from repro.sim import engine as sim_engine
from repro.transient import engine as transient_engine
from repro.transient import initial, metrics
from repro.transient.result import TransientResult
from repro.transient.solver import default_time_grid

clock = time.perf_counter

#: Span names that belong to the benchmark itself, not to a program layer.
BENCH_SPANS = ("bench.pass", "bench.cell", "bench.health", "bench.probe")

#: Single-layer adapters called as they are, by the layer they exercise.
ADAPTER_LAYER = {
    "aba": "baselines.solve",
    "bjb": "baselines.solve",
    "mva": "baselines.solve",
    "decomposition": "baselines.solve",
    "qbd": "qbd.solve",
    "fluid": "fluid.solve",
}


class Tracer:
    """Spans in memory: name, start, end, parent and the cell they serve."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cell: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "cell": self.cell,
            "start": clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._stack.pop()

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time per span name (duration minus child spans), optionally
        only under the span with id ``root``."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        keep = None
        if root is not None:
            keep = {root}
            for s in self.spans[root + 1 :]:
                if s["parent"] in keep:
                    keep.add(s["id"])
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if keep is None or s["id"] in keep:
                out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)


def _pt(value: float) -> Interval:
    value = float(value)
    return Interval(lower=value, upper=value)


def _make_result(network, method, util, thr, qlen, x, r, extra) -> SolveResult:
    return SolveResult(
        method=method,
        station_names=tuple(st.name for st in network.stations),
        population=None if network.kind == "open" else network.population,
        utilization=tuple(util),
        throughput=tuple(thr),
        queue_length=tuple(qlen),
        system_throughput=x,
        response_time=r,
        extra=extra,
    )


class Pipeline:
    """Re-drives cells layer by layer against one cache directory.

    ``counts`` accumulates the work counters the layers report (states,
    nonzeros, iterations, matvecs, events, ...); ``health`` the numeric
    health numbers the benchmark recomputes outside the program.
    """

    def __init__(self, tracer: Tracer, cache_dir) -> None:
        self.t = tracer
        self.cache_dir = cache_dir
        self.cache = ResultCache(directory=cache_dir)
        # The registry's adapter table: signatures for option defaults,
        # replay classes and fingerprint-invariant options.
        self.adapters = SolverRegistry(cache=None)._adapters
        # Mirrors of the exact and transient adapters' process-wide caches.
        self.exact_spaces = StateSpaceCache()
        self.transient_spaces = StateSpaceCache()
        self.counts: dict[str, float] = defaultdict(float)
        self.health: dict[str, list] = defaultdict(list)
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------ #
    def _front(self, cell):
        """scenario build -> option normalization + fingerprint -> lookup."""
        t = self.t
        with t.span("scenarios.build"):
            net = scenarios.get_scenario(cell.scenario).network(cell.population)
        adapter, _, _, result_cls, invariant = self.adapters[cell.method]
        with t.span("runtime.fingerprint"):
            bound = inspect.signature(adapter).bind_partial(**cell.opts)
            bound.apply_defaults()
            opts = dict(bound.arguments)
            key_opts = {k: v for k, v in opts.items() if k not in invariant}
            key = fingerprint.fingerprint_solve(net, cell.method, key_opts)
        with t.span("runtime.cache.lookup") as rec:
            payload, tier = self.cache.lookup(key)
            if tier == "memory":
                rec["name"] = "runtime.cache.memory_hit"
        self.lookups += 1
        self.hits += payload is not None
        return net, adapter, result_cls, opts, key, payload, tier

    def solve(self, cell) -> tuple[SolveResult, str]:
        """One cell the way ``SolverRegistry.solve`` runs it; returns the
        result and the cache tier that served it."""
        net, adapter, result_cls, opts, key, payload, tier = self._front(cell)
        if payload is not None:
            with self.t.span("runtime.registry.from_dict"):
                result = result_cls.from_dict(payload, from_cache=True)
                result.extra["cache_hit"] = True
                result.extra["cache_tier"] = tier
            return result, tier
        t0 = clock()
        kernel = getattr(self, f"_k_{cell.method}", None)
        if kernel is not None:
            result = kernel(net, opts)
        else:
            with self.t.span(ADAPTER_LAYER[cell.method]):
                result = adapter(net, **opts)
        with self.t.span("runtime.registry.result"):
            result = replace(result, wall_time_s=clock() - t0, fingerprint=key)
        with self.t.span("runtime.registry.to_dict"):
            payload = result.to_dict()
        with self.t.span("runtime.cache.put"):
            self.cache.put(key, payload)
        self.counts["cache_bytes"] += os.path.getsize(self.cache_dir / f"{key}.json")
        result.extra["cache_hit"] = False
        result.extra["cache_tier"] = "miss"
        return result, "miss"

    # ------------------------------------------------------------------ #
    # multi-layer adapters, repeated one layer call at a time
    # ------------------------------------------------------------------ #
    def _k_lp(self, net, o) -> SolveResult:
        t = self.t
        with t.span("core.assembly"):
            solver = BatchLPSolver(
                net,
                triples=o["triples"],
                include_redundant=o["include_redundant"],
                method=o["lp_method"],
                backend=o["backend"],
            )
        with t.span("core.lp"):
            bounds = solver.bound_specs(o["metrics"], reference=o["reference"])
        system = solver.system
        row_nnz = [np.diff(A.indptr) for A in (system.A_eq, system.A_ub) if A.shape[0]]
        c = self.counts
        c["n_variables"] += system.n_variables
        c["n_rows"] += system.n_rows
        c["nnz"] += system.A_eq.nnz + system.A_ub.nnz
        c["max_row_nnz"] = max(c["max_row_nnz"], max(int(r.max()) for r in row_nnz))
        c["lp_solves"] += solver.n_solves
        c["lp_iterations"] += solver.n_iterations
        c["ipm_cells"] += solver.method == "highs-ipm"
        c["warm_starts"] += solver.n_warm_starts
        c["basis_reuse"] += solver.n_basis_reuse
        c["fallbacks"] += solver.n_fallbacks
        M = net.n_stations
        with t.span("runtime.registry.result"):
            return _make_result(
                net,
                "lp",
                [bounds.get(f"utilization[{k}]") for k in range(M)],
                [bounds.get(f"throughput[{k}]") for k in range(M)],
                [bounds.get(f"queue_length[{k}]") for k in range(M)],
                bounds.get("system_throughput"),
                bounds.get("response_time"),
                {
                    "t_build_s": solver.build_time_s,
                    "t_solve_s": solver.solve_time_s,
                    "n_variables": system.n_variables,
                    "n_rows": system.n_rows,
                    "n_lp_solves": solver.n_solves,
                    "lp_method": solver.method,
                    "lp_iterations": solver.n_iterations,
                    "lp_fallbacks": solver.n_fallbacks,
                    "lp_warm_starts": solver.n_warm_starts,
                    "lp_basis_reuse": solver.n_basis_reuse,
                    "assembly_plan_cached": solver.plan_from_cache,
                    "certified": True,
                    "backend": solver.backend,
                },
            )

    def _ctmc_front(self, net, spaces: StateSpaceCache, max_states: int):
        """state space -> generator, the dense path of both CTMC adapters."""
        if expected_state_count(net) > max_states:
            raise NotImplementedError("the benchmark re-drives the dense backend only")
        with self.t.span("network.statespace"):
            space = spaces.space_for(net)
        with self.t.span("network.generator"):
            Q = exact_mod.build_generator(net, space)
        self.counts["states"] += space.size
        self.counts["generator_nnz"] += Q.nnz
        return space, Q

    def _stationary(self, Q, method: str = "auto") -> np.ndarray:
        with self.t.span("markov.ctmc"):
            pi = ctmc.steady_state_ctmc(Q, method=method)
        self.counts["stationary_solves"] += 1
        with self.t.span("bench.health"):
            self.health["ctmc_residual"].append(float(np.abs(pi @ Q).sum()))
        return pi

    def _k_exact(self, net, o) -> SolveResult:
        space, Q = self._ctmc_front(net, self.exact_spaces, o["max_states"])
        pi = self._stationary(Q, o["ctmc_method"])
        with self.t.span("network.metrics"):
            sol = exact_mod.ExactSolution(network=net, space=space, pi=pi)
            M = net.n_stations
            x = sol.system_throughput(o["reference"])
            return _make_result(
                net,
                "exact",
                [_pt(sol.utilization(k)) for k in range(M)],
                [_pt(sol.throughput(k)) for k in range(M)],
                [_pt(sol.mean_queue_length(k)) for k in range(M)],
                _pt(x),
                _pt(net.population / x),
                {"n_states": int(space.size), "exact": True, "backend": "dense"},
            )

    def _k_transient(self, net, o) -> TransientResult:
        t = self.t
        times = (
            default_time_grid(net)
            if o["times"] is None
            else tuple(float(v) for v in o["times"])
        )
        space, Q = self._ctmc_front(net, self.transient_spaces, o["max_states"])
        pi_inf = self._stationary(Q)
        with t.span("transient.initial"):
            pi0 = initial.initial_distribution(net, space, o["pi0"], pi_inf=pi_inf)
        with t.span("transient.grid"):
            grid = transient_engine.transient_grid(
                Q,
                pi0,
                times,
                tol=o["tol"],
                accumulate=o["accumulate"],
                method=o["engine"],
                operator=UniformizedOperator(Q),
            )
        c = self.counts
        c["matvecs"] += grid.n_matvecs
        c["segments"] += grid.n_segments
        c["expm_cells"] += grid.method == "expm"
        with t.span("transient.project"):
            W_qlen, W_util, W_thr = metrics._metric_weights(net, space)
            pis = grid.distributions
            occupancy = None
            if grid.integrals is not None:
                with np.errstate(invalid="ignore", divide="ignore"):
                    occupancy = (grid.integrals @ W_qlen) / grid.times[:, None]
                occupancy[grid.times == 0.0] = (pis @ W_qlen)[grid.times == 0.0]
            traj = metrics.TransientTrajectory(
                network=net,
                pi0_spec=o["pi0"],
                times=grid.times,
                queue_length=pis @ W_qlen,
                utilization=pis @ W_util,
                throughput=pis @ W_thr,
                distance_tv=0.5 * np.abs(pis - pi_inf[None, :]).sum(axis=1),
                queue_length_inf=pi_inf @ W_qlen,
                utilization_inf=pi_inf @ W_util,
                throughput_inf=pi_inf @ W_thr,
                mean_occupancy=occupancy,
                stats={
                    "engine": grid.method,
                    "backend": "dense",
                    "n_matvecs": grid.n_matvecs,
                    "n_segments": grid.n_segments,
                    "q": grid.q,
                    "n_states": int(space.size),
                },
            )
            return _transient_result(net, traj, o)

    def _k_sim(self, net, o) -> SolveResult:
        with self.t.span("sim.run"):
            sim = sim_engine.simulate(
                net,
                horizon_events=o["horizon_events"],
                warmup_events=o["warmup_events"],
                rng=o["rng"],
                taps=o["taps"],
                initial_station=o["initial_station"],
            )
        self.counts["sim_events"] += sim.n_events
        with self.t.span("runtime.registry.result"):
            M = net.n_stations
            ref = o["reference"]
            extra = {
                "duration": float(sim.duration),
                "horizon_events": o["horizon_events"],
                "warmup_events": o["warmup_events"],
                "estimate": True,
            }
            if net.kind != "closed":
                extra["sink_departure_rate"] = sim.sink_departures / sim.duration
                extra["external_arrival_rate"] = sim.external_arrivals / sim.duration
                extra["open_response_time"] = sim.open_response_time()
                extra["open_mean_jobs"] = float(sim.mean_queue_length_open.sum())
            return _make_result(
                net,
                "sim",
                [_pt(sim.utilization[k]) for k in range(M)],
                [_pt(sim.throughput[k]) for k in range(M)],
                [_pt(sim.mean_queue_length[k]) for k in range(M)],
                _pt(sim.system_throughput(ref)),
                _pt(sim.response_time(ref)),
                extra,
            )

    # ------------------------------------------------------------------ #
    def probe_rmatvec(self, scenario: str, population: int, seed: int) -> dict:
        """Operator-vs-CSR ``x @ Q`` on one model: per-call time (median of
        repeats) and computed bytes (CSR: nnz*12 + rows*4; operator: its
        storage), plus the largest disagreement between the two."""
        net = scenarios.get_scenario(scenario).network(population)
        space = NetworkStateSpace(net)
        QT = exact_mod.build_generator(net, space).T.tocsr()
        with self.t.span("markov.kronop.build"):
            K = kron.kronecker_generator(net, space)
        x = np.random.default_rng(seed).random(space.size)
        x /= x.sum()
        y_csr, y_op = QT @ x, K.rmatvec(x)
        out = {"model": f"{scenario}@{population}", "states": int(space.size)}
        for name, fn in (("csr", lambda: QT @ x), ("kronop", lambda: K.rmatvec(x))):
            reps = []
            t_end = clock() + 0.3
            while len(reps) < 7 or (clock() < t_end and len(reps) < 200):
                with self.t.span(f"markov.{name}.rmatvec") as rec:
                    fn()
                reps.append(rec["end"] - rec["start"])
            out[f"{name}_rmatvec_s"] = float(np.median(reps))
            out[f"{name}_calls"] = len(reps)
        out["csr_bytes_computed"] = int(QT.nnz * 12 + QT.shape[0] * 4)
        out["kronop_bytes_computed"] = int(K.nbytes)
        out["max_abs_diff"] = float(np.abs(y_csr - y_op).max())
        out["agrees"] = out["max_abs_diff"] <= 1e-10 * max(1.0, float(np.abs(y_csr).max()))
        return out


def _transient_result(net, traj, o) -> TransientResult:
    """The adapter's TransientResult, built from a trajectory."""
    M = net.n_stations
    latest = int(np.argmax(traj.times))
    x_ref = float(traj.throughput[latest, o["reference"]])
    warm = traj.warmup_time()
    extra = {
        "pi0": o["pi0"],
        "queue_length_inf": [float(v) for v in traj.queue_length_inf],
        "utilization_inf": [float(v) for v in traj.utilization_inf],
        "throughput_inf": [float(v) for v in traj.throughput_inf],
        "warmup_time_tv01": float(warm) if np.isfinite(warm) else None,
        **traj.stats,
    }

    def cols(a):
        return tuple(tuple(float(v) for v in a[:, k]) for k in range(M))

    return TransientResult(
        method="transient",
        station_names=tuple(st.name for st in net.stations),
        population=net.population,
        utilization=tuple(_pt(traj.utilization[latest, k]) for k in range(M)),
        throughput=tuple(_pt(traj.throughput[latest, k]) for k in range(M)),
        queue_length=tuple(_pt(traj.queue_length[latest, k]) for k in range(M)),
        system_throughput=_pt(x_ref),
        response_time=_pt(net.population / x_ref) if x_ref > 0 else None,
        extra=extra,
        times=tuple(float(v) for v in traj.times),
        queue_length_t=cols(traj.queue_length),
        utilization_t=cols(traj.utilization),
        throughput_t=cols(traj.throughput),
        distance_tv=tuple(float(v) for v in traj.distance_tv),
        mean_occupancy_t=() if traj.mean_occupancy is None else cols(traj.mean_occupancy),
    )
