"""Batched LP bound solving: assemble the constraint system once, reuse it.

:func:`repro.core.lp.optimize_metric` is a one-shot API — every call pays
for the dense objective vector, the stacked variable-bound array, and method
selection.  :class:`BatchLPSolver` amortizes everything that does not depend
on the objective across all min/max pairs of a model: the variable index,
the assembled sparse constraint matrices, the ``(n, 2)`` bound array, and
the HiGHS method choice.  Dense metric coefficient vectors are built once
per canonical metric spec and reused across min/max senses (and across
repeated :meth:`BatchLPSolver.bound_specs` calls), so a full
standard-metric sweep performs exactly one constraint assembly and
``2 * n_metrics`` solver calls with no redundant re-densification.

Constraint assembly routes through the vectorized block kernel and its
per-topology :class:`~repro.core.assembly.AssemblyCache` (the process-wide
default unless one is injected), so a population sweep over a fixed
topology computes the phase/routing block patterns exactly once and only
re-materializes the N-dependent slices at each point.

Solves run on the engine :func:`repro.core.lpbackend.make_lp_engine`
picks: the persistent HiGHS model whenever scipy's binding imports
(``backend="auto"``; ``"scipy"`` asks for stateless ``linprog``).  The
model is passed to the solver once, objectives swap only the cost vector,
and the max of each min/max pair restarts primal simplex from the min's
optimal basis.  Telemetry counters ``lp.model_rebuild`` and
``lp.basis_reuse`` make each reuse visible.

Metric requests use compact string specs::

    "utilization[2]"       bound U of station 2
    "throughput"           bound X of every station
    "queue_length[0]"      bound E[n_0]
    "system_throughput"    bound the reference-station throughput
    "response_time"        derived from system throughput via Little's law
    "standard"             everything above, every station
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.assembly import AssemblyCache, get_assembly_cache
from repro.core.bounds import BoundsResult, Interval
from repro.core.lpbackend import make_lp_engine
from repro.core.objectives import (
    LinearMetric,
    queue_length_metric,
    system_throughput_metric,
    throughput_metric,
    utilization_metric,
)
from repro.core.variables import VariableIndex
from repro.network.model import Network, require_closed

__all__ = ["BatchLPSolver", "expand_metric_specs"]

_STATION_METRICS = ("utilization", "throughput", "queue_length")
_SCALAR_METRICS = ("system_throughput", "response_time")


def expand_metric_specs(specs, n_stations: int) -> list[str]:
    """Normalize metric specs to canonical per-station form, order-stable.

    ``"standard"`` (or the default) expands to the full metric set;
    bare station-metric names expand to one spec per station; duplicates
    collapse to the first occurrence.
    """
    if isinstance(specs, str):
        specs = (specs,)
    out: list[str] = []

    def _add(spec: str) -> None:
        if spec not in out:
            out.append(spec)

    for spec in specs:
        if spec == "standard":
            for name in _STATION_METRICS:
                for k in range(n_stations):
                    _add(f"{name}[{k}]")
            _add("system_throughput")
            _add("response_time")
        elif spec in _STATION_METRICS:
            for k in range(n_stations):
                _add(f"{spec}[{k}]")
        elif spec in _SCALAR_METRICS:
            _add(spec)
        else:
            name, _, rest = spec.partition("[")
            if name not in _STATION_METRICS or not rest.endswith("]"):
                raise ValueError(f"unknown metric spec {spec!r}")
            k = int(rest[:-1])
            if not 0 <= k < n_stations:
                raise ValueError(
                    f"metric spec {spec!r}: station index out of range "
                    f"(network has {n_stations} stations)"
                )
            _add(spec)
    if "response_time" in out:
        _add("system_throughput")  # Little's law needs the X interval
    return out


class BatchLPSolver:
    """One model, one constraint assembly, many metric bounds."""

    def __init__(
        self,
        network: Network,
        triples: bool | None = None,
        include_redundant: bool = False,
        method: str = "auto",
        backend: str = "auto",
        assembly_cache: AssemblyCache | None = None,
    ) -> None:
        require_closed(network, "lp")
        self.network = network
        cache = assembly_cache if assembly_cache is not None else get_assembly_cache()
        with obs.get_telemetry().span("lp.assembly") as span:
            t0 = obs.clock()
            plan_misses = cache.misses
            plan = cache.plan_for(
                network, triples=triples, include_redundant=include_redundant
            )
            self.plan_from_cache = cache.misses == plan_misses
            self.vi = VariableIndex(network, triples=plan.triples)
            self.system = plan.assemble(network, vi=self.vi)
            self.build_time_s = obs.clock() - t0
            span.set("plan_from_cache", self.plan_from_cache)
            span.set("n_variables", int(self.system.n_variables))
        self._engine = make_lp_engine(self.system, method, backend)
        #: "highs" (persistent model) or "scipy" (stateless linprog)
        self.backend = self._engine.backend
        #: resolved method of every solve: "highs" or "highs-ipm"
        self.method = self._engine.method
        self._last_metric: str | None = None
        self.n_solves = 0
        self.n_fallbacks = 0  # solves that needed the retry ladder
        #: always 0: no solve starts from another model's basis; the lp
        #: result's ``extra["lp_warm_starts"]`` (and cached payloads) carry it
        self.n_warm_starts = 0
        self.n_basis_reuse = 0  # min/max pair solves off the kept basis
        self.n_iterations = 0  # simplex + ipm + crossover, all solves
        self.solve_time_s = 0.0
        #: canonical metric spec -> (metric, dense coefficient vector)
        self._dense_cache: dict[str, tuple[LinearMetric, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def optimize(self, metric: LinearMetric, sense: str) -> float:
        """Optimal value of one metric in one direction."""
        c = metric.dense(self.system.n_variables)
        return self._optimize_dense(c, sense, metric.name) + metric.constant

    def _optimize_dense(self, c: np.ndarray, sense: str, name: str) -> float:
        # The kept basis is only primal-feasible for the *same* metric (the
        # min/max pair); across metrics it misleads the solver.
        reuse = self._last_metric == name
        with obs.get_telemetry().span("lp.solve", metric=name, sense=sense) as span:
            t0 = obs.clock()
            info = self._engine.solve(c, sense, reuse_basis=reuse)
            self._last_metric = name
            self.solve_time_s += obs.clock() - t0
            self.n_solves += 1
            self.n_iterations += info.n_iterations
            span.count("lp.solves")
            span.count("lp.iterations", info.n_iterations)
            if info.reused_basis:
                self.n_basis_reuse += 1
                span.count("lp.basis_reuse")
            if info.n_fallbacks:
                self.n_fallbacks += 1
                span.count("lp.fallbacks")
                span.set("method_used", info.method_used)
        return info.value

    def bound(self, metric: LinearMetric) -> Interval:
        """[min, max] of one metric — one dense vector, two solves."""
        c = metric.dense(self.system.n_variables)
        return self._bound_dense(metric.name, c, metric.constant)

    def _bound_dense(self, name: str, c: np.ndarray, constant: float) -> Interval:
        lo = self._optimize_dense(c, "min", name) + constant
        hi = self._optimize_dense(c, "max", name) + constant
        if lo > hi:  # round-off on a degenerate (point) interval
            lo, hi = hi, lo
        return Interval(lower=lo, upper=hi)

    # ------------------------------------------------------------------ #
    def _metric_for(self, spec: str, reference: int) -> LinearMetric:
        if spec == "system_throughput":
            return system_throughput_metric(self.network, self.vi, reference)
        name, _, rest = spec.partition("[")
        k = int(rest[:-1])
        builder = {
            "utilization": utilization_metric,
            "throughput": throughput_metric,
            "queue_length": queue_length_metric,
        }[name]
        return builder(self.network, self.vi, k)

    def _dense_for(self, spec: str, reference: int) -> tuple[LinearMetric, np.ndarray]:
        """(metric, dense coefficients) for a spec, densified exactly once."""
        key = f"{spec}@{reference}" if spec == "system_throughput" else spec
        hit = self._dense_cache.get(key)
        if hit is None:
            metric = self._metric_for(spec, reference)
            hit = (metric, metric.dense(self.system.n_variables))
            self._dense_cache[key] = hit
        return hit

    def bound_specs(
        self, specs="standard", reference: int = 0
    ) -> dict[str, Interval]:
        """Bound every requested metric; returns canonical-spec -> Interval."""
        expanded = expand_metric_specs(specs, self.network.n_stations)
        out: dict[str, Interval] = {}
        for spec in expanded:
            if spec == "response_time":
                continue  # derived below
            metric, c = self._dense_for(spec, reference)
            out[spec] = self._bound_dense(metric.name, c, metric.constant)
        if "response_time" in expanded:
            x = out["system_throughput"]
            N = self.network.population
            out["response_time"] = Interval(lower=N / x.upper, upper=N / x.lower)
        return out

    def standard_bounds(self, reference: int = 0) -> BoundsResult:
        """Drop-in equivalent of :func:`repro.core.bounds.solve_bounds`."""
        b = self.bound_specs("standard", reference)
        M = self.network.n_stations
        return BoundsResult(
            network=self.network,
            utilization=[b[f"utilization[{k}]"] for k in range(M)],
            throughput=[b[f"throughput[{k}]"] for k in range(M)],
            queue_length=[b[f"queue_length[{k}]"] for k in range(M)],
            system_throughput=b["system_throughput"],
            response_time=b["response_time"],
        )
