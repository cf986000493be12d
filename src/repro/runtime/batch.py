"""Batched LP bound solving: assemble the constraint system once, reuse it.

:class:`BatchLPSolver` is the one code path that solves an LP bound:
:func:`~repro.core.bounds.bound_metric`,
:func:`~repro.core.bounds.response_time_bounds`,
:func:`~repro.core.bounds.solve_bounds`, the registry's ``lp`` adapter and
population sweeps all solve on it, and :func:`_solve_pair` is where every
bound's min and max are solved.  It amortizes everything that does not
depend on the objective across all min/max pairs of a model: the variable
index, the assembled sparse constraint matrices, the ``(n, 2)`` bound
array, and the HiGHS method choice.  A request densifies each solved
metric once and uses the vector for its min and its max, so a full
standard-metric request performs exactly one constraint assembly, one
anchor solve and ``4M`` bound solves.  No
throughput is solved: over the whole polytope a queue's throughput is its
utilization over its mean service time (the utilization law) and an
exponential delay's is its mean queue length over its think time
(Little's law), so each throughput interval is a solved one scaled by the
station's service rate, and system throughput is the reference station's.

The constraint system is :func:`~repro.core.assembly.build_constraints`'s,
built once per solver; nothing about it is kept between solvers.

Solves run on the engine :func:`repro.core.lpbackend.make_lp_engine`
picks: the persistent HiGHS model whenever scipy's binding imports
(``backend="auto"``; ``"scipy"`` asks for stateless ``linprog``).  The
model is passed to the solver once and objectives swap only the cost
vector.  On the simplex path every solve starts from an explicit basis:
each solver has one *anchor*, the optimal basis of the zero objective (a
vertex of the polytope, primal feasible for every objective), solved once
on the solver's first simplex solve; every min starts from the anchor and
every max from its own min's optimum.  Telemetry counters
``lp.warm_starts`` (solves from the anchor) and ``lp.basis_reuse`` (maxes
from their min) make each start visible; ``lp.model_rebuild`` counts the
HiGHS models built.  Interior point and the stateless engine solve cold.

The pairs of one model are independent, so :meth:`BatchLPSolver.bound_specs`
solves them on ``min(n_pairs, usable cores)`` threads (the process's CPU
affinity and cgroup CPU quota, split between the worker processes of a
parallel sweep; no option).  A pair is the unit of work: each thread
drives one engine of its own over the shared constraint system, the
calling thread the solver's own engine, and solves whole pairs;
:meth:`BatchLPSolver.bound` is the one-pair case.  HiGHS releases the GIL
in ``run()``, so on two cores the benchmark's LP cells solve in ~0.56x the
one-thread time.  Every start is explicit and no solve depends on its
engine's history, so a bound depends only on the model, the metric and
the sense: not on the core count, the thread schedule, the request set or
what the solver answered before.  ``solve_time_s`` is the wall time of the
solves, the anchor's included; ``lp.solve`` spans from the pair threads
nest under the caller's span (``obs.use(..., parent=)``).

Metric requests use compact string specs::

    "utilization[2]"       bound U of station 2
    "throughput"           X of every station: U / S (queue), E[n] / Z (delay)
    "queue_length[0]"      bound E[n_0]
    "system_throughput"    the reference station's throughput interval
    "response_time"        derived from system throughput via Little's law
    "standard"             everything above, every station
"""

from __future__ import annotations

import os
import queue
import threading
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.assembly import build_constraints
from repro.core.bounds import BoundsResult, Interval
from repro.core.lpbackend import LPRunInfo, make_lp_engine
from repro.core.objectives import (
    LinearMetric,
    queue_length_metric,
    utilization_metric,
)
from repro.network.model import Network, require_closed, require_reference

__all__ = ["BatchLPSolver", "expand_metric_specs"]

_STATION_METRICS = ("utilization", "throughput", "queue_length")
_SCALAR_METRICS = ("system_throughput", "response_time")

#: station kind -> the solved metric its throughput is a multiple of at
#: every point of the polytope: ``X = U / S`` at a single-server queue,
#: ``X = E[n] / Z`` at an exponential delay (the LP takes no other kind)
_THROUGHPUT_SOURCE = {"queue": "utilization", "delay": "queue_length"}


#: processes splitting this one's cores: the worker count of the parallel
#: sweep this process solves points for (:func:`_share_cores`), else 1
_core_sharers = 1


def _share_cores(workers: int) -> None:
    """Worker-process initializer of a parallel sweep: ``workers``
    processes split the usable cores, so all their pair threads together
    fit the cores once (``repro.runtime.sweep``)."""
    global _core_sharers
    _core_sharers = max(1, workers)


#: where this process's cgroup CPU controller is mounted
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cgroup_cpu_quota(root: Path) -> "int | None":
    """``ceil(quota / period)`` of the cgroup CPU quota under ``root``, or
    ``None`` when no quota is set or readable.

    cgroup v2 keeps both in ``cpu.max`` (``"<quota> <period>"``, the quota
    ``max`` when unlimited); cgroup v1 in ``cpu/cpu.cfs_quota_us`` (``-1``
    when unlimited) and ``cpu/cpu.cfs_period_us``.
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    if quota_us <= 0 or period_us <= 0:  # -1: no quota
        return None
    return -(-quota_us // period_us)


def _usable_cores() -> int:
    """Cores this process's pair threads may use: its CPU affinity (else
    the CPU count), capped by its cgroup CPU quota and split evenly between
    the processes of a parallel sweep."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    quota = _cgroup_cpu_quota(_CGROUP_ROOT)
    if quota is not None:
        cores = min(cores, quota)
    return max(1, cores // _core_sharers)


def _solve(engine, c: np.ndarray, sense: str, name: str, start, counter: str) -> LPRunInfo:
    """One engine solve from ``start`` inside an ``lp.solve`` span that
    counts its work, and under ``counter`` a solve that ran from the start."""
    with obs.get_telemetry().span("lp.solve", metric=name, sense=sense) as span:
        info = engine.solve(c, sense, start=start)
        span.count("lp.solves")
        span.count("lp.iterations", info.n_iterations)
        if info.warm:
            span.count(counter)
        if info.n_fallbacks:
            span.count("lp.fallbacks")
            span.set("method_used", info.method_used)
    return info


def _interval(lo: float, hi: float) -> Interval:
    if lo > hi:  # round-off on a degenerate (point) interval
        lo, hi = hi, lo
    return Interval(lower=lo, upper=hi)


def _solve_pair(engine, metric: LinearMetric, c: np.ndarray, anchor):
    """One metric's ``(Interval, min info, max info)`` on one engine.

    The min starts from the solver's ``anchor`` and the max from the
    min's optimum (both ``None`` off the simplex path: cold).
    """
    lo = _solve(engine, c, "min", metric.name, anchor, "lp.warm_starts")
    hi = _solve(engine, c, "max", metric.name, lo.basis, "lp.basis_reuse")
    return _interval(lo.value + metric.constant, hi.value + metric.constant), lo, hi


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
    ) -> None:
        require_closed(network, "lp")
        self.network = network
        with obs.get_telemetry().span("lp.assembly") as span:
            t0 = obs.clock()
            self.system = build_constraints(
                network, triples=triples, include_redundant=include_redundant
            )
            self.build_time_s = obs.clock() - t0
            span.set("n_variables", int(self.system.n_variables))
        self.vi = self.system.vi
        #: always ``False``: no assembly is cached (the ``lp`` payload's
        #: ``assembly_plan_cached`` key keeps its shape)
        self.plan_from_cache = False
        self._engine = make_lp_engine(self.system, method, backend)
        #: one engine per pair thread; engine 0 also serves the serial calls
        self._engines = [self._engine]
        #: "highs" (persistent model) or "scipy" (stateless linprog)
        self.backend = self._engine.backend
        #: resolved method of every solve: "highs" or "highs-ipm"
        self.method = self._engine.method
        self.n_solves = 0  # bound solves; the anchor is not one
        self.n_fallbacks = 0  # solves that needed the retry ladder
        self.n_warm_starts = 0  # solves from the anchor
        self.n_basis_reuse = 0  # max solves from their min's optimum
        self.n_iterations = 0  # simplex + ipm + crossover, anchor included
        #: wall time of the solves (``bound_specs`` pairs overlap on threads)
        self.solve_time_s = 0.0
        #: the anchor basis, solved on the first simplex solve (``_anchor``)
        self._anchor_basis = None
        self._anchor_due = self._engine.takes_start

    # ------------------------------------------------------------------ #
    def bound(self, metric: LinearMetric) -> Interval:
        """[min, max] of one metric — one dense vector, one pair."""
        (interval,) = self._run_pairs([(metric, metric.dense(self.system.n_variables))])
        return interval

    def _anchor(self):
        """The start of every min: the optimal basis of the zero objective.

        Any vertex of the polytope is primal feasible for every objective,
        and a fixed one makes each bound independent of which engine,
        thread or request solved it.  Solved cold on engine 0, once per
        solver, at its first simplex solve (so a traced run books it as
        solve time, not assembly); ``None`` off the simplex path.  Pair
        threads only read it.
        """
        if self._anchor_due:
            self._anchor_due = False
            with obs.get_telemetry().span("lp.anchor") as span:
                info = self._engine.solve(np.zeros(self.system.n_variables), "min")
                span.count("lp.iterations", info.n_iterations)
            self.n_iterations += info.n_iterations
            self.n_fallbacks += info.n_fallbacks > 0
            self._anchor_basis = info.basis
        return self._anchor_basis

    def _tally(self, info: LPRunInfo, from_min: bool = False) -> None:
        """Count one bound solve, and its start: the anchor, or (a pair's
        max, ``from_min``) its min's optimum."""
        self.n_solves += 1
        self.n_iterations += info.n_iterations
        self.n_fallbacks += info.n_fallbacks > 0
        if from_min:
            self.n_basis_reuse += info.warm
        else:
            self.n_warm_starts += info.warm

    # ------------------------------------------------------------------ #
    def _dense_for(self, spec: str) -> tuple[LinearMetric, np.ndarray]:
        """(metric, dense coefficients) of a solved ``utilization[k]`` or
        ``queue_length[k]`` spec."""
        name, _, rest = spec.partition("[")
        builder = {
            "utilization": utilization_metric,
            "queue_length": queue_length_metric,
        }[name]
        metric = builder(self.network, self.vi, int(rest[:-1]))
        return metric, metric.dense(self.system.n_variables)

    def _source(self, spec: str, reference: int) -> tuple[str, float]:
        """``(solved spec, rate)``, ``spec``'s interval being the solved
        one's times ``rate``: for a throughput, its station's utilization
        (a queue) or mean queue length (a delay) and ``1 / S_k``; for any
        other spec, the spec itself and 1."""
        if spec == "system_throughput":
            spec = f"throughput[{reference}]"
        name, _, rest = spec.partition("[")
        if name != "throughput":
            return spec, 1.0
        k = int(rest[:-1])
        st = self.network.stations[k]
        return f"{_THROUGHPUT_SOURCE[st.kind]}[{k}]", 1.0 / st.mean_service_time

    def bound_specs(
        self, specs="standard", reference: int = 0
    ) -> dict[str, Interval]:
        """Bound every requested metric; returns canonical-spec -> Interval.

        Only utilization and queue-length pairs are solved; every
        throughput follows from one of them (:meth:`_source`), so a
        standard request solves ``2M`` pairs.  The pairs run concurrently
        (:meth:`_run_pairs`); bounds and counters equal a one-thread run
        bit for bit.  ``reference`` must be a station index in ``[0, M)``.
        """
        require_reference(self.network, reference)
        expanded = expand_metric_specs(specs, self.network.n_stations)
        source = {
            spec: self._source(spec, reference)
            for spec in expanded
            if spec != "response_time"
        }
        solved = list(dict.fromkeys(src for src, _ in source.values()))
        got = dict(zip(solved, self._run_pairs([self._dense_for(s) for s in solved])))
        out = {
            spec: Interval(lower=got[src].lower * rate, upper=got[src].upper * rate)
            for spec, (src, rate) in source.items()
        }
        if "response_time" in expanded:
            x = out["system_throughput"]
            N = self.network.population
            out["response_time"] = Interval(lower=N / x.upper, upper=N / x.lower)
        return out

    def _run_pairs(self, pairs: list) -> list[Interval]:
        """``_solve_pair`` over every ``(metric, c)``; intervals in input order.

        The calling thread solves the anchor if it is due, then drains the
        queue of pairs on engine 0 while ``min(n_pairs, usable cores) - 1``
        threads drain it on engines of their own (built once, kept for
        later calls); one pair or one core runs inline.  No solve depends
        on its engine's history, so which engine solves which pair does
        not move a bit.  Worker spans nest under the caller's current
        span.  The first failing pair in input order raises once every
        thread has been joined.  Adds the wall time to ``solve_time_s``
        and every solve to the counters.
        """
        t0 = obs.clock()
        anchor = self._anchor()
        n_threads = min(len(pairs), _usable_cores())
        while len(self._engines) < n_threads:
            self._engines.append(type(self._engine)(self.system, self.method))
        todo: queue.SimpleQueue = queue.SimpleQueue()
        for i in range(len(pairs)):
            todo.put(i)
        results: list = [None] * len(pairs)

        def drain(engine) -> None:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[i] = _solve_pair(engine, *pairs[i], anchor)
                except Exception as exc:  # re-raised below, in input order
                    results[i] = exc

        tele = obs.get_telemetry()
        parent = tele.current_span()

        def worker(engine) -> None:
            with obs.use(tele, parent=parent):
                drain(engine)

        threads = [
            threading.Thread(target=worker, args=(engine,), daemon=True)
            for engine in self._engines[1:n_threads]
        ]
        for thread in threads:
            thread.start()
        try:
            drain(self._engine)
        finally:
            for thread in threads:
                thread.join()
        self.solve_time_s += obs.clock() - t0
        for result in results:
            if isinstance(result, Exception):
                raise result
        for _, lo, hi in results:
            self._tally(lo)
            self._tally(hi, from_min=True)
        return [interval for interval, _, _ in results]

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
