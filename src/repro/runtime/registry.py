"""The solver registry: one ``solve(network, method, **opts)`` facade.

Every analysis in the repository — the paper's LP bounds, the exact CTMC,
the simulator, the QBD heavy-traffic approximation, and the classical
baselines (MVA/ABA/BJB/decomposition) — is wrapped as a registered adapter
returning one uniform :class:`SolveResult`.  Point solvers return degenerate
(zero-width) intervals; bounding solvers return certified intervals; both
expose the same accessors, so experiment drivers and sweeps are written once
against the facade.

Results are content-addressed (see :mod:`repro.runtime.fingerprint`) and
transparently cached (see :mod:`repro.runtime.cache`); a cache hit replays
the stored result, including the *original* compute time in
``wall_time_s`` — so timing columns of experiment tables stay meaningful on
cached reruns while ``from_cache`` tells you nothing was recomputed.  Every
registry solve additionally stamps ``extra["cache_hit"]`` (bool) and
``extra["cache_tier"]`` (``"memory" | "disk" | "miss"``) on the returned
result, so a hit is distinguishable from a merely fast solve; these
provenance keys describe the invocation, not the result, and are stripped
from cached payloads.  When telemetry is enabled (:mod:`repro.obs`) each
solve runs under a ``registry.solve`` span carrying the same provenance
plus fingerprint time and hit/miss/store counters.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro import obs
from repro.baselines.aba import aba_bounds
from repro.baselines.bjb import bjb_bounds
from repro.baselines.decomposition import decomposition
from repro.baselines.mva import mva
from repro.core.bounds import Interval
from repro.network.exact import DENSE_MAX_STATES, solve_exact
from repro.network.model import Network, require_closed, require_reference
from repro.qbd.mapmap1 import MapMap1Queue
from repro.qbd.opennet import solve_open_network
from repro.runtime.batch import BatchLPSolver
from repro.runtime.cache import ResultCache
from repro.runtime.fingerprint import FingerprintError, fingerprint_solve
from repro.sim.engine import simulate
from repro.utils.errors import NotSupportedError, UnsupportedNetworkError

__all__ = ["SolveResult", "SolverRegistry"]

#: ``extra`` keys describing *this invocation's* execution rather than the
#: computed result; stripped from cached payloads so a replay is
#: bit-identical to the original solve.  ``cache_hit``/``cache_tier`` are
#: re-stamped on every registry solve; ``backend`` records which engine
#: (dense matrix vs matrix-free operator for the CTMC methods; persistent
#: HiGHS vs stateless scipy for the LP method) computed a result whose
#: *values* are backend-invariant, so the cache must not fork on it.
_PROVENANCE_KEYS = ("cache_hit", "cache_tier", "backend")


def _pt(value: float) -> Interval:
    """Degenerate interval for a point estimate."""
    value = float(value)
    return Interval(lower=value, upper=value)


def _iv_to_json(iv: Interval | None):
    return None if iv is None else [iv.lower, iv.upper]


def _iv_from_json(obj) -> Interval | None:
    return None if obj is None else Interval(lower=obj[0], upper=obj[1])


@dataclass(frozen=True)
class SolveResult:
    """Uniform output of every registered solver.

    Station metrics are tuples indexed like ``network.stations``; entries
    are ``None`` when the invocation did not request/produce that metric
    (e.g. an LP solve restricted to ``metrics=("system_throughput",)``).
    Intervals from bounding methods are certified; point methods return
    zero-width intervals (simulation: the point estimate of the run).
    ``population`` is ``None`` for open networks, which have no fixed job
    count.
    """

    method: str
    station_names: tuple[str, ...]
    population: "int | None"
    utilization: tuple[Interval | None, ...]
    throughput: tuple[Interval | None, ...]
    queue_length: tuple[Interval | None, ...]
    system_throughput: Interval | None
    response_time: Interval | None
    wall_time_s: float = 0.0
    from_cache: bool = False
    fingerprint: str | None = None
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def _station_metric(self, name: str, k: int) -> Interval:
        iv = getattr(self, name)[k]
        if iv is None:
            raise KeyError(
                f"{name}[{k}] was not computed by this {self.method!r} solve "
                f"(request it via the metrics option)"
            )
        return iv

    def utilization_interval(self, k: int) -> Interval:
        """Certified utilization interval of station ``k``."""
        return self._station_metric("utilization", k)

    def throughput_interval(self, k: int) -> Interval:
        """Certified throughput interval of station ``k``."""
        return self._station_metric("throughput", k)

    def queue_length_interval(self, k: int) -> Interval:
        """Certified mean-queue-length interval of station ``k``."""
        return self._station_metric("queue_length", k)

    def utilization_point(self, k: int) -> float:
        """Midpoint of the utilization interval (the value, for point solvers)."""
        return self._station_metric("utilization", k).midpoint

    def throughput_point(self, k: int) -> float:
        """Midpoint of station ``k``'s throughput interval."""
        return self._station_metric("throughput", k).midpoint

    def queue_length_point(self, k: int) -> float:
        """Midpoint of station ``k``'s mean-queue-length interval."""
        return self._station_metric("queue_length", k).midpoint

    def system_throughput_point(self) -> float:
        """Midpoint of the system-throughput interval."""
        if self.system_throughput is None:
            raise KeyError(f"system throughput not computed by {self.method!r}")
        return self.system_throughput.midpoint

    def response_time_point(self) -> float:
        """Midpoint of the response-time interval."""
        if self.response_time is None:
            raise KeyError(f"response time not computed by {self.method!r}")
        return self.response_time.midpoint

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable payload (the on-disk cache format)."""
        return {
            "method": self.method,
            "station_names": list(self.station_names),
            "population": self.population,
            "utilization": [_iv_to_json(iv) for iv in self.utilization],
            "throughput": [_iv_to_json(iv) for iv in self.throughput],
            "queue_length": [_iv_to_json(iv) for iv in self.queue_length],
            "system_throughput": _iv_to_json(self.system_throughput),
            "response_time": _iv_to_json(self.response_time),
            "wall_time_s": self.wall_time_s,
            "fingerprint": self.fingerprint,
            # copied so cached payloads never alias a caller-visible dict;
            # per-invocation cache provenance is stripped (re-stamped on
            # every registry solve, so it must not be frozen into the cache)
            "extra": {
                k: v for k, v in self.extra.items() if k not in _PROVENANCE_KEYS
            },
        }

    @classmethod
    def from_dict(cls, payload: dict, from_cache: bool = False) -> "SolveResult":
        """Rebuild a result from its :meth:`to_dict` payload (cache replay)."""
        population = payload["population"]
        return cls(
            method=payload["method"],
            station_names=tuple(payload["station_names"]),
            population=None if population is None else int(population),
            utilization=tuple(_iv_from_json(v) for v in payload["utilization"]),
            throughput=tuple(_iv_from_json(v) for v in payload["throughput"]),
            queue_length=tuple(_iv_from_json(v) for v in payload["queue_length"]),
            system_throughput=_iv_from_json(payload["system_throughput"]),
            response_time=_iv_from_json(payload["response_time"]),
            wall_time_s=float(payload["wall_time_s"]),
            from_cache=from_cache,
            fingerprint=payload.get("fingerprint"),
            extra=dict(payload.get("extra", {})),
        )


def _make_result(
    network: Network,
    method: str,
    utilization,
    throughput,
    queue_length,
    system_throughput,
    response_time,
    extra: dict | None = None,
) -> SolveResult:
    return SolveResult(
        method=method,
        station_names=tuple(st.name for st in network.stations),
        population=None if network.kind == "open" else network.population,
        utilization=tuple(utilization),
        throughput=tuple(throughput),
        queue_length=tuple(queue_length),
        system_throughput=system_throughput,
        response_time=response_time,
        extra=extra or {},
    )


# ---------------------------------------------------------------------- #
# adapters
# ---------------------------------------------------------------------- #
def _solve_lp(
    network: Network,
    metrics="standard",
    reference: int = 0,
    triples: bool | None = None,
    include_redundant: bool = False,
    lp_method: str = "auto",
    backend: str = "auto",
) -> SolveResult:
    """``backend="auto"`` solves on the persistent HiGHS model when
    scipy's binding imports, else on stateless scipy ``linprog``.

    Both backends answer with the same optima to LP tolerance, so
    ``backend`` is provenance (excluded from the cache fingerprint,
    recorded in ``extra``) exactly like the exact/transient generator
    backend.
    """
    # kind guard lives in BatchLPSolver.__init__ (the only LP entry point)
    solver = BatchLPSolver(
        network,
        triples=triples,
        include_redundant=include_redundant,
        method=lp_method,
        backend=backend,
    )
    bounds = solver.bound_specs(metrics, reference=reference)
    M = network.n_stations
    return _make_result(
        network,
        "lp",
        [bounds.get(f"utilization[{k}]") for k in range(M)],
        [bounds.get(f"throughput[{k}]") for k in range(M)],
        [bounds.get(f"queue_length[{k}]") for k in range(M)],
        bounds.get("system_throughput"),
        bounds.get("response_time"),
        extra={
            "t_build_s": solver.build_time_s,
            "t_solve_s": solver.solve_time_s,
            "n_variables": solver.system.n_variables,
            "n_rows": solver.system.n_rows,
            "n_lp_solves": solver.n_solves,
            "lp_method": solver.method,
            "lp_iterations": solver.n_iterations,
            "lp_fallbacks": solver.n_fallbacks,
            "lp_warm_starts": solver.n_warm_starts,  # solves from the anchor
            "lp_basis_reuse": solver.n_basis_reuse,  # maxes from their min
            "assembly_plan_cached": solver.plan_from_cache,  # always False
            "certified": True,
            "backend": solver.backend,
        },
    )


def _solve_exact(
    network: Network,
    reference: int = 0,
    ctmc_method: str = "auto",
    max_states: int = DENSE_MAX_STATES,
    backend: str = "auto",
) -> SolveResult:
    """``backend="auto"`` goes matrix-free past the ``max_states`` guard.

    The dense path assembles the sparse generator as before; past the
    guard the Kronecker operator solves the same CTMC without building
    ``Q`` instead of raising ``MemoryError``.  Answers are backend-
    invariant, so ``backend`` is excluded from the cache fingerprint and
    recorded only as provenance in ``extra``.
    """
    sol = solve_exact(
        network, method=ctmc_method, max_states=max_states, backend=backend
    )
    M = network.n_stations
    x = sol.system_throughput(reference)
    return _make_result(
        network,
        "exact",
        [_pt(sol.utilization(k)) for k in range(M)],
        [_pt(sol.throughput(k)) for k in range(M)],
        [_pt(sol.mean_queue_length(k)) for k in range(M)],
        _pt(x),
        _pt(network.population / x),
        extra={
            "n_states": int(sol.space.size),
            "exact": True,
            "backend": sol.backend,
        },
    )


def _solve_sim(
    network: Network,
    rng=None,
    horizon_events: int = 200_000,
    warmup_events: int = 20_000,
    reference: int = 0,
    taps=None,
    initial_station: int = 0,
) -> SolveResult:
    sim = simulate(
        network,
        horizon_events=horizon_events,
        warmup_events=warmup_events,
        rng=rng,
        taps=taps,
        initial_station=initial_station,
    )
    M = network.n_stations
    x = sim.system_throughput(reference)
    extra = {
        "duration": float(sim.duration),
        "horizon_events": horizon_events,
        "warmup_events": warmup_events,
        "estimate": True,
    }
    if network.kind != "closed":
        extra["sink_departure_rate"] = sim.sink_departures / sim.duration
        extra["external_arrival_rate"] = sim.external_arrivals / sim.duration
        extra["open_response_time"] = sim.open_response_time()
        extra["open_mean_jobs"] = float(sim.mean_queue_length_open.sum())
    return _make_result(
        network,
        "sim",
        [_pt(sim.utilization[k]) for k in range(M)],
        [_pt(sim.throughput[k]) for k in range(M)],
        [_pt(sim.mean_queue_length[k]) for k in range(M)],
        _pt(x),
        _pt(sim.response_time(reference)),
        extra=extra,
    )


def _solve_qbd_open(network: Network, reference: int = 0) -> SolveResult:
    """Open-network branch of the ``qbd`` adapter (station-wise QBDs)."""
    sol = solve_open_network(network)
    util, thr, qlen = [], [], []
    for k, s in enumerate(sol.stations):
        st = network.stations[k]
        util.append(None if st.kind == "delay" else _pt(s.utilization))
        thr.append(_pt(s.arrival_rate))
        qlen.append(_pt(s.mean_queue_length))
    return _make_result(
        network,
        "qbd",
        util,
        thr,
        qlen,
        _pt(sol.system_throughput),
        _pt(sol.mean_response_time),
        extra={
            "approximation": "station-wise QBD decomposition",
            "arrival_models": [s.arrival_model for s in sol.stations],
            "rho_max": float(np.max(network.open_utilizations)),
        },
    )


def _solve_qbd(network: Network, reference: int = 0) -> SolveResult:
    """Matrix-analytic solve, dispatched on the network kind.

    **Open** networks solve by station-wise QBD decomposition
    (:func:`repro.qbd.opennet.solve_open_network`): exact traffic-equation
    throughputs and utilizations; queue lengths from per-station MAP/M/1
    or MAP/MAP/1 models whose arrival processes are the external MAP
    (thinned by the visit ratio where the stream splits).

    **Closed** networks keep the pre-redesign heavy-traffic approximation:
    a two-station network where a MAP station (the "source") feeds an
    exponential single-server queue is approximated by the open MAP/M/1
    queue of the saturated-source regime (exactly the limiting
    construction of the paper's single-queue predecessors), metrics
    clipped to the population where applicable.

    **Mixed** networks are not supported (closed jobs interleave at the
    same servers, which the decomposition cannot see — use ``sim``).
    """
    if network.kind == "open":
        return _solve_qbd_open(network, reference)
    if network.kind == "mixed":
        raise UnsupportedNetworkError("qbd", "mixed", supported="closed/open")
    if network.n_stations != 2:
        raise NotSupportedError(
            "the qbd method approximates 2-station (source -> server) "
            f"networks; got {network.n_stations} stations"
        )
    exp_idx = [k for k, st in enumerate(network.stations)
               if st.kind == "queue" and st.phases == 1]
    if not exp_idx:
        raise NotSupportedError(
            "the qbd method needs an exponential single-server station"
        )
    # If both are exponential, serve the slower one (the bottleneck).
    server = max(exp_idx, key=lambda k: network.stations[k].mean_service_time)
    source = 1 - server
    arrivals = network.stations[source].service
    q = MapMap1Queue(arrivals, network.stations[server].service)
    if not q.is_stable:
        raise NotSupportedError(
            f"the qbd approximation requires rho < 1; got rho = "
            f"{q.offered_load:.4f} (the server, not the source, saturates)"
        )
    N = network.population
    lam = arrivals.rate
    q_server = min(float(q.mean_queue_length), float(N))
    q_source = max(float(N) - q_server, 0.0)
    util = [None, None]
    qlen = [None, None]
    util[server] = _pt(min(float(q.utilization), 1.0))
    util[source] = _pt(1.0)  # saturated-source regime
    qlen[server] = _pt(q_server)
    qlen[source] = _pt(q_source)
    thr = [_pt(lam), _pt(lam)]
    return _make_result(
        network,
        "qbd",
        util,
        thr,
        qlen,
        _pt(lam),
        _pt(N / lam),
        extra={
            "approximation": "saturated-source MAP/M/1",
            "rho": float(q.offered_load),
            "server_station": int(server),
        },
    )


def _solve_mva(
    network: Network, reference: int = 0, substitute_maps: bool = True
) -> SolveResult:
    """Exact MVA; MAP stations get the explicit "no-ACF" substitution.

    MVA is only defined for product-form (exponential) networks.  When the
    model has MAP stations and ``substitute_maps`` is true (the default),
    each one is replaced by an exponential station with the same mean —
    exactly the paper's "no-ACF model" methodology of Figure 3, i.e. the
    answer a product-form capacity-planning tool would give.  The
    substituted station indices are recorded in
    ``extra["map_stations_substituted"]`` so the approximation is never
    silent; pass ``substitute_maps=False`` to get the strict behaviour
    (:class:`~repro.utils.errors.ValidationError` on MAP stations).
    """
    require_closed(network, "mva")
    target = network
    substituted: list[int] = []
    if substitute_maps:
        from repro.maps.builders import exponential
        from repro.network.stations import Station

        for k, st in enumerate(network.stations):
            if st.phases > 1:
                target = target.with_station(
                    k,
                    Station(
                        name=st.name,
                        service=exponential(1.0 / st.mean_service_time),
                        kind=st.kind,
                        servers=st.servers,
                    ),
                )
                substituted.append(k)
    res = mva(target)
    x_ref = float(res.throughput[reference])
    return _make_result(
        network,
        "mva",
        [_pt(u) if math.isfinite(u) else None for u in res.utilization],
        [_pt(t) for t in res.throughput],
        [_pt(qv) for qv in res.queue_length],
        _pt(x_ref),
        _pt(network.population / x_ref),
        extra={
            "product_form": not substituted,
            "map_stations_substituted": substituted,
        },
    )


def _solve_aba(network: Network, reference: int = 0) -> SolveResult:
    require_closed(network, "aba")
    from repro.analysis.asymptotic import asymptotic_limits

    b = aba_bounds(network)
    M = network.n_stations
    N = network.population
    demands = network.service_demands
    util = []
    for k in range(M):
        if network.stations[k].kind == "delay":
            util.append(None)
        else:
            lo, hi = b.utilization_bounds(float(demands[k]))
            util.append(Interval(lower=lo, upper=hi))
    v = network.visit_ratios
    thr = [
        Interval(lower=b.throughput_lower * v[k], upper=b.throughput_upper * v[k])
        for k in range(M)
    ]
    x = thr[reference]
    qlen = [Interval(lower=0.0, upper=float(N))] * M
    return _make_result(
        network,
        "aba",
        util,
        thr,
        qlen,
        x,
        Interval(lower=N / x.upper, upper=N / x.lower),
        extra={
            "certified": True,
            "first_moment_only": True,
            # The N -> inf operating point the upper bound pins to — also
            # the fluid tier's saturated fixed point (repro.fluid).
            "asymptotic": asymptotic_limits(network).to_dict(),
        },
    )


def _solve_bjb(network: Network, reference: int = 0) -> SolveResult:
    require_closed(network, "bjb")
    b = bjb_bounds(network)
    M = network.n_stations
    N = network.population
    demands = network.service_demands
    v = network.visit_ratios
    util = [
        Interval(
            lower=min(1.0, b.throughput_lower * float(demands[k])),
            upper=min(1.0, b.throughput_upper * float(demands[k])),
        )
        for k in range(M)
    ]
    thr = [
        Interval(lower=b.throughput_lower * v[k], upper=b.throughput_upper * v[k])
        for k in range(M)
    ]
    x = thr[reference]
    qlen = [Interval(lower=0.0, upper=float(N))] * M
    return _make_result(
        network,
        "bjb",
        util,
        thr,
        qlen,
        x,
        Interval(lower=N / x.upper, upper=N / x.lower),
        extra={
            # balanced job bounds hold for product-form networks: with
            # multi-phase (MAP) service they can miss the exact answer
            "certified": all(st.phases == 1 for st in network.stations),
            "first_moment_only": True,
        },
    )


def _solve_decomposition(network: Network, reference: int = 0) -> SolveResult:
    require_closed(network, "decomposition")
    res = decomposition(network)
    M = network.n_stations
    x = float(res.system_throughput) * float(network.visit_ratios[reference])
    return _make_result(
        network,
        "decomposition",
        [_pt(u) if math.isfinite(u) else None for u in res.utilization],
        [_pt(t) for t in res.throughput],
        [_pt(qv) for qv in res.queue_length],
        _pt(x),
        _pt(network.population / x),
        extra={"approximation": "Courtois decomposition-aggregation"},
    )


def _normalized_opts(signature: inspect.Signature, opts: dict) -> dict:
    """Fill in the adapter's keyword defaults before fingerprinting.

    Makes ``solve(net, "exact")`` and ``solve(net, "exact", reference=0)``
    hash to the same cache key — without this, spelled-out defaults would
    silently duplicate cache entries across drivers.
    """
    try:
        bound = signature.bind_partial(**opts)
    except TypeError as exc:
        # Unknown keyword: let the adapter raise its own error on the
        # compute path rather than failing here with a confusing message.
        raise FingerprintError(str(exc)) from exc
    bound.apply_defaults()
    return dict(bound.arguments)


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #
class SolverRegistry:
    """Dispatch ``solve(network, method, **opts)`` with transparent caching.

    Parameters
    ----------
    cache:
        A :class:`~repro.runtime.cache.ResultCache`, or ``None`` (the
        default) to cache nothing.  Only the process-wide default registry,
        :func:`repro.runtime.get_registry`, builds a two-tier ``ResultCache()``
        rooted at ``.repro-cache/`` (``REPRO_CACHE_DIR`` overrides).
    """

    def __init__(self, cache: ResultCache | None = None) -> None:
        self.cache = cache
        self._adapters: dict[
            str, tuple[Callable, bool, tuple[str, ...], type, tuple[str, ...]]
        ] = {}
        #: each adapter's signature, for :func:`_normalized_opts`
        self._signatures: dict[str, inspect.Signature] = {}
        for name, fn, stochastic in (
            ("lp", _solve_lp, False),
            ("exact", _solve_exact, False),
            ("sim", _solve_sim, True),
            ("qbd", _solve_qbd, False),
            ("mva", _solve_mva, False),
            ("aba", _solve_aba, False),
            ("bjb", _solve_bjb, False),
            ("decomposition", _solve_decomposition, False),
        ):
            self.register(
                name,
                fn,
                stochastic=stochastic,
                # live taps record event epochs as a side effect; a cached
                # replay could not re-record them, so such calls always run
                uncacheable_opts=("taps",) if name == "sim" else (),
                # backend changes how, never what: dense and operator
                # generator solves — and persistent-HiGHS vs stateless
                # scipy LP solves — must share one cache entry
                fingerprint_invariant_opts=(
                    ("backend",) if name in ("exact", "lp") else ()
                ),
            )
        # Imported here, not at module top: TransientResult subclasses
        # SolveResult, so repro.transient can only load once this module
        # has finished initializing.
        from repro.transient.result import TransientResult
        from repro.transient.solver import solve_transient

        self.register(
            "transient",
            solve_transient,
            result_cls=TransientResult,
            fingerprint_invariant_opts=("backend",),
        )
        # Same lazy-import layering: FluidResult extends TransientResult.
        from repro.fluid.result import FluidResult
        from repro.fluid.solver import solve_fluid

        self.register("fluid", solve_fluid, result_cls=FluidResult)

    def register(
        self,
        name: str,
        adapter: Callable,
        stochastic: bool = False,
        uncacheable_opts: tuple[str, ...] = (),
        result_cls: type = SolveResult,
        fingerprint_invariant_opts: tuple[str, ...] = (),
    ) -> None:
        """Add (or replace) a solver adapter.

        ``stochastic`` adapters are only cached when called with an integer
        ``rng`` seed — an unseeded run must stay a fresh random draw.
        ``uncacheable_opts`` names side-effecting options (e.g. the
        simulator's ``taps``) that force a fresh computation when set.
        ``result_cls`` is the :class:`SolveResult` (sub)class cache hits
        are replayed through — adapters returning enriched results (e.g.
        the transient solver's trajectory-carrying
        :class:`~repro.transient.result.TransientResult`) register theirs
        so a replay reconstructs the same type.
        ``fingerprint_invariant_opts`` names options that change *how* a
        result is computed but never its value (e.g. the exact/transient
        ``backend``); they are stripped before fingerprinting so all
        spellings share one cache entry.
        """
        self._adapters[name] = (
            adapter,
            stochastic,
            tuple(uncacheable_opts),
            result_cls,
            tuple(fingerprint_invariant_opts),
        )
        self._signatures[name] = inspect.signature(adapter)

    @property
    def methods(self) -> tuple[str, ...]:
        """Registered method names."""
        return tuple(self._adapters)

    def is_stochastic(self, method: str) -> bool:
        """True when the method consumes an ``rng`` seed (e.g. simulation)."""
        if method not in self._adapters:
            raise KeyError(
                f"unknown solve method {method!r}; registered: "
                f"{', '.join(self.methods)}"
            )
        return self._adapters[method][1]

    def solve(
        self,
        network: Network,
        method: str = "lp",
        cache: bool = True,
        **opts,
    ) -> SolveResult:
        """Solve ``network`` with the named method, serving from cache if hit.

        Every returned result carries ``extra["cache_hit"]`` and
        ``extra["cache_tier"]`` (``"memory"``/``"disk"``/``"miss"``); on a
        hit ``wall_time_s`` replays the *original* compute time, so
        provenance — not timing — is how a replay is distinguished from a
        fast solve.
        """
        try:
            adapter, stochastic, uncacheable, result_cls, fp_invariant = (
                self._adapters[method]
            )
        except KeyError:
            raise KeyError(
                f"unknown solve method {method!r}; registered: "
                f"{', '.join(self.methods)}"
            ) from None
        if "reference" in opts:  # every built-in method takes one
            require_reference(network, opts["reference"])

        tele = obs.get_telemetry()
        with tele.span("registry.solve", method=method) as span:
            use_cache = cache and self.cache is not None
            if stochastic and not isinstance(opts.get("rng"), (int, np.integer)):
                use_cache = False  # unseeded runs must stay random
            if any(opts.get(name) is not None for name in uncacheable):
                use_cache = False  # side-effecting option (e.g. live taps)
            key = None
            if use_cache:
                t_fp = obs.clock()
                try:
                    normalized = _normalized_opts(self._signatures[method], opts)
                    for name in fp_invariant:
                        normalized.pop(name, None)
                    key = fingerprint_solve(network, method, normalized)
                except FingerprintError:
                    use_cache = False  # non-serializable opts (taps, generators)
                span.set("t_fingerprint_s", obs.clock() - t_fp)
            tier = "miss"
            if use_cache and key is not None:
                payload, tier = self.cache.lookup(key)
                if payload is not None:
                    span.set("cache_hit", True)
                    span.set("cache_tier", tier)
                    span.count("registry.cache_hit")
                    result = result_cls.from_dict(payload, from_cache=True)
                    result.extra["cache_hit"] = True
                    result.extra["cache_tier"] = tier
                    return result

            span.set("cache_hit", False)
            span.set("cache_tier", "miss")
            span.count("registry.cache_miss")
            t0 = obs.clock()
            result = adapter(network, **opts)
            result = replace(
                result, wall_time_s=obs.clock() - t0, fingerprint=key
            )
            if use_cache and key is not None:
                self.cache.put(key, result.to_dict())
                span.count("registry.cache_store")
            result.extra["cache_hit"] = False
            result.extra["cache_tier"] = "miss"
            return result

    def cache_stats(self) -> dict:
        """Hit/miss counters of the attached cache (empty dict if none)."""
        return self.cache.stats.as_dict() if self.cache is not None else {}
