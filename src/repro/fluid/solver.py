"""The registry adapter: ``solve(network, method="fluid", ...)``.

Mirrors :mod:`repro.transient.solver`'s layering (lives outside the
registry module so the import graph stays acyclic; pulled in lazily by
:class:`~repro.runtime.registry.SolverRegistry`).

Option surface (all canonically fingerprintable):

``times``
    ``None`` (default) solves the **steady state** directly from the
    closed-form fluid fixed point — the ``N = 10^6`` path, no states, no
    integration.  ``"auto"`` derives the transient default grid (the
    same 33-point ``[0, 8 N D_max]`` horizon the CTMC transient method
    uses); a sequence of floats integrates the ODE and samples it there.
``pi0``
    Initial-state spec, the transient spec language reinterpreted in
    fluid terms: ``loaded:<st>`` puts all ``N`` jobs at the station with
    every phase at its stationary law; ``burst:<st>`` starts from the
    fixed-point occupancies with the named station's phase pinned to its
    bursty phase; ``steady`` starts at the fixed point (trajectories
    must stay flat).
``ode_method`` / ``rtol`` / ``atol``
    Stiff-integrator controls (:mod:`repro.fluid.ode`).
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import Interval
from repro.fluid.field import FluidField
from repro.fluid.fixedpoint import FluidFixedPoint, fluid_fixed_point
from repro.fluid.ode import DEFAULT_ATOL, DEFAULT_RTOL, integrate_fluid
from repro.fluid.result import FluidResult
from repro.network.model import Network, require_closed
from repro.transient.initial import parse_pi0_spec
from repro.utils.errors import ValidationError
from repro.workloads.bursty import bursty_phase

__all__ = ["fluid_initial_state", "solve_fluid"]


def _pt(value: float) -> Interval:
    value = float(value)
    return Interval(lower=value, upper=value)


def fluid_initial_state(
    network: Network, field: FluidField, spec: str, point: FluidFixedPoint
) -> np.ndarray:
    """Compile a pi0 spec into a packed fluid state (mirrors the CTMC
    compiler of :mod:`repro.transient.initial`, on fluid coordinates)."""
    kind, station = parse_pi0_spec(network, spec)
    thetas = [
        np.asarray(st.service.phase_stationary, dtype=float)
        for st in network.stations
    ]
    if kind == "steady":
        return point.state_vector(field)
    if kind == "loaded":
        n = np.zeros(network.n_stations)
        n[station] = float(network.population)
        return field.pack(n, thetas)
    # kind == "burst": fixed-point occupancies, bursty phase pinned.
    service = network.stations[station].service
    if service.order < 2:
        raise ValidationError(
            f"station {network.stations[station].name!r} has a single-phase "
            "service process: there is no bursty phase to condition on"
        )
    phase = bursty_phase(service, role="service")
    thetas[station] = np.zeros(service.order)
    thetas[station][phase] = 1.0
    return field.pack(point.queue_lengths, thetas)


def solve_fluid(
    network: Network,
    times=None,
    pi0: str = "loaded:0",
    reference: int = 0,
    ode_method: str = "auto",
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> FluidResult:
    """Adapter behind ``registry.solve(network, method="fluid", ...)``.

    The state dimension is ``M + sum_k K_k`` regardless of ``N`` — no
    state space is ever enumerated, which is what lets this method
    answer ``N = 10^6`` scenarios in milliseconds where every other
    tier walks a population-indexed structure.
    """
    require_closed(network, "fluid")
    field = FluidField(network)
    point = fluid_fixed_point(network, field=field)
    M = network.n_stations
    N = network.population
    v = np.asarray(network.visit_ratios, dtype=float)
    limits = point.limits

    util_inf = [point.utilization(k, network) for k in range(M)]
    extra = {
        "fluid_dim": field.dim,
        "saturated": point.saturated,
        "bottlenecks": list(point.bottlenecks),
        "fixed_point_residual": point.residual,
        "queue_length_inf": [float(q) for q in point.queue_lengths],
        "utilization_inf": [
            None if u is None else float(u) for u in util_inf
        ],
        "throughput_inf": [float(point.throughput * v[k]) for k in range(M)],
        "asymptotic": limits.to_dict(),
        "approximation": "first-order phase-aware mean field",
    }

    if times is None:
        # Steady solve: the fixed point is the answer; no grid.
        x_ref = point.throughput * float(v[reference])
        return FluidResult(
            method="fluid",
            station_names=tuple(st.name for st in network.stations),
            population=N,
            utilization=tuple(
                None if u is None else _pt(u) for u in util_inf
            ),
            throughput=tuple(_pt(point.throughput * v[k]) for k in range(M)),
            queue_length=tuple(_pt(q) for q in point.queue_lengths),
            system_throughput=_pt(x_ref),
            response_time=_pt(N / x_ref) if x_ref > 0 else None,
            extra=extra,
        )

    if isinstance(times, str):
        if times != "auto":
            raise ValidationError(
                f"times must be None, 'auto', or a sequence; got {times!r}"
            )
        from repro.transient.solver import default_time_grid

        grid = default_time_grid(network)
    else:
        grid = tuple(float(t) for t in times)

    x0 = fluid_initial_state(network, field, pi0, point)
    out = integrate_fluid(
        field, x0, grid, method=ode_method, rtol=rtol, atol=atol
    )
    states = out["states"]
    n_t = states[:, :M]
    mu_t = np.stack([field.completion_rates(x) for x in states])
    caps = np.array(
        [
            1.0 if st.kind == "queue"
            else float(st.servers) if st.kind == "multiserver"
            else np.inf
            for st in network.stations
        ]
    )
    with np.errstate(invalid="ignore"):
        util_t = np.minimum(n_t, caps[None, :]) / caps[None, :]
    util_t[:, np.isinf(caps)] = 0.0  # delay: no meaningful utilization
    n_star = np.asarray(point.queue_lengths, dtype=float)
    distance = np.abs(n_t - n_star[None, :]).sum(axis=1) / (2.0 * max(N, 1))

    latest = int(np.argmax(np.asarray(grid)))  # grids keep caller order
    x_ref = float(mu_t[latest, reference])
    extra.update(
        {
            "pi0": pi0,
            "ode": out["stats"],
            "bottleneck_switches": out["events"],
        }
    )
    return FluidResult(
        method="fluid",
        station_names=tuple(st.name for st in network.stations),
        population=N,
        utilization=tuple(
            None if network.stations[k].kind == "delay"
            else _pt(util_t[latest, k])
            for k in range(M)
        ),
        throughput=tuple(_pt(mu_t[latest, k]) for k in range(M)),
        queue_length=tuple(_pt(n_t[latest, k]) for k in range(M)),
        system_throughput=_pt(x_ref),
        response_time=_pt(N / x_ref) if x_ref > 0 else None,
        extra=extra,
        times=tuple(float(t) for t in grid),
        queue_length_t=tuple(
            tuple(float(val) for val in n_t[:, k]) for k in range(M)
        ),
        utilization_t=tuple(
            tuple(float(val) for val in util_t[:, k]) for k in range(M)
        ),
        throughput_t=tuple(
            tuple(float(val) for val in mu_t[:, k]) for k in range(M)
        ),
        distance_tv=tuple(float(val) for val in distance),
    )
