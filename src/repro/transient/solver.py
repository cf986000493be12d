"""The registry adapter: ``solve(network, method="transient", ...)``.

Lives here (not in :mod:`repro.runtime.registry`) so the import graph
stays acyclic: :class:`~repro.transient.result.TransientResult` extends
``SolveResult`` from the registry module, and the registry pulls this
adapter in lazily when a :class:`~repro.runtime.registry.SolverRegistry`
is instantiated.

Option surface (all canonically fingerprintable, so transient solves
round-trip the two-tier cache like every other method):

``times``
    The grid, a tuple of floats; ``None`` derives a default 33-point
    linear grid over ``[0, 8 N D_max]`` (eight bottleneck drain scales).
``pi0``
    Initial-state spec string (:mod:`repro.transient.initial`).
``accumulate``
    Also report time-averaged occupancies.
``engine``
    ``auto`` / ``uniformization`` / ``expm`` kernel selection.
``backend``
    ``auto`` / ``dense`` / ``operator`` generator representation.  Not
    part of the fingerprint: the answers are backend-invariant, so dense
    and operator solves of one model share a cache entry.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import Interval
from repro.markov.uniformization import DEFAULT_SERIES_TOL
from repro.network.exact import DENSE_MAX_STATES
from repro.network.model import Network, require_closed
from repro.transient.metrics import transient_trajectories
from repro.transient.result import TransientResult

__all__ = ["default_time_grid", "solve_transient"]

#: Points in the derived default grid.
DEFAULT_GRID_POINTS = 33

#: Default horizon in units of ``N * D_max`` (population times bottleneck
#: demand, the asymptotic time to push every job once through the
#: bottleneck).  Eight drain scales: burstiness and near-balanced demands
#: stretch relaxation well past the fluid estimate, and a too-long tail
#: costs little (the Poisson sweep is shared across the grid anyway).
DEFAULT_HORIZON_DRAIN_SCALES = 8.0


def _pt(value: float) -> Interval:
    value = float(value)
    return Interval(lower=value, upper=value)


def default_time_grid(network: Network) -> tuple[float, ...]:
    """The grid used when a transient solve names no times.

    Linear over ``[0, 8 N D_max]``: long enough that a fully backlogged
    bottleneck drains and the chain is near stationarity at the tail,
    dense enough that drain/warm-up crossings interpolate cleanly.
    """
    demands = np.asarray(network.service_demands, dtype=float)
    queue = [
        float(demands[k])
        for k, st in enumerate(network.stations)
        if st.kind != "delay"
    ]
    d_max = max(queue) if queue else float(demands.max())
    horizon = DEFAULT_HORIZON_DRAIN_SCALES * network.population * d_max
    return tuple(
        float(t) for t in np.linspace(0.0, horizon, DEFAULT_GRID_POINTS)
    )


def solve_transient(
    network: Network,
    times=None,
    pi0: str = "loaded:0",
    reference: int = 0,
    tol: float = DEFAULT_SERIES_TOL,
    engine: str = "auto",
    accumulate: bool = False,
    max_states: int = DENSE_MAX_STATES,
    backend: str = "auto",
) -> TransientResult:
    """Adapter behind ``registry.solve(network, method="transient", ...)``.

    ``backend="auto"`` dispatches networks past the ``max_states`` guard
    to the matrix-free operator path instead of raising; the answers are
    backend-invariant, so ``backend`` is provenance (not part of the cache
    fingerprint or the result payload).
    """
    require_closed(network, "transient")
    grid = default_time_grid(network) if times is None else tuple(
        float(t) for t in times
    )
    traj = transient_trajectories(
        network,
        grid,
        pi0=pi0,
        tol=tol,
        engine=engine,
        accumulate=accumulate,
        max_states=max_states,
        backend=backend,
    )
    M = network.n_stations
    latest = int(np.argmax(traj.times))  # grids keep the caller's order
    x_ref = float(traj.throughput[latest, reference])
    extra = {
        "pi0": pi0,
        "queue_length_inf": [float(v) for v in traj.queue_length_inf],
        "utilization_inf": [float(v) for v in traj.utilization_inf],
        "throughput_inf": [float(v) for v in traj.throughput_inf],
        # None (not NaN) when the grid ends before mixing: the payload
        # stays valid for strict JSON consumers of the disk cache.
        "warmup_time_tv01": (
            float(traj.warmup_time()) if np.isfinite(traj.warmup_time()) else None
        ),
        **traj.stats,
    }
    return TransientResult(
        method="transient",
        station_names=tuple(st.name for st in network.stations),
        population=network.population,
        utilization=tuple(_pt(traj.utilization[latest, k]) for k in range(M)),
        throughput=tuple(_pt(traj.throughput[latest, k]) for k in range(M)),
        queue_length=tuple(_pt(traj.queue_length[latest, k]) for k in range(M)),
        system_throughput=_pt(x_ref),
        response_time=_pt(network.population / x_ref) if x_ref > 0 else None,
        extra=extra,
        times=tuple(float(t) for t in traj.times),
        queue_length_t=tuple(
            tuple(float(v) for v in traj.queue_length[:, k]) for k in range(M)
        ),
        utilization_t=tuple(
            tuple(float(v) for v in traj.utilization[:, k]) for k in range(M)
        ),
        throughput_t=tuple(
            tuple(float(v) for v in traj.throughput[:, k]) for k in range(M)
        ),
        distance_tv=tuple(float(v) for v in traj.distance_tv),
        mean_occupancy_t=()
        if traj.mean_occupancy is None
        else tuple(
            tuple(float(v) for v in traj.mean_occupancy[:, k]) for k in range(M)
        ),
    )
