"""Transient trajectories of closed MAP networks, and metrics on them.

Projects the engine's state-space distributions ``pi(t)`` down to the
station metrics the paper's steady-state machinery reports — per-station
mean queue length ``E[N_k(t)]``, busy probability ``U_k(t)``, departure
rate ``X_k(t)`` — plus the two quantities only a transient analysis can
see: the **distance to stationarity** (total variation ``TV(pi(t),
pi_inf)``, a principled warm-up/mixing-time estimate) and, when the engine
accumulates, the **time-averaged occupancy** ``(1/t) integral_0^t E[N_k]``.

The scalar summaries (:func:`time_to_drain_from`, :func:`warmup_time_from`)
work on plain ``(times, series)`` arrays so they apply equally to a fresh
:class:`TransientTrajectory`, a cache-replayed
:class:`~repro.transient.result.TransientResult`, and simulated
trajectories from :mod:`repro.transient.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.markov.ctmc import steady_state_ctmc
from repro.markov.uniformization import DEFAULT_SERIES_TOL, UniformizedOperator
from repro.network.exact import DENSE_MAX_STATES, generator_for
from repro.network.model import Network, require_closed
from repro.network.statespace import NetworkStateSpace
from repro.transient.engine import transient_grid
from repro.transient.initial import initial_distribution

__all__ = [
    "TransientTrajectory",
    "time_to_drain_from",
    "transient_trajectories",
    "warmup_time_from",
]

#: Default relaxation fraction: "drained" means the excess over the
#: stationary mean has decayed to 5% of its initial value.
DRAIN_RELAXATION = 0.05

#: Default total-variation threshold for the warm-up (mixing) estimate.
WARMUP_TV_EPS = 0.01


def _first_crossing(times: np.ndarray, series: np.ndarray, level: float) -> float:
    """First time ``series`` falls to ``level``, linearly interpolated.

    ``nan`` when the series never reaches the level on the grid.  The
    series need not be monotone; the *first* downward crossing wins.
    """
    below = series <= level
    if not below.any():
        return float("nan")
    i = int(np.argmax(below))
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    y0, y1 = series[i - 1], series[i]
    if y0 == y1:
        return float(t1)
    return float(t0 + (y0 - level) / (y0 - y1) * (t1 - t0))


def time_to_drain_from(
    times: np.ndarray,
    queue_length: np.ndarray,
    stationary_mean: float,
    relaxation: float = DRAIN_RELAXATION,
) -> float:
    """Time until a backlog has relaxed toward its stationary mean.

    Defined as the first (interpolated) time where the *excess*
    ``E[N(t)] - E[N(inf)]`` has decayed to ``relaxation`` times its
    initial value.  Returns ``0.0`` when the trajectory starts at (or
    below) the target and ``nan`` when the grid ends before draining.
    """
    times = np.asarray(times, dtype=float)
    q = np.asarray(queue_length, dtype=float)
    excess0 = q[0] - stationary_mean
    if excess0 <= 0.0:
        return 0.0
    return _first_crossing(times, q, stationary_mean + relaxation * excess0)


def warmup_time_from(
    times: np.ndarray, distance_tv: np.ndarray, eps: float = WARMUP_TV_EPS
) -> float:
    """First (interpolated) time the TV distance to stationarity is <= eps.

    The principled warm-up estimate: sampling any functional after this
    time is within ``eps`` of its stationary expectation.  ``nan`` when
    the grid ends before mixing.
    """
    return _first_crossing(
        np.asarray(times, dtype=float), np.asarray(distance_tv, dtype=float), eps
    )


@dataclass(frozen=True)
class TransientTrajectory:
    """Station-metric trajectories of one transient solve.

    Trajectory arrays are ``(n_times, M)``; the ``*_inf`` arrays hold the
    stationary (``t -> inf``) reference values computed from the same
    generator, so limits are comparable bit-for-bit with
    :func:`repro.network.exact.solve_exact`.
    """

    network: Network
    pi0_spec: str
    times: np.ndarray
    queue_length: np.ndarray
    utilization: np.ndarray
    throughput: np.ndarray
    distance_tv: np.ndarray
    queue_length_inf: np.ndarray
    utilization_inf: np.ndarray
    throughput_inf: np.ndarray
    #: Time-averaged occupancy ``(1/t) integral_0^t E[N_k(s)] ds`` (row of
    #: the t=0 point is the instantaneous value); None unless accumulated.
    mean_occupancy: "np.ndarray | None"
    #: Engine statistics (method, n_matvecs, n_segments, q, n_states).
    stats: dict

    def time_to_drain(
        self, station: int, relaxation: float = DRAIN_RELAXATION
    ) -> float:
        """Relaxation time of station ``station``'s mean queue length."""
        return time_to_drain_from(
            self.times,
            self.queue_length[:, station],
            float(self.queue_length_inf[station]),
            relaxation,
        )

    def warmup_time(self, eps: float = WARMUP_TV_EPS) -> float:
        """Mixing-time estimate: first time ``TV(pi(t), pi_inf) <= eps``."""
        return warmup_time_from(self.times, self.distance_tv, eps)


def _metric_weights(
    network: Network, space: NetworkStateSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-station projection vectors over the flat state space.

    Returns ``(W_qlen, W_util, W_thr)``, each ``(S, M)``, so trajectories
    are single matmuls ``pis @ W`` over the whole grid.
    """
    comps = space.comp.states  # (Sc, M)
    M = network.n_stations
    S = space.size
    n_phase = space.n_phase
    W_qlen = np.empty((S, M))
    W_util = np.empty((S, M))
    W_thr = np.empty((S, M))
    digits = space.phase_digits
    for k, st in enumerate(network.stations):
        d1_by_phase = st.service.D1.sum(axis=1)[digits[:, k]]  # (n_phase,)
        scale = st.rate_scale(comps[:, k])  # (Sc,) — zero at n_k = 0
        W_qlen[:, k] = np.repeat(comps[:, k].astype(float), n_phase)
        W_util[:, k] = np.repeat((comps[:, k] >= 1).astype(float), n_phase)
        W_thr[:, k] = (scale[:, None] * d1_by_phase[None, :]).ravel()
    return W_qlen, W_util, W_thr


def transient_trajectories(
    network: Network,
    times,
    pi0: str = "loaded:0",
    tol: float = DEFAULT_SERIES_TOL,
    engine: str = "auto",
    accumulate: bool = False,
    max_states: int = DENSE_MAX_STATES,
    backend: str = "dense",
) -> TransientTrajectory:
    """Solve the network's transient CTMC and project station metrics.

    Parameters
    ----------
    network:
        The closed MAP network.
    times:
        Time grid (any order; trajectories come back in the given order).
    pi0:
        Initial-state spec string (see :mod:`repro.transient.initial`).
    tol:
        Poisson-series truncation tolerance.
    engine:
        ``"auto"``, ``"uniformization"``, or ``"expm"`` — forwarded to
        :func:`repro.transient.engine.transient_grid`.
    accumulate:
        Also produce time-averaged occupancies (uniformization only).
    max_states:
        Guard rail of the dense backend against enumerating/assembling a
        prohibitive joint space.
    backend:
        ``"dense"`` (assemble the sparse generator; the default),
        ``"operator"`` (matrix-free Kronecker generator: the stationary
        reference solves via Krylov and the uniformization sweep runs
        through the operator, with ``Q`` never built), or ``"auto"``;
        see :func:`repro.network.exact.generator_for`.
    """
    require_closed(network, "transient")
    space, Q, backend = generator_for(network, max_states, backend)
    pi_inf = steady_state_ctmc(Q)
    pi0_vec = initial_distribution(network, space, pi0, pi_inf=pi_inf)
    operator = UniformizedOperator(Q)
    grid = transient_grid(
        Q,
        pi0_vec,
        times,
        tol=tol,
        accumulate=accumulate,
        method=engine,
        operator=operator,
    )

    W_qlen, W_util, W_thr = _metric_weights(network, space)
    pis = grid.distributions
    occupancy = None
    if grid.integrals is not None:
        t = grid.times
        with np.errstate(invalid="ignore", divide="ignore"):
            occupancy = (grid.integrals @ W_qlen) / t[:, None]
        # The t = 0 average is the instantaneous value, not 0/0.
        occupancy[t == 0.0] = (pis @ W_qlen)[t == 0.0]
    return TransientTrajectory(
        network=network,
        pi0_spec=pi0,
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
            "backend": backend,
            "n_matvecs": grid.n_matvecs,
            "n_segments": grid.n_segments,
            "q": grid.q,
            "n_states": int(space.size),
        },
    )
