"""Vectorized multi-time-point uniformization: the transient engine.

Generalizes :func:`repro.markov.uniformization.transient_distribution`
from one ``(pi0, t)`` call into a kernel over a whole time grid:

* **one Poisson-series sweep per segment** — the vector iterates
  ``pi0, pi0 P, pi0 P^2, ...`` are computed once and every grid point in
  the segment accumulates them under its own Poisson weights, so a
  50-point grid costs ``O(q t_max)`` sparse matvecs instead of
  ``O(q * sum_i t_i)``;
* **windowed accumulation** — Poisson term ``k`` is added only to the
  points where its weight exceeds ``floor = tol / (100 (max_terms + 1))``.
  ``Poisson(k; q dt)`` is unimodal in ``dt``, so those points are one slice
  of the ascending offsets and a term touches a few rows, not the whole
  grid.  A point drops at most one weight ``<= floor`` per term, so at
  most ``(max_terms + 1) * floor = tol / 100`` of its mass in total; the
  accumulated weight, the convergence test, the truncation error and the
  matvec count are those of the unwindowed sweep;
* **checkpointed restarts** — when the largest offset in flight would need
  more than :data:`SEGMENT_TERM_BUDGET` series terms, the sweep restarts
  from the last completed grid point's distribution, bounding per-segment
  series length (and the per-term weight-update work) on long grids;
* **accumulated occupancy** — the same sweep optionally produces
  ``L(t) = integral_0^t pi(s) ds`` via the Erlang tail identity
  ``integral_0^t Poisson(k; q s) ds = P[Pois(qt) > k] / q``, giving
  time-averaged occupancies without a second pass;
* **``expm_multiply`` fallback** — Krylov-based matrix exponentials for
  generators whose uniformization rate makes the Poisson series
  impractically long (stiff models), selected explicitly or on a
  :class:`~repro.utils.errors.SeriesTruncationError` under ``method="auto"``;
  each run of equal grid steps is one interval call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.markov.uniformization import (
    DEFAULT_SERIES_TOL,
    UniformizedOperator,
    max_series_terms,
    series_shortfall_allowance,
    validate_pi0,
)
from repro.utils.errors import NotSupportedError, SeriesTruncationError

__all__ = ["SEGMENT_TERM_BUDGET", "TransientGrid", "transient_grid"]

#: Poisson-term budget per checkpointed segment.  Segments restart from the
#: last completed grid point once the next point's series would exceed this
#: many terms; large enough that typical grids run in one sweep, small
#: enough that the per-term weight updates (O(points-in-segment) each)
#: never dominate the sparse matvecs.
SEGMENT_TERM_BUDGET = 20_000

#: Relative tolerance under which consecutive grid steps count as equal
#: and share one interval ``expm_multiply`` call.
_EQUAL_STEP_RTOL = 1e-12


@dataclass(frozen=True)
class TransientGrid:
    """Transient distributions (and optional running integrals) on a grid.

    Attributes
    ----------
    times:
        The requested time points, in the caller's order.
    distributions:
        ``(len(times), S)`` array; row ``i`` is ``pi(times[i])``.
    integrals:
        ``(len(times), S)`` array of ``integral_0^t pi(s) ds`` rows, or
        ``None`` unless ``accumulate=True``.  Row sums equal ``times[i]``
        (total occupancy time is conserved).
    q:
        Uniformization rate used (0.0 on the ``expm`` path).
    n_matvecs:
        Sparse matrix-vector products spent — the deterministic cost
        measure the reuse benchmark gates on.
    n_segments:
        Number of checkpointed sweep segments (1 unless the grid was long
        enough to trip :data:`SEGMENT_TERM_BUDGET`).
    method:
        ``"uniformization"`` or ``"expm"`` — the kernel that actually ran.
    """

    times: np.ndarray
    distributions: np.ndarray
    integrals: "np.ndarray | None"
    q: float
    n_matvecs: int
    n_segments: int
    method: str

    def distribution_at(self, i: int) -> np.ndarray:
        """Row ``i`` of :attr:`distributions` (convenience accessor)."""
        return self.distributions[i]


def _validated_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("times must be finite and >= 0")
    return t


def _sweep_segment(
    op: UniformizedOperator,
    start_vec: np.ndarray,
    offsets: np.ndarray,
    tol: float,
    accumulate: bool,
) -> tuple[np.ndarray, "np.ndarray | None", int, int]:
    """One shared Poisson sweep over ascending ``offsets`` from ``start_vec``.

    Returns ``(points, point_integrals, n_matvecs, n_terms)`` where
    ``points`` is ``(len(offsets), S)`` and ``point_integrals`` the
    per-offset ``integral_0^dt`` rows (or ``None``); ``n_terms`` counts
    the Poisson weights applied.  Offsets equal to zero are the start
    vector itself.
    """
    n, S = len(offsets), len(start_vec)
    out = np.zeros((n, S))
    integ = np.zeros((n, S)) if accumulate else None
    qdt = op.q * offsets
    positive = qdt > 0.0
    if not positive.any():
        out[:] = start_vec
        return out, integ, 0, 0

    with np.errstate(divide="ignore"):
        log_qdt = np.where(positive, np.log(np.where(positive, qdt, 1.0)), -np.inf)
    log_w = -qdt  # log Poisson(0; qdt); exact 1.0 weight at dt == 0
    acc = np.zeros(n)
    vec = start_vec.copy()
    k = 0
    matvecs = 0
    terms = 0
    max_terms = max_series_terms(float(qdt.max()))
    # Window floor: each point drops at most tol / 100 of its mass.
    floor = tol / (100.0 * (max_terms + 1))
    active = np.ones(n, dtype=bool)
    while active.any():
        if k > max_terms:
            # The term guard fired with unconverged points.  A shortfall
            # within the float-drift allowance is round-off on a fully
            # swept series (normalize below); anything larger is a real
            # truncation and must surface as the structured error.
            shortfall = 1.0 - acc[active]
            if shortfall.max() > series_shortfall_allowance(tol, k):
                worst = int(np.argmin(acc))
                raise SeriesTruncationError(
                    qt=float(qdt[worst]),
                    terms=k,
                    accumulated=float(acc[worst]),
                    tol=tol,
                )
            break
        w = np.where(active, np.exp(log_w), 0.0)
        # Poisson(k; q dt) is unimodal in dt, so the points this term
        # reaches form one slice of the ascending offsets.
        hit = np.flatnonzero(w > floor)
        if hit.size:
            lo, hi = hit[0], hit[-1] + 1
            out[lo:hi] += w[lo:hi, None] * vec[None, :]
        acc += w
        terms += 1
        if accumulate:
            # Erlang tail identity: integral_0^dt Poisson(k; q s) ds
            # = P[Pois(q dt) > k] / q = (1 - acc_after_this_term) / q.
            # Not windowed: this weight stays large below the mode.
            idx = np.nonzero(active)[0]
            integ[idx] += (
                np.clip(1.0 - acc[idx], 0.0, None)[:, None] * vec[None, :] / op.q
            )
        active = (1.0 - acc) > series_shortfall_allowance(tol, k)
        if not active.any():
            break
        k += 1
        log_w = log_w + log_qdt - np.log(k)
        vec = op.step(vec)
        matvecs += 1
    # Normalize away the truncated tail (weights sum to acc_i <= 1).
    out /= np.where(acc > 0.0, acc, 1.0)[:, None]
    return out, integ, matvecs, terms


def _grid_uniformization(
    op: UniformizedOperator,
    pi0: np.ndarray,
    times_sorted: np.ndarray,
    tol: float,
    accumulate: bool,
    segment_terms: int,
) -> tuple[np.ndarray, "np.ndarray | None", int, int, int]:
    """Checkpointed shared-sweep evaluation over an ascending time grid."""
    n = len(times_sorted)
    S = len(pi0)
    dists = np.empty((n, S))
    integrals = np.empty((n, S)) if accumulate else None

    if op.q == 0.0:  # Q == 0: the distribution never moves
        dists[:] = pi0
        if accumulate:
            integrals[:] = times_sorted[:, None] * pi0[None, :]
        return dists, integrals, 0, 1, 0

    matvecs = 0
    n_terms = 0
    n_segments = 0
    start = 0
    ckpt_time = 0.0
    ckpt_vec = pi0
    ckpt_integral = np.zeros(S) if accumulate else None
    while start < n:
        # Greedily extend the segment while its largest offset stays
        # within the per-segment term budget (always take one point).
        stop = start + 1
        while (
            stop < n
            and max_series_terms(op.q * (times_sorted[stop] - ckpt_time))
            <= segment_terms
        ):
            stop += 1
        offsets = times_sorted[start:stop] - ckpt_time
        out, integ, mv, nt = _sweep_segment(op, ckpt_vec, offsets, tol, accumulate)
        dists[start:stop] = out
        matvecs += mv
        n_terms += nt
        n_segments += 1
        if accumulate:
            integrals[start:stop] = ckpt_integral[None, :] + integ
            ckpt_integral = integrals[stop - 1]
        ckpt_time = times_sorted[stop - 1]
        ckpt_vec = dists[stop - 1]
        start = stop
    return dists, integrals, matvecs, n_segments, n_terms


def _grid_expm(
    Q: sp.csr_matrix, pi0: np.ndarray, times_sorted: np.ndarray
) -> np.ndarray:
    """Sequential ``expm_multiply`` fallback (point distributions only).

    Consecutive steps equal to within :data:`_EQUAL_STEP_RTOL` share one
    interval call, so its norm estimation and parameter choice run once
    per run of equal steps rather than once per point; a non-uniform grid
    makes one such call per step.
    """
    from scipy.sparse.linalg import expm_multiply

    QT = Q.T.tocsc()
    n = len(times_sorted)
    dists = np.empty((n, len(pi0)))
    steps = np.diff(times_sorted, prepend=0.0)
    vec = pi0
    i = 0
    while i < n:
        step = steps[i]
        j = i + 1
        if step > 0.0:
            while j < n and abs(steps[j] - step) <= _EQUAL_STEP_RTOL * step:
                j += 1
            span = times_sorted[j - 1] - (times_sorted[i - 1] if i else 0.0)
            run = expm_multiply(
                QT, vec, start=0.0, stop=span, num=j - i + 1, endpoint=True
            )
            dists[i:j] = run[1:]
            vec = run[-1]
        else:
            dists[i] = vec
        i = j
    # expm_multiply is not probability-aware: clip round-off and renormalize.
    np.clip(dists, 0.0, None, out=dists)
    dists /= dists.sum(axis=1, keepdims=True)
    return dists


def transient_grid(
    Q: "sp.spmatrix | np.ndarray | spla.LinearOperator",
    pi0: np.ndarray,
    times,
    tol: float = DEFAULT_SERIES_TOL,
    accumulate: bool = False,
    method: str = "auto",
    operator: "UniformizedOperator | None" = None,
    segment_terms: int = SEGMENT_TERM_BUDGET,
) -> TransientGrid:
    """Evaluate ``pi(t) = pi0 exp(Q t)`` on a whole time grid.

    Parameters
    ----------
    Q:
        CTMC generator (rows sum to zero), sparse or dense — or a
        matrix-free :class:`~scipy.sparse.linalg.LinearOperator` with
        ``rmatvec`` and ``diagonal()``, in which case the uniformization
        sweep runs through the operator and the ``expm`` fallback (which
        needs the assembled matrix) is unavailable.
    pi0:
        Initial probability vector.
    times:
        Time points (any order, duplicates allowed); results are returned
        in the given order.
    tol:
        Poisson-series truncation tolerance (weight ``1 - tol``).
    accumulate:
        Also produce the running integrals ``integral_0^t pi(s) ds``
        (time-averaged occupancy numerators).  Uniformization only.
    method:
        ``"uniformization"``, ``"expm"``, or ``"auto"`` (uniformization,
        falling back to ``expm_multiply`` on a
        :class:`~repro.utils.errors.SeriesTruncationError`).
    operator:
        Prebuilt :class:`~repro.markov.uniformization.UniformizedOperator`
        for ``Q`` — callers issuing several grid queries against one
        generator (metric layers, sweeps) pass it to reuse the sparse
        ``P`` assembly.
    segment_terms:
        Per-segment Poisson-term budget before a checkpointed restart.

    Returns
    -------
    TransientGrid
        Distributions (and integrals) in the caller's time order, plus
        engine statistics.
    """
    if method not in ("auto", "uniformization", "expm"):
        raise ValueError(f"unknown transient method {method!r}")
    t_in = _validated_times(times)
    pi0 = validate_pi0(pi0)
    order = np.argsort(t_in, kind="stable")
    t_sorted = t_in[order]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))

    op = operator if operator is not None else UniformizedOperator(Q)
    if op.size != len(pi0):
        raise ValueError(
            f"pi0 has length {len(pi0)} for a {op.size}-state generator"
        )

    with obs.get_telemetry().span(
        "transient.grid", n_states=int(op.size), n_times=int(len(t_in))
    ) as span:
        if method != "expm":
            try:
                dists, integrals, matvecs, n_segments, n_terms = (
                    _grid_uniformization(
                        op, pi0, t_sorted, tol, accumulate, int(segment_terms)
                    )
                )
                span.set("engine", "uniformization")
                span.count("transient.matvecs", matvecs)
                span.count("transient.segments", n_segments)
                span.count("transient.poisson_terms", n_terms)
                return TransientGrid(
                    times=t_in,
                    distributions=dists[inverse],
                    integrals=None if integrals is None else integrals[inverse],
                    q=op.q,
                    n_matvecs=matvecs,
                    n_segments=n_segments,
                    method="uniformization",
                )
            except SeriesTruncationError:
                if method == "uniformization" or accumulate:
                    raise
                if getattr(op, "matrix_free", False):
                    # expm_multiply needs the assembled matrix; past the
                    # storage wall the structured truncation error is the
                    # honest answer, not a silent densification.
                    raise
        if getattr(op, "matrix_free", False):
            raise NotSupportedError(
                "the expm fallback requires an assembled generator; "
                "matrix-free operators support uniformization only"
            )
        if accumulate:
            raise NotSupportedError(
                "accumulated occupancy requires the uniformization kernel; "
                "the expm fallback computes point distributions only"
            )
        dists = _grid_expm(op.Q, pi0, t_sorted)
        span.set("engine", "expm")
        span.count("transient.segments", len(t_sorted))
        return TransientGrid(
            times=t_in,
            distributions=dists[inverse],
            integrals=None,
            q=0.0,
            n_matvecs=0,
            n_segments=len(t_sorted),
            method="expm",
        )
