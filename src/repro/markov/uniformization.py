"""Transient CTMC analysis by uniformization (Jensen's method).

``pi(t) = sum_k Poisson(k; q t) * pi(0) P^k`` with ``P = I + Q/q`` and
``q >= max_i |Q_ii|``.  Used by tests to verify steady-state solutions
independently (run the chain long enough and compare) and available to
users for warm-up analysis.  The multi-time-point generalization (one
Poisson sweep shared across a whole time grid, integrated occupancy,
``expm_multiply`` fallback) lives in :mod:`repro.transient.engine`; this
module holds the single-``(pi0, t)`` kernel and the pieces both share:
the numeric policy constants and the :class:`UniformizedOperator`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.errors import SeriesTruncationError

__all__ = [
    "DEFAULT_SERIES_TOL",
    "PROBABILITY_TOL",
    "SERIES_DRIFT_PER_TERM",
    "SERIES_EXTRA_TERMS",
    "SERIES_STD_SPAN",
    "UNIFORMIZATION_MARGIN",
    "UniformizedOperator",
    "max_series_terms",
    "series_shortfall_allowance",
    "transient_distribution",
]

#: Tolerance for "is ``pi0`` a probability vector" (sum within this of 1,
#: entries above ``-PROBABILITY_TOL * 1e-4``).
PROBABILITY_TOL = 1e-8

#: Default truncation tolerance of the Poisson series: accumulation stops
#: once the collected weight reaches ``1 - DEFAULT_SERIES_TOL``.
DEFAULT_SERIES_TOL = 1e-12

#: Strict-inequality margin on the uniformization rate ``q`` (``q`` must
#: exceed ``max |Q_ii|`` for ``P`` to be substochastic-safe at the corner).
UNIFORMIZATION_MARGIN = 1.0001

#: Overflow guard on the series length: a Poisson(qt) variable has mean
#: ``qt`` and standard deviation ``sqrt(qt)``; ``SERIES_STD_SPAN`` standard
#: deviations past the mean plus ``SERIES_EXTRA_TERMS`` slack covers any
#: weight ``1 - tol`` down to ``tol ~ 1e-16`` with a wide safety factor.
SERIES_STD_SPAN = 12.0
SERIES_EXTRA_TERMS = 50

#: Per-term float-drift allowance on the accumulated Poisson weight.  The
#: log-space recurrence ``log_w += log(qt) - log(k)`` accumulates O(eps)
#: rounding per term, so after ``k`` terms the weight sum can sit below
#: ``1 - tol`` by ~``k * eps`` even though the series has fully converged;
#: a shortfall within ``k * SERIES_DRIFT_PER_TERM`` is round-off, not
#: truncation, and is normalized away instead of raising.
SERIES_DRIFT_PER_TERM = 1e-14


def series_shortfall_allowance(tol: float, terms: int) -> float:
    """Largest weight shortfall attributable to round-off after ``terms``."""
    return max(tol, terms * SERIES_DRIFT_PER_TERM)


def max_series_terms(qt: float) -> int:
    """Series-length guard for Poisson rate ``qt`` (see the constants above)."""
    qt = float(qt)
    return int(qt + SERIES_STD_SPAN * np.sqrt(qt) + SERIES_EXTRA_TERMS)


def validate_pi0(pi0: np.ndarray) -> np.ndarray:
    """Check that ``pi0`` is a probability vector; returns it as float array."""
    pi0 = np.asarray(pi0, dtype=float)
    if abs(pi0.sum() - 1.0) > PROBABILITY_TOL or np.any(pi0 < -1e-12):
        raise ValueError("pi0 must be a probability vector")
    return pi0


class UniformizedOperator:
    """The uniformized DTMC kernel ``P = I + Q/q``, built once per generator.

    Sharing one operator across many transient queries (a whole time grid,
    several initial distributions) amortizes the sparse construction of
    ``P`` — exactly the reuse the multi-time-point engine in
    :mod:`repro.transient.engine` is built on.

    ``P``'s transpose is kept as well (a CSC view sharing ``P``'s arrays),
    so :meth:`step` is ``PT @ vec``: the same sparse kernel, and the same
    floats, as ``vec @ P``, which would build that transpose again on every
    call.

    Also accepts a matrix-free :class:`scipy.sparse.linalg.LinearOperator`
    exposing ``rmatvec`` and ``diagonal()`` (the Kronecker generator of
    :mod:`repro.markov.kronop`): ``q`` comes from the operator's closed-
    form diagonal and each step computes ``vec + (vec @ Q)/q`` — the same
    floats as ``vec @ (I + Q/q)`` up to a single fused divide, with no
    sparse ``P`` ever assembled.

    Attributes
    ----------
    Q:
        The generator: CSR form for matrix inputs, or the
        ``LinearOperator`` itself for matrix-free inputs.
    q:
        Uniformization rate ``UNIFORMIZATION_MARGIN * max|Q_ii|`` (0.0 for
        the all-absorbing generator ``Q = 0``).
    P:
        Sparse CSR transition matrix ``I + Q/q``; ``None`` when ``q == 0``
        or when the generator is matrix-free.
    """

    def __init__(
        self, Q: "sp.spmatrix | np.ndarray | spla.LinearOperator"
    ) -> None:
        if isinstance(Q, spla.LinearOperator) and not sp.issparse(Q):
            if Q.shape[0] != Q.shape[1]:
                raise ValueError(f"Q must be square, got {Q.shape}")
            self.Q = Q
            self._matrix_free = True
            diag = np.asarray(Q.diagonal())
            q = float(np.abs(diag).max()) if Q.shape[0] else 0.0
            self.q = q * UNIFORMIZATION_MARGIN if q > 0.0 else 0.0
            self.P = None
            self._PT = None
            return
        Qs = sp.csr_matrix(Q) if not sp.issparse(Q) else Q.tocsr()
        if Qs.shape[0] != Qs.shape[1]:
            raise ValueError(f"Q must be square, got {Qs.shape}")
        self.Q = Qs
        self._matrix_free = False
        q = float(np.abs(Qs.diagonal()).max()) if Qs.shape[0] else 0.0
        if q == 0.0:
            self.q = 0.0
            self.P = None
            self._PT = None
        else:
            self.q = q * UNIFORMIZATION_MARGIN
            self.P = sp.eye(Qs.shape[0], format="csr") + Qs / self.q
            self._PT = self.P.T

    @property
    def size(self) -> int:
        """State-space dimension."""
        return self.Q.shape[0]

    @property
    def matrix_free(self) -> bool:
        """Whether steps run through a matrix-free operator (no sparse P)."""
        return self._matrix_free

    def step(self, vec: np.ndarray) -> np.ndarray:
        """One uniformized step ``vec @ P`` (identity when ``q == 0``)."""
        if self._matrix_free:
            if self.q == 0.0:
                return vec
            return vec + self.Q.rmatvec(vec) / self.q
        return vec if self._PT is None else self._PT @ vec


def transient_distribution(
    Q: "sp.spmatrix | np.ndarray",
    pi0: np.ndarray,
    t: float,
    tol: float = DEFAULT_SERIES_TOL,
) -> np.ndarray:
    """Distribution at time ``t`` starting from ``pi0``.

    The Poisson series is truncated adaptively once the accumulated weight
    reaches ``1 - tol``; for large ``q*t`` this costs
    ``O(q t + sqrt(q t))`` sparse matrix-vector products.

    Raises
    ------
    SeriesTruncationError
        If the series hits the :func:`max_series_terms` guard before
        accumulating ``1 - tol`` of the Poisson weight (instead of
        silently returning a truncated, renormalized vector).
    """
    op = UniformizedOperator(Q)
    pi0 = validate_pi0(pi0)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0 or op.q == 0.0:
        return pi0.copy()
    qt = op.q * t
    # Poisson weights computed in log space to avoid overflow for large qt.
    out = np.zeros_like(pi0)
    vec = pi0.copy()
    log_w = -qt  # log Poisson(0; qt)
    acc = 0.0
    k = 0
    max_terms = max_series_terms(qt)
    while acc < 1.0 - tol and k <= max_terms:
        w = np.exp(log_w)
        out += w * vec
        acc += w
        k += 1
        log_w += np.log(qt) - np.log(k)
        vec = op.step(vec)
    if 1.0 - acc > series_shortfall_allowance(tol, k):
        raise SeriesTruncationError(qt=qt, terms=k, accumulated=acc, tol=tol)
    return out / acc
