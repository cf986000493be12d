"""Constructors for common MAP families.

Each builder returns a validated :class:`repro.maps.MAP`.  These cover the
processes the paper uses: exponential servers (``exponential``), the
MMPP(2) of Figure 6 (``mmpp2``), hyperexponential service with temporal
dependence for the Figure 8 case study (``h2_correlated`` /
:func:`repro.maps.fitting.fit_map2`), and general phase-type renewal
processes (``from_ph``).

``exponential`` and :func:`~repro.maps.fitting.fit_map2`, the constructors
the scenario builders call once per population, are memoized on the float
values of their arguments: equal calls return one shared instance, which
is safe because a :class:`MAP` and every array it hands out are read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.maps.map import MAP
from repro.utils.errors import ValidationError

__all__ = [
    "exponential",
    "erlang",
    "hyperexponential",
    "coxian2",
    "mmpp2",
    "map2",
    "h2_correlated",
    "from_ph",
]

#: Instances each memoized constructor keeps, least recently used out
#: first: a catalog scenario needs a handful, random draws never repeat.
MEMO_SIZE = 1024


def exponential(rate: float) -> MAP:
    """Poisson process / exponential service with the given rate (MAP(1)).

    Memoized on ``float(rate)`` (see the module docstring).
    """
    if rate <= 0:
        raise ValidationError(f"rate must be positive, got {rate}")
    return _exponential(float(rate))


@lru_cache(maxsize=MEMO_SIZE)
def _exponential(rate: float) -> MAP:
    return MAP([[-rate]], [[rate]], validate=False)


def erlang(k: int, rate: float) -> MAP:
    """Erlang-k renewal process; each stage has the given rate.

    The mean interevent time is ``k / rate`` and the SCV is ``1/k``.
    """
    if k < 1:
        raise ValidationError(f"Erlang order must be >= 1, got {k}")
    if rate <= 0:
        raise ValidationError(f"rate must be positive, got {rate}")
    D0 = -rate * np.eye(k) + rate * np.eye(k, k=1)
    D1 = np.zeros((k, k))
    D1[-1, 0] = rate
    return MAP(D0, D1)


def hyperexponential(p: "np.ndarray | list", rates: "np.ndarray | list") -> MAP:
    """Hyperexponential renewal process: phase i w.p. ``p[i]``, rate ``rates[i]``.

    SCV >= 1 always; used as the zero-correlation building block of the
    correlated-H2 MAP(2) family.
    """
    p = np.asarray(p, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if p.ndim != 1 or rates.shape != p.shape:
        raise ValidationError("p and rates must be 1-D arrays of equal length")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("p must be a probability vector")
    if np.any(rates <= 0):
        raise ValidationError("rates must be positive")
    D0 = -np.diag(rates)
    D1 = np.outer(rates, p)
    return MAP(D0, D1)


def coxian2(mu1: float, mu2: float, p: float) -> MAP:
    """Two-phase Coxian renewal process.

    Phase 1 (rate ``mu1``) completes to phase 2 with probability ``p`` or
    exits directly with probability ``1-p``; phase 2 (rate ``mu2``) always
    exits.  Covers SCV >= 0.5.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    if mu1 <= 0 or mu2 <= 0:
        raise ValidationError("rates must be positive")
    D0 = np.array([[-mu1, p * mu1], [0.0, -mu2]])
    # Exit restarts in phase 1 (renewal).
    D1 = np.array([[(1.0 - p) * mu1, 0.0], [mu2, 0.0]])
    return MAP(D0, D1)


def mmpp2(r1: float, r2: float, lam1: float, lam2: float) -> MAP:
    """Markov-modulated Poisson process with two phases.

    ``r1``/``r2`` are the modulation rates 1→2 and 2→1; ``lam1``/``lam2``
    are the event rates within each phase.  This is the service process the
    paper uses to illustrate the underlying Markov process in Figure 6.
    """
    for name, val in (("r1", r1), ("r2", r2)):
        if val <= 0:
            raise ValidationError(f"{name} must be positive, got {val}")
    for name, val in (("lam1", lam1), ("lam2", lam2)):
        if val < 0:
            raise ValidationError(f"{name} must be nonnegative, got {val}")
    if lam1 == 0 and lam2 == 0:
        raise ValidationError("at least one phase must have a positive event rate")
    D0 = np.array([[-(r1 + lam1), r1], [r2, -(r2 + lam2)]])
    D1 = np.diag([lam1, lam2]).astype(float)
    return MAP(D0, D1)


def map2(D0, D1) -> MAP:
    """General order-2 MAP from explicit matrices (validated)."""
    m = MAP(D0, D1)
    if m.order != 2:
        raise ValidationError(f"map2 requires 2x2 matrices, got order {m.order}")
    return m


def h2_correlated(p1: float, nu1: float, nu2: float, omega: float) -> MAP:
    """Correlated hyperexponential MAP(2) with *exactly* geometric ACF.

    Construction: interarrival times are H2 with phase probabilities
    ``(p1, 1-p1)`` and rates ``(nu1, nu2)``; after each event the phase is
    kept with probability ``omega`` and resampled from ``(p1, 1-p1)`` with
    probability ``1-omega``.  The embedded chain is then
    ``P = omega*I + (1-omega)*1p``, whose subdominant eigenvalue is exactly
    ``omega`` — so ``gamma2 = omega`` and ``rho_j = rho_1 * omega^(j-1)``,
    while the marginal distribution (hence mean/SCV/skewness) is that of the
    H2 regardless of ``omega``.

    ``omega`` may be mildly negative (negative autocorrelation) as long as
    all ``D1`` entries stay nonnegative: ``omega >= -p_i/(1-p_i)``.
    """
    if not 0.0 < p1 < 1.0:
        raise ValidationError(f"p1 must be in (0, 1), got {p1}")
    if nu1 <= 0 or nu2 <= 0:
        raise ValidationError("rates must be positive")
    p = np.array([p1, 1.0 - p1])
    nu = np.array([nu1, nu2])
    lo = -min(p / (1.0 - p))
    if not lo <= omega < 1.0:
        raise ValidationError(
            f"omega={omega} outside feasible range [{lo:.6g}, 1) for p1={p1}"
        )
    D0 = -np.diag(nu)
    D1 = omega * np.diag(nu) + (1.0 - omega) * np.outer(nu, p)
    return MAP(D0, D1)


def from_ph(alpha, T) -> MAP:
    """Renewal MAP of a phase-type distribution ``PH(alpha, T)``.

    ``D0 = T`` and ``D1 = t @ alpha`` with exit vector ``t = -T @ 1``: after
    each event the next interarrival starts afresh from ``alpha``.
    """
    alpha = np.asarray(alpha, dtype=float)
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or alpha.shape != (T.shape[0],):
        raise ValidationError("alpha/T dimensions are inconsistent")
    if np.any(alpha < -1e-12) or abs(alpha.sum() - 1.0) > 1e-9:
        raise ValidationError("alpha must be a probability vector")
    t = -T @ np.ones(T.shape[0])
    if np.any(t < -1e-9):
        raise ValidationError("T must have nonnegative exit rates (-T@1 >= 0)")
    return MAP(T, np.outer(np.clip(t, 0.0, None), alpha))
