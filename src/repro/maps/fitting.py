"""Fitting MAPs to target statistics.

The paper parameterizes MAP(2) service processes by mean, coefficient of
variation (CV), skewness, and geometric ACF decay rate ``gamma2`` (Table 1),
and by (CV, gamma2) in the Figure 8 case study.  This module provides:

* :func:`fit_hyperexp_balanced` / :func:`fit_hyperexp_unbalanced` /
  :func:`fit_hyperexp_3m` — H2 marginal fits (2 or 3 moments),
* :func:`fit_map2` — MAP(2) with given ``(mean, scv, gamma2)``; *exactly*
  geometric ACF for scv > 1 via the correlated-H2 construction, numeric
  ``omega`` search on a correlated Coxian for 0.5 <= scv < 1,
* :func:`fit_map2_3m` — MAP(2) with given ``(m1, m2, m3, gamma2)``,
* :func:`fit_renewal` — renewal (zero-ACF) process of arbitrary SCV via
  Erlang / mixed-Erlang / H2, used for "no-ACF" baseline models.

All fits are verified post-hoc: achieved statistics are recomputed from the
returned matrices and compared against the targets; a mismatch raises
:class:`repro.utils.errors.FeasibilityError` instead of silently returning a
wrong process.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.maps import builders
from repro.maps.map import MAP
from repro.utils.errors import FeasibilityError, ValidationError

__all__ = [
    "fit_hyperexp_balanced",
    "fit_hyperexp_unbalanced",
    "fit_hyperexp_3m",
    "fit_renewal",
    "fit_map2",
    "fit_map2_3m",
    "feasible_gamma2_range",
]

_REL_TOL = 1e-7


def _check(name: str, achieved: float, target: float, rel: float = 1e-6) -> None:
    scale = max(1.0, abs(target))
    if abs(achieved - target) > rel * scale:
        raise FeasibilityError(
            f"fit verification failed for {name}: achieved {achieved:.8g}, "
            f"target {target:.8g}"
        )


# --------------------------------------------------------------------- #
# hyperexponential marginals
# --------------------------------------------------------------------- #
def fit_hyperexp_balanced(mean: float, scv: float) -> tuple[float, float, float]:
    """Balanced-means H2 fit: returns ``(p1, nu1, nu2)``.

    "Balanced" means ``p1/nu1 = p2/nu2`` (each phase contributes half the
    mean), the classic one-degree-of-freedom closure.  Requires ``scv >= 1``.
    """
    if mean <= 0:
        raise ValidationError(f"mean must be positive, got {mean}")
    if scv < 1.0 - 1e-12:
        raise FeasibilityError(f"hyperexponential requires scv >= 1, got {scv}")
    scv = max(scv, 1.0 + 1e-12)  # keep strictly above 1 for a proper H2
    p1 = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    nu1 = 2.0 * p1 / mean
    nu2 = 2.0 * (1.0 - p1) / mean
    return p1, nu1, nu2


def fit_hyperexp_unbalanced(
    mean: float, scv: float, p_slow: float
) -> tuple[float, float, float]:
    """H2 fit with a chosen slow-phase probability: returns ``(p1, nu1, nu2)``.

    Phase 1 is the *slow* phase (largest mean) and is entered with
    probability ``p_slow``; the extra degree of freedom moves the skewness,
    which is how the random-model generator realizes "skewness drawn
    randomly" (Table 1).  Feasibility requires
    ``0 < p_slow < 2 / (1 + scv)``.
    """
    if mean <= 0:
        raise ValidationError(f"mean must be positive, got {mean}")
    if scv <= 1.0:
        raise FeasibilityError(f"unbalanced H2 requires scv > 1, got {scv}")
    upper = 2.0 / (1.0 + scv)
    if not 0.0 < p_slow < upper:
        raise FeasibilityError(
            f"p_slow={p_slow} infeasible for scv={scv}; need 0 < p_slow < {upper:.6g}"
        )
    p2 = 1.0 - p_slow
    # Solve p1*x1 + p2*x2 = m1 and p1*x1^2 + p2*x2^2 = m2/2 for phase means x_i.
    spread = math.sqrt((p2 / p_slow) * (scv - 1.0) / 2.0)
    x1 = mean * (1.0 + spread)
    x2 = mean * (1.0 - (p_slow / p2) * spread)
    if x2 <= 0:
        raise FeasibilityError(
            f"p_slow={p_slow} yields a nonpositive fast-phase mean for scv={scv}"
        )
    return p_slow, 1.0 / x1, 1.0 / x2


def fit_hyperexp_3m(m1: float, m2: float, m3: float) -> tuple[float, float, float]:
    """H2 fit to three raw moments: returns ``(p1, nu1, nu2)``.

    The phase means are the atoms of a two-point distribution whose k-th
    power moments are ``mu_k = m_k / k!``; they are the roots of the monic
    quadratic orthogonal to the measure.  Raises
    :class:`FeasibilityError` outside the H2 moment region.
    """
    if m1 <= 0 or m2 <= 0 or m3 <= 0:
        raise ValidationError("moments must be positive")
    mu1, mu2, mu3 = m1, m2 / 2.0, m3 / 6.0
    # Atoms x_i solve x^2 = a x - b, so mu2 = a mu1 - b and mu3 = a mu2 - b mu1.
    det = mu2 - mu1 * mu1
    if abs(det) < 1e-14 * max(1.0, mu2):
        raise FeasibilityError("moments are at the exponential boundary (scv=1)")
    a = (mu3 - mu1 * mu2) / det
    b = (mu1 * mu3 - mu2 * mu2) / det
    disc = a * a - 4.0 * b
    if disc <= 0:
        raise FeasibilityError("no real H2 atoms for these moments")
    root = math.sqrt(disc)
    x1 = 0.5 * (a + root)
    x2 = 0.5 * (a - root)
    if x2 <= 0:
        raise FeasibilityError("H2 atom is nonpositive for these moments")
    p1 = (mu1 - x2) / (x1 - x2)
    if not 0.0 < p1 < 1.0:
        raise FeasibilityError(f"H2 weight p1={p1:.6g} outside (0,1)")
    return p1, 1.0 / x1, 1.0 / x2


def fit_renewal(mean: float, scv: float) -> MAP:
    """Renewal MAP matching ``(mean, scv)`` with zero autocorrelation.

    * ``scv == 1`` → exponential;
    * ``scv > 1`` → balanced H2;
    * ``scv < 1`` → mixed Erlang(k-1)/Erlang(k) with
      ``1/k <= scv <= 1/(k-1)`` (Tijms' classic fit).
    """
    if mean <= 0:
        raise ValidationError(f"mean must be positive, got {mean}")
    if scv <= 0:
        raise FeasibilityError(f"scv must be positive, got {scv}")
    if abs(scv - 1.0) < 1e-12:
        return builders.exponential(1.0 / mean)
    if scv > 1.0:
        p1, nu1, nu2 = fit_hyperexp_balanced(mean, scv)
        return builders.hyperexponential([p1, 1.0 - p1], [nu1, nu2])
    # scv < 1: mixed Erlang(k-1, k).
    k = math.ceil(1.0 / scv)
    if k < 2:
        k = 2
    p = (k * scv - math.sqrt(k * (1.0 + scv) - k * k * scv)) / (1.0 + scv)
    if not 0.0 <= p <= 1.0:
        raise FeasibilityError(f"mixed-Erlang weight {p:.6g} infeasible for scv={scv}")
    nu = (k - p) / mean
    # Phase layout: stages 1..k; start in stage 2 w.p. p (skipping one stage).
    K = k
    D0 = -nu * np.eye(K) + nu * np.eye(K, k=1)
    D1 = np.zeros((K, K))
    alpha = np.zeros(K)
    alpha[0] = 1.0 - p
    alpha[1] = p
    D1[-1, :] = nu * alpha
    return MAP(D0, D1)


# --------------------------------------------------------------------- #
# MAP(2) fits with autocorrelation
# --------------------------------------------------------------------- #
def feasible_gamma2_range(p1: float) -> tuple[float, float]:
    """Feasible ``gamma2`` interval of the correlated-H2 family for weight p1.

    The keep-phase probability ``omega = gamma2`` must keep every ``D1``
    entry nonnegative: ``omega >= -p_i / (1 - p_i)`` for both phases.
    """
    p2 = 1.0 - p1
    lo = -min(p1 / p2, p2 / p1)
    return lo, 1.0


def _correlated_coxian(r: float, p: float, omega: float) -> MAP:
    """Correlated Coxian-2 shape (mean unnormalized; rescale afterwards).

    Phase 1 has rate 1, phase 2 rate ``r``; continuation probability ``p``.
    After an exit the next service restarts in phase 1 except:

    * ``omega > 0``: an exit *from phase 2* restarts in phase 2 with
      probability ``omega`` (persistence → positive correlation);
    * ``omega < 0``: an exit *from phase 1* skips to phase 2 with
      probability ``-omega`` (anti-persistence → negative correlation).

    Unlike the correlated-H2 family, changing ``omega`` moves the embedded
    stationary phase distribution and hence the marginal moments, so
    :func:`fit_map2` solves for ``(r, p, omega)`` jointly.
    """
    if not 0.0 < p <= 1.0 or r <= 0 or not -1.0 < omega < 1.0:
        raise FeasibilityError(
            f"correlated Coxian parameters out of range: r={r}, p={p}, omega={omega}"
        )
    mu1, mu2 = 1.0, r
    T = np.array([[-mu1, p * mu1], [0.0, -mu2]])
    t = np.array([(1.0 - p) * mu1, mu2])
    if omega >= 0.0:
        B = np.array([[1.0, 0.0], [1.0 - omega, omega]])
    else:
        B = np.array([[1.0 + omega, -omega], [1.0, 0.0]])
    D1 = np.diag(t) @ B
    return MAP(T, D1)


def fit_map2(mean: float, scv: float, gamma2: float = 0.0) -> MAP:
    """MAP(2) with the given mean, SCV, and geometric ACF decay ``gamma2``.

    For ``scv > 1`` the correlated-H2 construction achieves the target
    *exactly* (``gamma2`` equals the keep-phase probability).  For
    ``0.5 <= scv < 1`` a correlated Coxian is used and ``omega`` is found by
    bisection on the achieved subdominant eigenvalue.  ``scv < 0.5`` is
    infeasible at order 2.

    Memoized on the float values of the arguments
    (:data:`repro.maps.builders.MEMO_SIZE`): the fit and its verification
    run once per distinct target, and equal calls share one read-only
    instance.
    """
    return _fit_map2(float(mean), float(scv), float(gamma2))


@lru_cache(maxsize=builders.MEMO_SIZE)
def _fit_map2(mean: float, scv: float, gamma2: float) -> MAP:
    if abs(gamma2) >= 1.0:
        raise FeasibilityError(f"|gamma2| must be < 1, got {gamma2}")
    if abs(scv - 1.0) < 1e-12 and abs(gamma2) < 1e-12:
        return builders.exponential(1.0 / mean)
    if scv > 1.0:
        p1, nu1, nu2 = fit_hyperexp_balanced(mean, scv)
        lo, hi = feasible_gamma2_range(p1)
        if not lo <= gamma2 < hi:
            raise FeasibilityError(
                f"gamma2={gamma2} outside feasible range [{lo:.6g}, 1) "
                f"for balanced H2 with scv={scv}"
            )
        m = builders.h2_correlated(p1, nu1, nu2, gamma2)
        _check("mean", m.mean, mean)
        _check("scv", m.scv, scv)
        _check("gamma2", m.gamma2, gamma2, rel=1e-6)
        return m
    if scv >= 0.5 - 1e-12:
        m = _fit_correlated_coxian(scv, gamma2).scaled_to_mean(mean)
        _check("mean", m.mean, mean, rel=1e-5)
        _check("scv", m.scv, scv, rel=1e-4)
        _check("gamma2", m.gamma2, gamma2, rel=1e-4)
        return m
    raise FeasibilityError(f"order-2 MAPs require scv >= 0.5, got {scv}")


def _fit_correlated_coxian(scv: float, gamma2: float) -> MAP:
    """Solve (r, p, omega) of the correlated Coxian for target (scv, gamma2).

    Mean is left unnormalized (time-rescaled by the caller).  Uses damped
    least-squares from a Marie-fit seed; raises :class:`FeasibilityError`
    when the target pair is outside the family's reachable set.
    """
    from scipy.optimize import least_squares

    p_seed = min(1.0, 0.5 / scv)
    r_seed = p_seed  # Marie's renewal Coxian fit: mu2 = p * mu1

    def unpack(x: np.ndarray) -> tuple[float, float, float]:
        log_r, zp, zw = x
        r = float(np.exp(log_r))
        p = 1.0 / (1.0 + np.exp(-zp))
        w = float(np.tanh(zw))
        return r, p, w

    def residuals(x: np.ndarray) -> np.ndarray:
        r, p, w = unpack(x)
        try:
            m = _correlated_coxian(r, p, w)
            return np.array([m.scv / scv - 1.0, m.gamma2 - gamma2])
        except (FeasibilityError, ValidationError, np.linalg.LinAlgError):
            return np.array([1e3, 1e3])

    zp_seed = math.log(p_seed / (1.0 - p_seed)) if p_seed < 1.0 else 5.0
    best = None
    for zw0 in (math.atanh(max(-0.95, min(0.95, gamma2))), 0.0, 0.5, -0.5):
        sol = least_squares(
            residuals,
            x0=np.array([math.log(r_seed), zp_seed, zw0]),
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
            max_nfev=2000,
        )
        if best is None or sol.cost < best.cost:
            best = sol
        if sol.cost < 1e-18:
            break
    r, p, w = unpack(best.x)
    if best.cost > 1e-10:
        raise FeasibilityError(
            f"(scv={scv}, gamma2={gamma2}) appears unreachable by order-2 "
            f"correlated Coxians (residual {math.sqrt(2 * best.cost):.3g})"
        )
    return _correlated_coxian(r, p, w)


def fit_map2_3m(m1: float, m2: float, m3: float, gamma2: float = 0.0) -> MAP:
    """MAP(2) matching three moments plus geometric ACF decay ``gamma2``.

    Fits an H2 to ``(m1, m2, m3)`` (so skewness is controlled) and applies
    the keep-phase correlation; exact-geometric ACF as in :func:`fit_map2`.
    """
    p1, nu1, nu2 = fit_hyperexp_3m(m1, m2, m3)
    lo, hi = feasible_gamma2_range(p1)
    if not lo <= gamma2 < hi:
        raise FeasibilityError(
            f"gamma2={gamma2} outside feasible range [{lo:.6g}, 1) for this H2"
        )
    m = builders.h2_correlated(p1, nu1, nu2, gamma2)
    _check("m1", m.moments(1)[0], m1)
    _check("m2", float(m.moments(2)[1]), m2, rel=1e-5)
    _check("m3", float(m.moments(3)[2]), m3, rel=1e-5)
    _check("gamma2", m.gamma2, gamma2, rel=1e-6)
    return m
