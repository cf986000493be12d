"""Counting-process statistics of MAPs: IDC and IDI burstiness indices.

Temporal dependence shows up in two standard second-order descriptors:

* **IDI** — index of dispersion for *intervals*:
  ``IDI(k) = Var(X_1 + ... + X_k) / (k * m1^2)``; grows with k when the
  interarrival ACF is positive (computed exactly from the lag ACF);
* **IDC** — index of dispersion for *counts*:
  ``IDC(t) = Var(N(t)) / E(N(t))``; equals 1 for Poisson processes and
  rises toward an asymptote for bursty MAPs.

``Var(N(t))`` is computed by integrating the exact moment ODEs of the
Markov-modulated counting process (dimension ``2K``), which avoids the
numerically delicate closed forms:

    x(t) = E[N(t) 1{J(t)=.}] :  x' = x D + theta D1
    y(t) = E[N(t)^2 1{J(t)=.}]:  y' = y D + 2 x D1 + theta D1

with the phase process started (and hence remaining) in its stationary
distribution ``theta``.
"""

from __future__ import annotations

import numpy as np

from repro.maps.acf import lag_autocorrelation
from repro.maps.map import MAP
from repro.maps.moments import interarrival_moments

__all__ = ["interval_dispersion", "count_moments", "count_dispersion"]


def interval_dispersion(m: MAP, k_values: "int | np.ndarray") -> np.ndarray:
    """IDI(k) for the requested k (scalar => 1..k).

    ``Var(S_k) = var * (k + 2 sum_{j=1}^{k-1} (k - j) rho_j)`` with the
    exact lag autocorrelations; for renewal processes IDI(k) = SCV for
    every k.
    """
    if np.isscalar(k_values):
        ks = np.arange(1, int(k_values) + 1)
    else:
        ks = np.asarray(k_values, dtype=int)
    if np.any(ks < 1):
        raise ValueError("k values must be >= 1")
    mom = interarrival_moments(m.D0, m.D1, order=2)
    m1, m2 = mom[0], mom[1]
    var = m2 - m1 * m1
    kmax = int(ks.max())
    rho = (
        lag_autocorrelation(m.D0, m.D1, kmax - 1) if kmax >= 2 else np.empty(0)
    )
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        tail = 0.0
        if k >= 2:
            j = np.arange(1, k)
            tail = float(((k - j) * rho[: k - 1]).sum())
        out[i] = var * (k + 2.0 * tail) / (k * m1 * m1)
    return out


def count_moments(m: MAP, t_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E[N(t)], Var[N(t)])`` at the requested times (stationary start)."""
    from scipy.integrate import solve_ivp

    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t_values < 0):
        raise ValueError("t values must be >= 0")
    K = m.order
    D = m.generator
    D1 = m.D1
    theta = m.phase_stationary
    theta_D1 = theta @ D1

    def rhs(_t, z):
        x = z[:K]
        y = z[K:]
        dx = x @ D + theta_D1
        dy = y @ D + 2.0 * (x @ D1) + theta_D1
        return np.concatenate([dx, dy])

    t_end = float(t_values.max()) if len(t_values) else 0.0
    if t_end == 0.0:
        zeros = np.zeros(len(t_values))
        return zeros, zeros
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.zeros(2 * K),
        t_eval=np.sort(np.unique(np.append(t_values, t_end))),
        rtol=1e-10,
        atol=1e-12,
        method="LSODA",
    )
    mean_map = {}
    var_map = {}
    for idx, t in enumerate(sol.t):
        x = sol.y[:K, idx]
        y = sol.y[K:, idx]
        mean = float(x.sum())
        second = float(y.sum())
        mean_map[t] = mean
        var_map[t] = second - mean * mean
    means = np.array([mean_map[min(mean_map, key=lambda s, tt=t: abs(s - tt))]
                      for t in t_values])
    variances = np.array([var_map[min(var_map, key=lambda s, tt=t: abs(s - tt))]
                          for t in t_values])
    return means, variances


def count_dispersion(m: MAP, t_values: np.ndarray) -> np.ndarray:
    """IDC(t) = Var[N(t)] / E[N(t)] at the requested times."""
    means, variances = count_moments(m, t_values)
    out = np.full_like(means, 1.0)
    mask = means > 0
    out[mask] = variances[mask] / means[mask]
    return out
