"""The :class:`MAP` class — Markovian Arrival Process.

A MAP is the pair ``(D0, D1)`` of K×K rate matrices:

* ``D0[h, h']`` (h≠h'): rate of a phase jump h→h' *without* an event,
* ``D1[h, h']``: rate of a phase jump h→h' *with* an event (an arrival when
  the MAP models arrivals; a service completion when it models service),
* ``D0 + D1`` must be an irreducible CTMC generator.

MAPs close the popular MMPP and phase-type renewal families under a single
matrix formalism and can approximate arbitrary distributions together with
temporal-dependence features such as short/long-range dependence — which is
exactly why the paper adopts them for service processes.

Instances are immutable; derived quantities are cached on first use, and
every array an instance hands out is read-only, so one instance can be
shared by any number of networks (the memoized constructors rely on it).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.maps import acf as _acf
from repro.maps import moments as _moments
from repro.utils.errors import ValidationError

__all__ = ["MAP"]

_ATOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _validate_pair(D0: np.ndarray, D1: np.ndarray, atol: float) -> None:
    if D0.ndim != 2 or D0.shape[0] != D0.shape[1]:
        raise ValidationError(f"D0 must be square, got shape {D0.shape}")
    if D1.shape != D0.shape:
        raise ValidationError(f"D1 shape {D1.shape} must match D0 shape {D0.shape}")
    K = D0.shape[0]
    off = D0 - np.diag(np.diag(D0))
    if np.any(off < -atol):
        raise ValidationError("off-diagonal entries of D0 must be nonnegative")
    if np.any(D1 < -atol):
        raise ValidationError("entries of D1 must be nonnegative")
    if np.any(np.diag(D0) > atol):
        raise ValidationError("diagonal entries of D0 must be nonpositive")
    rowsum = (D0 + D1) @ np.ones(K)
    if np.any(np.abs(rowsum) > max(atol, 1e-8 * np.abs(np.diag(D0)).max())):
        raise ValidationError(
            f"rows of D0+D1 must sum to zero (generator); residual {rowsum!r}"
        )
    if np.all(np.abs(D1) <= atol):
        raise ValidationError("D1 is identically zero: the MAP never produces events")


def _is_irreducible(D: np.ndarray, atol: float) -> bool:
    """Check irreducibility of the generator via reachability on |D|>0."""
    K = D.shape[0]
    adj = (np.abs(D - np.diag(np.diag(D))) > atol).astype(float) + np.eye(K)
    reach = np.linalg.matrix_power(adj, K - 1) if K > 1 else adj
    return bool(np.all(reach > 0))


class MAP:
    """Markovian Arrival Process defined by matrices ``(D0, D1)``.

    Parameters
    ----------
    D0, D1:
        Square rate matrices as described in the module docstring.
    validate:
        When True (default) the matrices are checked for MAP validity and
        irreducibility of the phase process.

    Examples
    --------
    >>> from repro.maps import builders
    >>> m = builders.mmpp2(r1=0.1, r2=0.2, lam1=2.0, lam2=0.5)
    >>> round(m.mean, 3) > 0
    True
    """

    __slots__ = ("_D0", "_D1", "__dict__")

    def __init__(self, D0, D1, *, validate: bool = True) -> None:
        D0 = np.array(D0, dtype=float, copy=True)
        D1 = np.array(D1, dtype=float, copy=True)
        if validate:
            _validate_pair(D0, D1, _ATOL)
            if not _is_irreducible(D0 + D1, _ATOL):
                raise ValidationError("phase process D0+D1 is reducible")
        # Zero-clip tiny negatives introduced by fitting round-off.
        offmask = ~np.eye(D0.shape[0], dtype=bool)
        D0[offmask] = np.clip(D0[offmask], 0.0, None)
        np.clip(D1, 0.0, None, out=D1)
        self._D0 = _frozen(D0)
        self._D1 = _frozen(D1)

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #
    @property
    def D0(self) -> np.ndarray:
        """Rate matrix of phase jumps without events (read-only view)."""
        return self._D0

    @property
    def D1(self) -> np.ndarray:
        """Rate matrix of phase jumps with events (read-only view)."""
        return self._D1

    @property
    def order(self) -> int:
        """Number of phases K."""
        return self._D0.shape[0]

    @cached_property
    def generator(self) -> np.ndarray:
        """Phase-process generator ``D = D0 + D1`` (read-only)."""
        return _frozen(self._D0 + self._D1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MAP(order={self.order}, rate={self.rate:.6g}, "
            f"scv={self.scv:.6g}, gamma2={self.gamma2:.6g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MAP):
            return NotImplemented
        return (
            self.order == other.order
            and np.allclose(self._D0, other._D0, atol=1e-12, rtol=1e-10)
            and np.allclose(self._D1, other._D1, atol=1e-12, rtol=1e-10)
        )

    def __hash__(self) -> int:
        return hash((self.order, self._D0.tobytes(), self._D1.tobytes()))

    # ------------------------------------------------------------------ #
    # stationary quantities
    # ------------------------------------------------------------------ #
    @cached_property
    def phase_stationary(self) -> np.ndarray:
        """Stationary distribution ``theta`` of the phase CTMC (read-only)."""
        return _frozen(_moments.phase_stationary(self._D0, self._D1))

    @cached_property
    def embedded(self) -> np.ndarray:
        """Embedded (at event epochs) phase chain ``P = (-D0)^-1 D1``
        (read-only)."""
        return _frozen(_moments.embedded_matrix(self._D0, self._D1))

    @cached_property
    def embedded_stationary(self) -> np.ndarray:
        """Stationary distribution ``pi_e`` of the embedded chain (read-only)."""
        return _frozen(_moments.embedded_stationary(self._D0, self._D1))

    @cached_property
    def rate(self) -> float:
        """Fundamental (long-run event) rate ``lambda``."""
        return _moments.fundamental_rate(self._D0, self._D1)

    @cached_property
    def phase_event_rates(self) -> np.ndarray:
        """Conditional event intensity per phase, ``D1 @ 1``.

        Entry ``h`` is the instantaneous event rate while the phase process
        sits in ``h`` — the quantity that identifies a MAP's "bursty" phase
        (high-rate for arrival processes, low-rate for service processes;
        see :func:`repro.workloads.bursty.bursty_phase`).
        """
        return _frozen(self._D1.sum(axis=1))

    # ------------------------------------------------------------------ #
    # interarrival-time characteristics
    # ------------------------------------------------------------------ #
    def moments(self, order: int = 3) -> np.ndarray:
        """Raw interarrival moments ``E[X^k]`` for k = 1..order."""
        return _moments.interarrival_moments(self._D0, self._D1, order=order)

    @cached_property
    def mean(self) -> float:
        """Mean interevent time ``1/lambda``."""
        return float(self.moments(1)[0])

    @cached_property
    def variance(self) -> float:
        """Variance of the interevent time."""
        m = self.moments(2)
        return float(m[1] - m[0] * m[0])

    @cached_property
    def scv(self) -> float:
        """Squared coefficient of variation (SCV = CV^2)."""
        return self.variance / (self.mean * self.mean)

    @cached_property
    def cv(self) -> float:
        """Coefficient of variation (the paper's "CV")."""
        return float(np.sqrt(self.scv))

    @cached_property
    def skewness(self) -> float:
        """Skewness of the interevent time."""
        return _moments.skewness_of(self._D0, self._D1)

    def autocorrelation(self, lags: "int | np.ndarray") -> np.ndarray:
        """Interarrival autocorrelation ``rho_j`` at the requested lags."""
        return _acf.lag_autocorrelation(self._D0, self._D1, lags)

    @cached_property
    def gamma2(self) -> float:
        """Geometric ACF decay rate (subdominant eigenvalue of ``P``)."""
        return _acf.decay_rate_gamma2(self._D0, self._D1)

    # ------------------------------------------------------------------ #
    # structural predicates
    # ------------------------------------------------------------------ #
    @cached_property
    def is_poisson(self) -> bool:
        """True if the MAP is a plain Poisson process (order 1)."""
        return self.order == 1

    @cached_property
    def is_mmpp(self) -> bool:
        """True if ``D1`` is diagonal (Markov-modulated Poisson process)."""
        return bool(np.allclose(self._D1, np.diag(np.diag(self._D1)), atol=1e-12))

    @cached_property
    def is_renewal(self) -> bool:
        """True if the interarrival times are i.i.d.

        Holds iff ``P = (-D0)^-1 D1`` has identical rows (the phase after an
        event is independent of the phase before it), which makes the ACF
        identically zero.
        """
        P = self.embedded
        return bool(np.allclose(P, np.broadcast_to(P[0], P.shape), atol=1e-10))

    # ------------------------------------------------------------------ #
    # transformations (see repro.maps.operations for the full algebra)
    # ------------------------------------------------------------------ #
    def scaled_to_rate(self, rate: float) -> "MAP":
        """Return a time-rescaled copy with fundamental rate ``rate``.

        Rescaling time leaves SCV, skewness, and the ACF unchanged.
        """
        if rate <= 0:
            raise ValidationError(f"rate must be positive, got {rate}")
        c = rate / self.rate
        return MAP(self._D0 * c, self._D1 * c, validate=False)

    def scaled_to_mean(self, mean: float) -> "MAP":
        """Return a time-rescaled copy with mean interevent time ``mean``."""
        if mean <= 0:
            raise ValidationError(f"mean must be positive, got {mean}")
        return self.scaled_to_rate(1.0 / mean)
