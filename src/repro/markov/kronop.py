"""Matrix-free Kronecker representation of structured CTMC generators.

The generator of a closed MAP queueing network is structurally a sum of
Kronecker products of small per-station matrices acting on the joint
``(composition, phase)`` state space — yet the materialized sparse ``Q``
grows combinatorially (``C(N+M-1, N) * prod K_k`` rows), which is exactly
the storage wall that makes exact and transient analysis "prohibitive" in
the paper's terms.  This module stores only the **factors** and computes
``Q @ x`` / ``x @ Q`` on demand:

* the state space factorizes as ``comp_rank * n_phase + phase_code`` with
  row-major mixed-radix phase codes, so a state vector reshapes to a
  ``(Sc, n_phase)`` matrix with no data movement;
* each station contributes a **local term** (phase transitions of
  ``D0 + p_jj D1`` off the diagonal, population unchanged) applied by
  contracting one mixed-radix axis with a ``(K_j, K_j)`` matrix, and one
  **move term** per routing target (``p_jk D1_j`` phase contraction plus a
  precomputed injective composition shift ``n - e_j + e_k``);
* the diagonal is the closed form ``-sum_j c_j(n_j) r_j(h_j)`` with
  ``r_j`` the per-phase total exit rate, precomputed once as a dense
  ``(Sc, n_phase)`` array — the same O(S) footprint as one state vector.

Storage is ``O(S + M * Sc)`` (the diagonal plus the composition index
arrays) instead of ``O(nnz(Q))``; one matvec costs the same
``O(S * sum_j K_j)`` arithmetic as a sparse multiply would, without ever
assembling ``Q``.  The equivalence suite in
``tests/markov/test_kronop_equivalence.py`` checks matvec, rmatvec and the
diagonal against :func:`repro.network.exact.build_generator` on every
closed catalog scenario.

This module is network-agnostic: it consumes plain factor data
(:class:`StationFactor`).  The glue that derives factors from a
:class:`~repro.network.model.Network` lives in :mod:`repro.network.kron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from repro import obs

__all__ = ["KroneckerGenerator", "MoveTerm", "StationFactor"]


@dataclass(frozen=True)
class MoveTerm:
    """One routed service-completion term ``p_jk D1_j`` with its comp shift.

    Attributes
    ----------
    target:
        Destination station index ``k`` (never the owning station).
    prob:
        Routing probability ``p_jk`` (> 0).
    dst:
        ``(n_busy,)`` destination composition ranks, aligned with the
        owning factor's ``busy`` array: ``dst[i] = rank(comps[busy[i]]
        - e_j + e_k)``.  The shift is injective, so scatter-adds over
        ``dst`` never collide.
    """

    target: int
    prob: float
    dst: np.ndarray


@dataclass(frozen=True)
class StationFactor:
    """Per-station factor data of a Kronecker-structured generator.

    Attributes
    ----------
    station:
        Position ``j`` of this station (also its mixed-radix phase axis).
    D0, D1:
        The station's MAP matrices, ``(K_j, K_j)``.
    p_row:
        Routing row ``routing[j, :]`` (length ``M``; ``p_row[j]`` is the
        self-routing mass folded into the local term).
    scale:
        ``(Sc,)`` rate multipliers ``c_j(n_j)`` per composition (zero at
        ``n_j = 0`` — idle stations make no transitions).
    busy:
        Composition ranks with ``n_j >= 1``, ascending.
    moves:
        :class:`MoveTerm` per off-station routing target with
        ``p_jk > 0``, ascending by target.
    """

    station: int
    D0: np.ndarray
    D1: np.ndarray
    p_row: np.ndarray
    scale: np.ndarray
    busy: np.ndarray
    moves: tuple[MoveTerm, ...]

    @property
    def order(self) -> int:
        """Number of MAP phases ``K_j``."""
        return self.D0.shape[0]

    @cached_property
    def local(self) -> np.ndarray:
        """Off-diagonal local phase dynamics ``offdiag(D0 + p_jj D1)``."""
        p_self = float(self.p_row[self.station])
        L = self.D0 + p_self * self.D1
        return L - np.diag(np.diag(L))

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Total outflow rate per phase (off-diagonal row sums + moves).

        ``r_j[a] = sum_{b != a} D0[a,b] + sum_b D1[a,b] - p_jj D1[a,a]``:
        everything that leaves state ``(n, a)`` when station j is busy —
        hidden phase changes, routed completions, and self-routed phase
        changes (the self-routed ``a -> a`` completion is invisible in the
        generator and cancels).
        """
        off0 = self.D0 - np.diag(np.diag(self.D0))
        p_self = float(self.p_row[self.station])
        return (
            off0.sum(axis=1)
            + self.D1.sum(axis=1)
            - p_self * np.diag(self.D1)
        )

    @property
    def nbytes(self) -> int:
        """Factor storage footprint in bytes."""
        total = self.D0.nbytes + self.D1.nbytes + self.p_row.nbytes
        total += self.scale.nbytes + self.busy.nbytes
        total += sum(m.dst.nbytes for m in self.moves)
        return total


def _contract_phase(
    X: np.ndarray,
    B: np.ndarray,
    pre: int,
    K: int,
    post: int,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Contract the length-``K`` mixed-radix axis of ``X`` with ``B``.

    ``out[r, (p, b, q)] = sum_a X[r, (p, a, q)] * B[a, b]`` where phase
    codes factor as ``(pre, K, post)`` in row-major order.  With ``out``
    the product is *accumulated* into the given array (saving a
    full-state temporary on the hot path).  The ``post == 1`` case (last
    station's axis) reduces to one BLAS matmul.  For the small phase
    orders of MAP(2) factors the general case runs as ``K^2`` scaled adds
    over contiguous slabs — memory-bound, and several times faster than
    the equivalent (non-BLAS) einsum on one core; larger blocks fall back
    to einsum, whose footprint is independent of ``K``.
    """
    R = X.shape[0]
    if post == 1 or K > 4:
        if post == 1:
            prod = (X.reshape(R * pre, K) @ B).reshape(R, -1)
        else:
            Xr = X.reshape(R * pre, K, post)
            prod = np.einsum("zap,ab->zbp", Xr, B).reshape(R, -1)
        if out is None:
            return prod
        out += prod
        return out
    Xr = X.reshape(R * pre, K, post)
    fresh = out is None
    if fresh:
        out = np.empty_like(X)
    Yr = out.reshape(R * pre, K, post)
    for b in range(K):
        acc = Yr[:, b, :]
        started = not fresh
        for a in range(K):
            w = B[a, b]
            if w == 0.0:
                continue
            if started:
                acc += Xr[:, a, :] * w
            else:
                np.multiply(Xr[:, a, :], w, out=acc)
                started = True
        if not started:
            acc[...] = 0.0
    return out


class KroneckerGenerator(spla.LinearOperator):
    """Matrix-free CTMC generator over a ``(composition, phase)`` space.

    Implements the scipy :class:`~scipy.sparse.linalg.LinearOperator`
    protocol: ``matvec(x)`` is ``Q @ x`` (column convention, what Krylov
    solvers consume) and ``rmatvec(x)`` is ``x @ Q`` (row convention, what
    uniformization sweeps consume) — both computed from the per-station
    factors without materializing ``Q``.

    Parameters
    ----------
    phase_dims:
        Per-station phase orders (the mixed-radix dimensions).
    factors:
        One :class:`StationFactor` per station, in station order.
    phase_digits:
        Optional precomputed ``(n_phase, M)`` digit table (shared from a
        :class:`~repro.network.statespace.PhaseLayout`); derived when
        omitted.

    Notes
    -----
    Every matvec/rmatvec bumps the process-wide ``kron.matvecs`` telemetry
    counter and the instance's :attr:`n_matvecs`, so operator-backed
    solves report the same deterministic cost measure as the dense path.
    """

    def __init__(
        self,
        phase_dims,
        factors,
        phase_digits: "np.ndarray | None" = None,
    ) -> None:
        dims = np.asarray(phase_dims, dtype=np.int64)
        if dims.ndim != 1 or len(dims) == 0 or (dims < 1).any():
            raise ValueError(f"invalid phase dims {phase_dims!r}")
        factors = tuple(factors)
        if len(factors) != len(dims):
            raise ValueError(
                f"{len(factors)} factors for {len(dims)} phase dimensions"
            )
        self.phase_dims = dims
        self.n_phase = int(np.prod(dims))
        self.factors = factors
        self.n_comps = int(len(factors[0].scale))
        for f in factors:
            if f.D0.shape != (dims[f.station],) * 2:
                raise ValueError(
                    f"factor {f.station} has order {f.D0.shape[0]}, "
                    f"phase dim is {dims[f.station]}"
                )
            if len(f.scale) != self.n_comps:
                raise ValueError("factor scale lengths disagree")
        size = self.n_comps * self.n_phase
        super().__init__(dtype=np.float64, shape=(size, size))
        if phase_digits is None:
            strides = self._strides
            codes = np.arange(self.n_phase, dtype=np.int64)
            phase_digits = np.empty((self.n_phase, len(dims)), dtype=np.int64)
            for j in range(len(dims)):
                phase_digits[:, j] = (codes // strides[j]) % dims[j]
        self.phase_digits = phase_digits
        #: Matrix-vector products computed by this operator (both
        #: conventions), the deterministic cost measure benches gate on.
        self.n_matvecs = 0
        self._diag2 = self._build_diagonal()

    # ------------------------------------------------------------------ #
    # layout helpers
    # ------------------------------------------------------------------ #
    @cached_property
    def _strides(self) -> np.ndarray:
        dims = self.phase_dims
        strides = np.ones(len(dims), dtype=np.int64)
        for j in range(len(dims) - 2, -1, -1):
            strides[j] = strides[j + 1] * dims[j + 1]
        return strides

    def _axis_split(self, j: int) -> tuple[int, int, int]:
        """``(pre, K, post)`` factorization of the phase axis at station j."""
        dims = self.phase_dims
        pre = int(np.prod(dims[:j])) if j > 0 else 1
        post = int(np.prod(dims[j + 1 :])) if j < len(dims) - 1 else 1
        return pre, int(dims[j]), post

    def _build_diagonal(self) -> np.ndarray:
        """``(Sc, n_phase)`` diagonal ``-sum_j c_j(n_j) r_j(h_j)``."""
        diag2 = np.zeros((self.n_comps, self.n_phase))
        for f in self.factors:
            rates = f.exit_rates[self.phase_digits[:, f.station]]
            diag2 -= np.outer(f.scale, rates)
        return diag2

    # ------------------------------------------------------------------ #
    # the operator protocol
    # ------------------------------------------------------------------ #
    def diagonal(self) -> np.ndarray:
        """The diagonal of ``Q`` as a flat length-``S`` vector (a view)."""
        return self._diag2.reshape(-1)

    def _count(self) -> None:
        self.n_matvecs += 1
        obs.get_telemetry().counter("kron.matvecs")

    def _rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Row convention ``x @ Q`` (uniformization steps, residuals)."""
        self._count()
        X = np.asarray(x, dtype=float).reshape(self.n_comps, self.n_phase)
        Y = X * self._diag2
        for f in self.factors:
            pre, K, post = self._axis_split(f.station)
            Z = X * f.scale[:, None]
            if K > 1:
                _contract_phase(Z, f.local, pre, K, post, out=Y)
            if f.moves:
                W = _contract_phase(Z, f.D1, pre, K, post)
                for m in f.moves:
                    T = W[f.busy]
                    T *= m.prob
                    Y[m.dst] += T
        return Y.reshape(-1)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """Column convention ``Q @ x`` (Krylov steady-state solves)."""
        self._count()
        X = np.asarray(x, dtype=float).reshape(self.n_comps, self.n_phase)
        Y = X * self._diag2
        for f in self.factors:
            pre, K, post = self._axis_split(f.station)
            if K > 1:
                Z = _contract_phase(X, f.local.T, pre, K, post)
                Z *= f.scale[:, None]
                Y += Z
            if f.moves:
                W = _contract_phase(X, f.D1.T, pre, K, post)
                scale_busy = f.scale[f.busy]
                for m in f.moves:
                    T = W[m.dst]
                    T *= (m.prob * scale_busy)[:, None]
                    Y[f.busy] += T
        return Y.reshape(-1)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def rowsum_residual(self) -> float:
        """``max_i |sum_j Q_ij|`` via one matvec — the generator invariant."""
        return float(np.abs(self.matvec(np.ones(self.shape[0]))).max())

    @property
    def nbytes(self) -> int:
        """Operator storage: diagonal, digit table, and all factors."""
        total = self._diag2.nbytes + self.phase_digits.nbytes
        total += sum(f.nbytes for f in self.factors)
        return total

    def materialized_nnz(self) -> int:
        """Entries of the assembled generator before duplicates are summed.

        One per transition :func:`~repro.network.exact.build_generator`
        emits, plus the diagonal.

        Closed form from the factor sparsity patterns — the honest basis
        for the memory-win benchmark at sizes where materializing to
        count is exactly what we cannot do.
        """
        digits = self.phase_digits
        total = 0
        for f in self.factors:
            n_busy = len(f.busy)
            if n_busy == 0:
                continue
            counts = np.bincount(
                digits[:, f.station], minlength=f.order
            )  # phase codes per digit value
            for k, p_jk in enumerate(f.p_row):
                if p_jk <= 0.0:
                    continue
                D1 = f.D1
                for a in range(f.order):
                    for b in range(f.order):
                        if D1[a, b] * p_jk <= 0.0:
                            continue
                        if k == f.station and a == b:
                            continue
                        total += n_busy * int(counts[a])
            D0 = f.D0
            for a in range(f.order):
                for b in range(f.order):
                    if a != b and D0[a, b] > 0.0:
                        total += n_busy * int(counts[a])
        total += self.shape[0]  # the diagonal
        return total

    # ------------------------------------------------------------------ #
    # preconditioning support
    # ------------------------------------------------------------------ #
    def phase_block_preconditioner(
        self,
        transpose: bool = True,
        max_patterns: int = 512,
        shift: float = 1e-8,
    ):
        """Block-Jacobi solver over the phase axis, or ``None``.

        For a fixed composition the diagonal block of ``Q`` over the phase
        codes depends only on the station **scale pattern**
        ``(c_1(n_1), ..., c_M(n_M))`` — for pure queue networks that is at
        most ``2^M`` distinct ``(n_phase, n_phase)`` blocks shared by all
        compositions.  Each block is inverted once (with a small
        ``shift`` making the singular all-busy block invertible) and the
        returned callable applies the inverse group-wise — the "cheap
        block preconditioner" of the operator steady-state path.

        Returns ``None`` when the blocks would not be cheap: more than
        ``max_patterns`` distinct patterns (delay stations at large N) or
        a phase space too large to invert densely.
        """
        n_phase = self.n_phase
        if n_phase > 1024:
            return None
        scales = np.stack([f.scale for f in self.factors], axis=1)
        keys, inverse = np.unique(scales, axis=0, return_inverse=True)
        if len(keys) > max_patterns:
            return None
        digits = self.phase_digits
        inv_blocks = []
        eye = np.eye(n_phase)
        for key in keys:
            B = np.zeros((n_phase, n_phase))
            for j, f in enumerate(self.factors):
                s = float(key[j])
                if s == 0.0:
                    continue
                pre, K, post = self._axis_split(f.station)
                if K > 1:
                    B += s * np.kron(
                        np.kron(np.eye(pre), f.local), np.eye(post)
                    )
                B -= s * np.diag(f.exit_rates[digits[:, f.station]])
            if transpose:
                B = B.T
            # Shift off the exact singularity of conservative blocks.
            B = B - shift * eye
            try:
                inv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                return None
            # Stored transposed so the group apply is a row-matmul.
            inv_blocks.append(np.ascontiguousarray(inv.T))
        groups = [np.nonzero(inverse == g)[0] for g in range(len(keys))]
        n_comps = self.n_comps

        def apply(x: np.ndarray) -> np.ndarray:
            X = np.asarray(x, dtype=float).reshape(n_comps, n_phase)
            out = np.empty_like(X)
            for g, rows in enumerate(groups):
                out[rows] = X[rows] @ inv_blocks[g]
            return out.reshape(-1)

        return apply
