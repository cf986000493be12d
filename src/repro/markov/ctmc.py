"""Steady-state solution of continuous-time Markov chains.

Solves ``pi @ Q = 0`` with ``pi @ 1 = 1`` for sparse generators.  The direct
method pins one component of ``pi`` to 1, drops that state's balance
equation and factorizes the remaining ``(S-1) x (S-1)`` block of ``Q^T``
once; the reduced system keeps ``Q``'s sparsity (a dense normalization row
would fill the LU factors) and the result is normalized afterwards.  The
iterative method (GMRES + ILU) covers state spaces too large for a sparse
LU — the regime where the paper's bounds are the only practical analytic
option.

``Q`` may also be a matrix-free :class:`scipy.sparse.linalg.LinearOperator`
exposing ``matvec``/``rmatvec`` (e.g. the Kronecker generator of
:mod:`repro.markov.kronop`): the ``"operator"`` method solves the
rank-one-corrected singular system with preconditioned BiCGSTAB without
ever assembling ``Q`` — the regime past the CTMC *storage* wall where even
the matrix itself is prohibitive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro.obs.core import get_telemetry
from repro.utils.errors import IterativeSolverError, SolverError

__all__ = ["steady_state_ctmc"]

#: BiCGSTAB iteration cap for the operator path.  Each iteration costs two
#: operator applications; preconditioned solves on catalog-scale factors
#: converge in 150-250 iterations, largely independent of state count.
OPERATOR_MAXITER = 3000


def _solve_pinned(QT: sp.csc_matrix, pin: int) -> np.ndarray:
    """Solve ``Q^T pi = 0`` with ``pi[pin] = 1`` and equation ``pin`` dropped.

    When ``pin`` lies in the chain's only closed class, every other state
    reaches it, so the reduced ``(S-1) x (S-1)`` block is nonsingular and
    the reduced system has a unique solution.
    """
    S = QT.shape[0]
    keep = np.arange(S) != pin
    rhs = -QT[:, [pin]].toarray().ravel()[keep]
    pi = np.empty(S)
    pi[keep] = spla.spsolve(QT[:, keep][keep, :].tocsc(), rhs)
    pi[pin] = 1.0
    return pi


def _closed_class_state(QT: sp.csc_matrix) -> int:
    """Last state of a closed communicating class of the chain.

    Pinning needs a state with positive probability.  Models whose MAP
    phases are never re-entered (e.g. an Erlang server idling in a phase
    no completion leads to) have transient states, which may well include
    the last one; the states of a class that no transition leaves are
    recurrent.
    """
    S = QT.shape[0]
    n_classes, labels = connected_components(QT, directed=True, connection="strong")
    if n_classes == 1:
        return S - 1
    dst, src = QT.nonzero()  # Q^T[j, i] != 0 is the transition i -> j
    leaving = labels[src] != labels[dst]
    closed = np.ones(n_classes, dtype=bool)
    closed[labels[src[leaving]]] = False
    return int(np.flatnonzero(closed[labels])[-1])


def _solve_direct(QT: sp.csc_matrix) -> tuple[np.ndarray, int]:
    """Sparse-LU stationary vector; returns ``(pi, pins)``.

    The last state of a closed class (the last state, for an irreducible
    chain) is pinned first.  When it is so improbable that another
    component overflows (probabilities spanning more than ~1e-308), the
    solve is repeated pinned at the largest component, which bounds every
    other component by its true ratio to the most probable state.
    """
    pi = _solve_pinned(QT, _closed_class_state(QT))
    pins = 1
    if not np.all(np.isfinite(pi)):
        pin = int(np.argmax(np.where(np.isfinite(pi), np.abs(pi), np.inf)))
        pi = _solve_pinned(QT, pin)
        pins = 2
    # Hand back a probability vector: the caller's negativity threshold is
    # an absolute probability.  The max-scaling keeps the sum finite, and
    # both scalings are positive, so a bad solve keeps its signs.
    pi /= np.abs(pi).max()
    total = pi.sum()
    if total > 0:
        pi /= total
    return pi, pins


def _solve_gmres(QT: sp.csr_matrix, tol: float) -> np.ndarray:
    S = QT.shape[0]
    # Regularized system: (Q^T + e e_last^T-style normalization row).
    A = QT.tolil(copy=True)
    A[S - 1, :] = 1.0
    A = A.tocsc()
    b = np.zeros(S)
    b[S - 1] = 1.0
    try:
        ilu = spla.spilu(A, drop_tol=1e-5, fill_factor=20)
        M = spla.LinearOperator((S, S), ilu.solve)
    except RuntimeError:
        M = None
    x0 = np.full(S, 1.0 / S)
    pi, info = spla.gmres(A, b, x0=x0, M=M, rtol=tol, maxiter=2000, restart=100)
    if info != 0:
        residual = float(np.abs(A @ pi - b).max())
        raise IterativeSolverError(
            solver="gmres",
            info=int(info),
            iterations=int(info) if info > 0 else 2000,
            residual=residual,
            tolerance=tol,
        )
    return pi


def _solve_operator(Q: spla.LinearOperator, tol: float) -> np.ndarray:
    """Matrix-free stationary solve via rank-one-corrected BiCGSTAB.

    ``pi @ Q = 0`` is singular with a one-dimensional null space; the
    standard rank-one correction makes it definite without densifying:
    with ``u = 1/S`` uniform, ``A x = Q^T x + u (1^T x)`` satisfies
    ``A pi = u`` exactly for the (normalized) stationary vector, and ``A``
    applications cost one ``rmatvec`` plus a vector axpy.  The block
    preconditioner — when the operator offers one — inverts the per-
    composition phase blocks of ``Q^T``, which capture all the fast local
    phase dynamics.
    """
    S = Q.shape[0]
    u = np.full(S, 1.0 / S)
    n_applies = [0]

    def apply_A(x: np.ndarray) -> np.ndarray:
        n_applies[0] += 1
        x = np.asarray(x, dtype=float)
        return Q.rmatvec(x) + u * x.sum()

    A = spla.LinearOperator((S, S), matvec=apply_A, dtype=np.float64)
    M = None
    precond = getattr(Q, "phase_block_preconditioner", None)
    if precond is not None:
        apply_M = precond(transpose=True)
        if apply_M is not None:
            M = spla.LinearOperator((S, S), matvec=apply_M, dtype=np.float64)
    # BiCGSTAB's rtol is relative to ||b|| = ||u||; the post-solve residual
    # check in steady_state_ctmc is the authoritative accuracy gate.
    rtol = max(tol, 1e-10)
    pi, info = spla.bicgstab(
        A, u, x0=u.copy(), M=M, rtol=rtol, atol=0.0, maxiter=OPERATOR_MAXITER
    )
    if info != 0:
        residual = float(np.abs(apply_A(pi) - u).max())
        raise IterativeSolverError(
            solver="bicgstab",
            info=int(info),
            iterations=n_applies[0],
            residual=residual,
            tolerance=rtol,
        )
    return pi


def _finish(pi: np.ndarray, apply_QT, scale: float, span) -> np.ndarray:
    """Validate, clip round-off negatives and normalize a raw stationary solve.

    ``apply_QT(pi)`` returns ``pi @ Q``; its max-norm is the residual the
    span records and the final accuracy gate checks.  Tiny positive
    components are kept: zeroing them would cost accuracy (on ``tpcw``
    N=128 it raises ``|pi @ Q|_1`` from ~1e-14 to ~1e-11).
    """
    if np.any(pi < -1e-8):
        raise SolverError(
            f"stationary solve produced negative probabilities (min {pi.min():.3g})"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("stationary solve produced a non-normalizable vector")
    pi /= total
    residual = float(np.abs(apply_QT(pi)).max())
    span.set("residual", residual)
    if residual > 1e-6 * scale:
        raise SolverError(f"stationary residual too large: {residual:.3g}")
    return pi


def _steady_state_operator(
    Q: spla.LinearOperator, method: str, tol: float, span
) -> np.ndarray:
    """Validate + solve + clean for a matrix-free generator."""
    S = Q.shape[0]
    if Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got {Q.shape}")
    if method not in ("auto", "operator"):
        raise ValueError(
            f"method {method!r} requires an assembled matrix; matrix-free "
            "generators support method='operator' (or 'auto')"
        )
    span.set("method", "operator")
    if S == 1:
        return np.ones(1)
    diag_fn = getattr(Q, "diagonal", None)
    if not callable(diag_fn):
        raise ValueError(
            "matrix-free generators must expose a diagonal() method "
            "(used for rate-scale validation and uniformization)"
        )
    diag = np.asarray(diag_fn())
    scale = max(1.0, float(np.abs(diag).max()))
    # Conservation check via one matvec: Q @ 1 = row sums.
    rowsum = np.abs(Q.matvec(np.ones(S)))
    if np.any(rowsum > 1e-8 * scale):
        raise ValueError("Q rows must sum to zero (not a generator)")

    pi = _solve_operator(Q, tol=max(tol, 1e-12))
    return _finish(pi, Q.rmatvec, scale, span)


def steady_state_ctmc(
    Q: "sp.spmatrix | np.ndarray | spla.LinearOperator",
    method: str = "auto",
    tol: float = 1e-12,
) -> np.ndarray:
    """Stationary distribution of the CTMC with generator ``Q``.

    The direct method solves the reduced system obtained by pinning one
    component of ``pi`` to 1 and dropping its balance equation; it pins
    the last state of a closed class, and pins again at the largest
    component if the first solve overflows.  Every method's answer is
    rejected if it has negative entries beyond round-off or cannot be
    normalized; it is then clipped at zero, normalized, and accepted only
    if ``max|pi @ Q|`` is small relative to the largest rate.

    When telemetry is enabled (:mod:`repro.obs`) the solve runs under a
    ``ctmc.steady_state`` span carrying ``n_states``, ``nnz`` (assembled
    generators), the resolved ``method``, ``pins`` (direct method: 1, or
    2 after a re-pin) and that ``residual``.

    Parameters
    ----------
    Q:
        Generator matrix (rows sum to zero), sparse or dense — or a
        matrix-free :class:`~scipy.sparse.linalg.LinearOperator` with
        ``matvec``/``rmatvec`` and a ``diagonal()`` method, which is
        solved iteratively without assembling the matrix.
    method:
        ``"direct"`` (sparse LU), ``"gmres"`` (ILU-preconditioned),
        ``"operator"`` (matrix-free preconditioned BiCGSTAB; requires a
        ``LinearOperator`` input), or ``"auto"`` (direct up to 300k
        states, GMRES beyond; operator for ``LinearOperator`` inputs).
    tol:
        Convergence/validation tolerance.

    Returns
    -------
    numpy.ndarray
        Probability vector ``pi`` with ``pi @ Q ~= 0`` and ``sum(pi) = 1``.

    Raises
    ------
    SolverError
        When the solution has negative entries, cannot be normalized, or
        leaves a residual above the accuracy gate.
    IterativeSolverError
        When an iterative method (GMRES or operator BiCGSTAB) stops
        before reaching its residual target.
    """
    with get_telemetry().span("ctmc.steady_state") as span:
        if isinstance(Q, spla.LinearOperator) and not sp.issparse(Q):
            span.set("n_states", int(Q.shape[0]))
            return _steady_state_operator(Q, method=method, tol=tol, span=span)
        if method == "operator":
            raise ValueError(
                "method='operator' requires a LinearOperator generator "
                "(see repro.markov.kronop); got an assembled matrix"
            )
        Qs = sp.csr_matrix(Q) if not sp.issparse(Q) else Q.tocsr()
        S = Qs.shape[0]
        span.set("n_states", int(S))
        span.set("nnz", int(Qs.nnz))
        if Qs.shape[0] != Qs.shape[1]:
            raise ValueError(f"Q must be square, got {Qs.shape}")
        rowsum = np.abs(np.asarray(Qs.sum(axis=1)).ravel())
        scale = max(1.0, float(np.abs(Qs.diagonal()).max()))
        if np.any(rowsum > 1e-8 * scale):
            raise ValueError("Q rows must sum to zero (not a generator)")
        if S == 1:
            return np.ones(1)

        if method == "auto":
            method = "direct" if S <= 300_000 else "gmres"
        span.set("method", method)
        if method == "direct":
            pi, pins = _solve_direct(Qs.T.tocsc())
            span.set("pins", pins)
        elif method == "gmres":
            pi = _solve_gmres(Qs.T.tocsr(), tol=max(tol, 1e-12))
        else:
            raise ValueError(f"unknown method {method!r}")
        return _finish(pi, lambda x: x @ Qs, scale, span)
