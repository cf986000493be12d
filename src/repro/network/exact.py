"""Exact global-balance solution of closed MAP queueing networks.

Builds the sparse CTMC generator over the joint (population, phase) state
space and solves for the stationary distribution.  This is the oracle the
paper compares its bounds against; its cost grows combinatorially
(``C(M+N-1, N) * prod K_k`` states), which is precisely the motivation for
the marginal-balance LP in :mod:`repro.core`.

Transition inventory (station ``j`` busy, phase ``a``, level-scale
``c_j(n_j)``):

* service completion ``D1_j[a,b]`` routed to ``k != j``: ``n_j -= 1``,
  ``n_k += 1``, phase ``a -> b``;
* self-routed completion (``routing[j,j] > 0``): phase ``a -> b`` only;
* hidden phase transition ``D0_j[a,b]`` (``a != b``): phase ``a -> b``.

Idle stations make no transitions (their phase is frozen — the "phase left
active by the last served job" convention of the paper's Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.markov.ctmc import steady_state_ctmc
from repro.network.model import Network, require_closed
from repro.network.statespace import (
    NetworkStateSpace,
    expected_state_count,
    get_statespace_cache,
)

if TYPE_CHECKING:
    from repro.markov.kronop import KroneckerGenerator

__all__ = [
    "DENSE_MAX_STATES",
    "OPERATOR_MAX_STATES",
    "build_generator",
    "generator_for",
    "solve_exact",
    "ExactSolution",
]

#: Default ``max_states`` guard of the dense backend: past this many states
#: the sparse generator and its LU no longer fit in memory, and
#: ``backend="auto"`` switches to the matrix-free operator.
DENSE_MAX_STATES = 2_000_000

#: Guard rail of the matrix-free backend.  The operator path never stores
#: ``Q``, but the solve still holds O(10) state-length vectors plus the
#: closed-form diagonal — past this many states even those are prohibitive.
OPERATOR_MAX_STATES = 64_000_000


def build_generator(
    network: Network, space: NetworkStateSpace | None = None
) -> sp.csr_matrix:
    """Sparse CTMC generator of the network on its joint state space."""
    require_closed(network, "exact")
    space = space or NetworkStateSpace(network)
    comps = space.comp.states
    n_phase = space.n_phase
    routing = network.routing

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(comp_src, comp_dst, ph_src, ph_dst, rate_per_comp, unit_rate):
        """Append the outer-product block of transitions."""
        r = (comp_src[:, None] * n_phase + ph_src[None, :]).ravel()
        c = (comp_dst[:, None] * n_phase + ph_dst[None, :]).ravel()
        v = np.broadcast_to(
            (rate_per_comp * unit_rate)[:, None], (len(comp_src), len(ph_src))
        ).ravel()
        rows.append(r)
        cols.append(c)
        vals.append(np.ascontiguousarray(v))

    for j, st_j in enumerate(network.stations):
        Kj = st_j.phases
        D0, D1 = st_j.service.D0, st_j.service.D1
        busy = np.nonzero(comps[:, j] >= 1)[0]
        if len(busy) == 0:
            continue
        scale = st_j.rate_scale(comps[busy, j])
        # Precompute phase groups and shifted targets for each (a, b).
        ph_groups = [space.phases_with(j, a) for a in range(Kj)]
        stride_j = space.phase_strides[j]

        # --- service completions (D1), routed by `routing[j, :]` ---
        for k in range(network.n_stations):
            p_jk = routing[j, k]
            if p_jk <= 0.0:
                continue
            if k == j:
                comp_dst = busy
            else:
                moved = comps[busy].copy()
                moved[:, j] -= 1
                moved[:, k] += 1
                comp_dst = space.comp.rank(moved)
            for a in range(Kj):
                ph_src = ph_groups[a]
                for b in range(Kj):
                    rate = D1[a, b] * p_jk
                    if rate <= 0.0:
                        continue
                    if k == j and a == b:
                        continue  # no state change: cancels in the generator
                    ph_dst = ph_src + (b - a) * stride_j
                    emit(busy, comp_dst, ph_src, ph_dst, scale, rate)

        # --- hidden phase transitions (D0 off-diagonal) ---
        for a in range(Kj):
            ph_src = ph_groups[a]
            for b in range(Kj):
                if a == b:
                    continue
                rate = D0[a, b]
                if rate <= 0.0:
                    continue
                ph_dst = ph_src + (b - a) * stride_j
                emit(busy, busy, ph_src, ph_dst, scale, rate)

    S = space.size
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
    else:  # single station, single phase: no transitions at all
        r = c = np.empty(0, dtype=np.int64)
        v = np.empty(0)
    Q = sp.coo_matrix((v, (r, c)), shape=(S, S)).tocsr()
    Q.setdiag(Q.diagonal() - np.asarray(Q.sum(axis=1)).ravel())
    return Q


@dataclass
class ExactSolution:
    """Stationary solution of a closed MAP network with metric accessors.

    All probabilistic queries are derived from the full stationary vector
    ``pi`` reshaped as ``(compositions, phase_codes)``.
    """

    network: Network
    space: NetworkStateSpace
    pi: np.ndarray  # flat, length space.size
    backend: str = "dense"  # the generator that produced pi

    @cached_property
    def _pi2(self) -> np.ndarray:
        """``(Sc, n_phase)`` view of the stationary vector."""
        return self.pi.reshape(self.space.comp.size, self.space.n_phase)

    def _phase_group_matrix(self, k: int) -> np.ndarray:
        """Indicator ``(n_phase, K_k)`` mapping phase codes to station k's digit."""
        digits = self.space.phase_digits[:, k]
        K = self.network.stations[k].phases
        out = np.zeros((self.space.n_phase, K))
        out[np.arange(self.space.n_phase), digits] = 1.0
        return out

    # ------------------------------------------------------------------ #
    # single-station marginals
    # ------------------------------------------------------------------ #
    def marginal(self, k: int) -> np.ndarray:
        """``pi_k(n, h) = P[n_k = n, h_k = h]`` as an ``(N+1, K_k)`` array."""
        N = self.network.population
        by_phase = self._pi2 @ self._phase_group_matrix(k)  # (Sc, K_k)
        out = np.zeros((N + 1, self.network.stations[k].phases))
        np.add.at(out, self.space.comp.states[:, k], by_phase)
        return out

    def queue_length_distribution(self, k: int) -> np.ndarray:
        """``P[n_k = n]`` for n = 0..N."""
        return self.marginal(k).sum(axis=1)

    def utilization(self, k: int) -> float:
        """``P[n_k >= 1]`` (busy probability; the paper's utilization)."""
        return float(1.0 - self.queue_length_distribution(k)[0])

    def mean_queue_length(self, k: int) -> float:
        """``E[n_k]`` including the job(s) in service."""
        dist = self.queue_length_distribution(k)
        return float(dist @ np.arange(len(dist)))

    def queue_length_moment(self, k: int, order: int) -> float:
        """``E[n_k^order]``."""
        dist = self.queue_length_distribution(k)
        return float(dist @ np.arange(len(dist), dtype=float) ** order)

    def throughput(self, k: int) -> float:
        """Departure rate of station k: ``sum c_k(n) D1_k[h,:]1 pi_k(n,h)``."""
        st = self.network.stations[k]
        marg = self.marginal(k)
        levels = np.arange(self.network.population + 1)
        scale = st.rate_scale(levels)  # zero at n=0
        d1_row = st.service.D1.sum(axis=1)
        return float(scale @ (marg @ d1_row))

    def system_throughput(self, reference: int = 0) -> float:
        """Cycles per unit time through the reference station (``v_ref=1``)."""
        return self.throughput(reference)

    def response_time(self, reference: int = 0) -> float:
        """Little's-law end-to-end response time ``R = N / X_ref``."""
        return self.network.population / self.system_throughput(reference)

    # ------------------------------------------------------------------ #
    # pairwise marginals (the LP variable space; used by core.projection)
    # ------------------------------------------------------------------ #
    def pair_marginal(self, j: int, k: int, busy: bool) -> np.ndarray:
        """``P[n_j >= 1 (or = 0), h_j = a, n_k = n, h_k = h]``.

        Returns an ``(K_j, N+1, K_k)`` array; ``busy=True`` selects the
        ``V`` family of the LP, ``busy=False`` the ``W`` family.
        """
        if j == k:
            raise ValueError("pair marginal requires distinct stations")
        N = self.network.population
        Kj = self.network.stations[j].phases
        Kk = self.network.stations[k].phases
        comps = self.space.comp.states
        mask = comps[:, j] >= 1 if busy else comps[:, j] == 0
        rows = np.nonzero(mask)[0]
        out = np.zeros((Kj, N + 1, Kk))
        if len(rows) == 0:
            return out
        # Joint phase indicator over (digit_j, digit_k).
        dj = self.space.phase_digits[:, j]
        dk = self.space.phase_digits[:, k]
        pair_code = dj * Kk + dk
        ind = np.zeros((self.space.n_phase, Kj * Kk))
        ind[np.arange(self.space.n_phase), pair_code] = 1.0
        by_pair = self._pi2[rows] @ ind  # (rows, Kj*Kk)
        levels = comps[rows, k]
        acc = np.zeros((N + 1, Kj * Kk))
        np.add.at(acc, levels, by_pair)
        return acc.reshape(N + 1, Kj, Kk).transpose(1, 0, 2)

    def triple_marginal(self, i: int, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Triple-joint marginals over (busy i, phase j, state k).

        Returns ``(S, T)``, both of shape ``(K_i, K_j, N+1, K_k)``:

        * ``S[e, a, n, h] = P[n_i >= 1, h_i = e, h_j = a, n_k = n, h_k = h]``
        * ``T[e, a, n, h] = E[n_j ; n_i >= 1, h_i = e, h_j = a, n_k = n, h_k = h]``
        """
        if len({i, j, k}) != 3:
            raise ValueError("triple marginal requires three distinct stations")
        N = self.network.population
        Ki = self.network.stations[i].phases
        Kj = self.network.stations[j].phases
        Kk = self.network.stations[k].phases
        comps = self.space.comp.states
        rows = np.nonzero(comps[:, i] >= 1)[0]
        S = np.zeros((Ki, Kj, N + 1, Kk))
        T = np.zeros((Ki, Kj, N + 1, Kk))
        if len(rows) == 0:
            return S, T
        di = self.space.phase_digits[:, i]
        dj = self.space.phase_digits[:, j]
        dk = self.space.phase_digits[:, k]
        code = (di * Kj + dj) * Kk + dk
        ind = np.zeros((self.space.n_phase, Ki * Kj * Kk))
        ind[np.arange(self.space.n_phase), code] = 1.0
        prob = self._pi2[rows] @ ind
        mom = (self._pi2[rows] * comps[rows, j][:, None]) @ ind
        levels = comps[rows, k]
        accS = np.zeros((N + 1, Ki * Kj * Kk))
        accT = np.zeros((N + 1, Ki * Kj * Kk))
        np.add.at(accS, levels, prob)
        np.add.at(accT, levels, mom)
        S = accS.reshape(N + 1, Ki, Kj, Kk).transpose(1, 2, 0, 3)
        T = accT.reshape(N + 1, Ki, Kj, Kk).transpose(1, 2, 0, 3)
        return S, T

    def conditional_first_moment(self, j: int, k: int) -> np.ndarray:
        """``G_jk(a, n, h) = E[n_j 1{h_j=a, n_k=n, h_k=h}]`` as ``(K_j, N+1, K_k)``."""
        if j == k:
            raise ValueError("conditional moment requires distinct stations")
        N = self.network.population
        Kj = self.network.stations[j].phases
        Kk = self.network.stations[k].phases
        comps = self.space.comp.states
        weighted = self._pi2 * comps[:, j][:, None]  # weight each comp by n_j
        dj = self.space.phase_digits[:, j]
        dk = self.space.phase_digits[:, k]
        pair_code = dj * Kk + dk
        ind = np.zeros((self.space.n_phase, Kj * Kk))
        ind[np.arange(self.space.n_phase), pair_code] = 1.0
        by_pair = weighted @ ind
        acc = np.zeros((N + 1, Kj * Kk))
        np.add.at(acc, comps[:, k], by_pair)
        return acc.reshape(N + 1, Kj, Kk).transpose(1, 0, 2)


def generator_for(
    network: Network, max_states: int, backend: str
) -> "tuple[NetworkStateSpace, sp.csr_matrix | KroneckerGenerator, str]":
    """State space and generator of the network's CTMC, and their backend.

    The one front end of the exact and transient tiers.  ``backend`` is
    ``"dense"`` (assemble the sparse generator), ``"operator"`` (the
    matrix-free Kronecker generator, never building ``Q``) or ``"auto"``
    (dense within ``max_states``, operator beyond it); the resolved name
    is returned.  ``max_states`` guards the dense backend and
    :data:`OPERATOR_MAX_STATES` the operator: the closed-form
    :func:`expected_state_count` is checked *before* enumerating, since an
    over-limit space would exhaust memory while it is built.  The space
    comes from the process-wide
    :func:`~repro.network.statespace.get_statespace_cache`.
    """
    require_closed(network, "exact")
    if backend not in ("auto", "dense", "operator"):
        raise ValueError(f"unknown backend {backend!r}")
    expected = expected_state_count(network)
    if backend == "auto":
        backend = "dense" if expected <= max_states else "operator"
    limit = max_states if backend == "dense" else OPERATOR_MAX_STATES
    if expected > limit:
        raise MemoryError(
            f"state space has {expected} states (> max_states={limit}); "
            "use the LP bounds (repro.core) or simulation (repro.sim) instead"
        )
    space = get_statespace_cache().space_for(network)
    if backend == "operator":
        from repro.network.kron import kronecker_generator

        return space, kronecker_generator(network, space), backend
    return space, build_generator(network, space), backend


def solve_exact(
    network: Network,
    method: str = "auto",
    max_states: int = DENSE_MAX_STATES,
    backend: str = "dense",
) -> ExactSolution:
    """Solve the network's CTMC exactly.

    Parameters
    ----------
    network:
        The closed MAP network.
    method:
        Passed to :func:`repro.markov.steady_state_ctmc`.
    max_states:
        Guard rail of the **dense** backend: refuse to assemble ``Q`` for
        state spaces larger than this (the paper's "prohibitive" regime)
        instead of exhausting memory.
    backend:
        ``"dense"`` (the default), ``"operator"`` (Krylov solve on the
        matrix-free generator) or ``"auto"``; see :func:`generator_for`.
    """
    space, Q, backend = generator_for(network, max_states, backend)
    pi = steady_state_ctmc(Q, method=method)
    return ExactSolution(network=network, space=space, pi=pi, backend=backend)
