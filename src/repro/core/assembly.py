"""Vectorized block assembly of the marginal-balance LP.

:func:`build_constraints` is the one way the LP's polytope is built.
Instead of emitting the constraint matrix row by row (the seed
implementation, preserved verbatim in :mod:`repro.core.assembly_reference`),
every constraint family computes its full COO ``(rows, cols, vals)`` arrays
in one shot with numpy broadcasting over ``(a, n, h)`` index grids.  The two
implementations produce the *same polytope, bit for bit*: identical rows (up
to row order), identical labels, identical right-hand sides —
machine-checked by ``tests/core/test_assembly_equivalence.py`` on every
catalog scenario.

Two layers:

``_BlockBuilder`` / ``LazyLabels``
    COO accumulation in family-sized blocks.  Row labels are kept as
    (format, index-array) blocks and materialized only on access — label
    strings are debugging metadata and must not cost anything on the hot
    path.

``_Assembler``
    One call's assembly.  It first derives the phase patterns the
    families share (phase exit rates, phase-change matrices, routing
    factors, source/pair/triple lists, family-H eligibility), none of
    which depends on the population ``N``, then emits every family at
    ``network.population``.  The patterns cost about 1% of an assembly
    or less, so no call keeps them for the next.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.variables import VariableIndex
from repro.network.model import Network, require_closed
from repro.utils.errors import NotSupportedError

__all__ = [
    "ConstraintSystem",
    "LazyLabels",
    "build_constraints",
    "canonical_form",
]


# ---------------------------------------------------------------------- #
# the assembled system
# ---------------------------------------------------------------------- #
@dataclass
class ConstraintSystem:
    """The assembled LP constraint set ``A_eq x = b_eq``, ``A_ub x <= b_ub``."""

    vi: VariableIndex
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    eq_labels: "Sequence[str]" = field(default_factory=list)
    ub_labels: "Sequence[str]" = field(default_factory=list)

    @property
    def n_variables(self) -> int:
        return self.vi.size

    @property
    def n_equalities(self) -> int:
        return self.A_eq.shape[0]

    @property
    def n_inequalities(self) -> int:
        return self.A_ub.shape[0]

    @property
    def n_rows(self) -> int:
        """Total emitted constraint rows (equalities + inequalities)."""
        return self.n_equalities + self.n_inequalities

    def residuals(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(equality residuals, inequality violations) at point ``x``.

        Used by the projection tests: for the projected exact solution both
        must vanish (up to round-off).
        """
        eq_res = self.A_eq @ x - self.b_eq if self.n_equalities else np.empty(0)
        ub_res = (
            np.clip(self.A_ub @ x - self.b_ub, 0.0, None)
            if self.n_inequalities
            else np.empty(0)
        )
        bound_low = np.clip(self.lb - x, 0.0, None)
        bound_high = np.clip(x - self.ub, 0.0, None)
        ub_all = np.concatenate([ub_res, bound_low, bound_high])
        return eq_res, ub_all


# ---------------------------------------------------------------------- #
# lazy row labels
# ---------------------------------------------------------------------- #
class LazyLabels(Sequence):
    """Row labels stored as (format, index-array) blocks, built on demand.

    Generating one f-string per constraint row is pure overhead on the
    assembly hot path (labels are only read by debugging aids like
    :func:`repro.core.projection.verify_exactness`), so the block assembler
    records, per family, a printf-style format plus the integer coordinate
    arrays, and materializes the strings on first access.  Supports
    everything a ``list[str]`` supports for reading, including ``==``
    against plain lists.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[str, tuple, int]] = []
        self._n = 0
        self._cache: "list[str] | None" = None

    def append_block(self, fmt: str, arrays: tuple = (), count: int = 1) -> None:
        """Record ``count`` labels ``fmt % coords`` (coords zipped from arrays)."""
        if count <= 0:
            return
        self._blocks.append((fmt, tuple(arrays), int(count)))
        self._n += int(count)
        self._cache = None

    def _materialize(self) -> list[str]:
        if self._cache is None:
            out: list[str] = []
            for fmt, arrays, count in self._blocks:
                if not arrays:
                    out.extend([fmt] * count)
                else:
                    cols = [np.asarray(a).ravel().tolist() for a in arrays]
                    out.extend(fmt % t for t in zip(*cols))
            self._cache = out
        return self._cache

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyLabels):
            return self._materialize() == other._materialize()
        if isinstance(other, (list, tuple)):
            return self._materialize() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyLabels(n={self._n})"


# ---------------------------------------------------------------------- #
# block accumulation
# ---------------------------------------------------------------------- #
class _RowGroup:
    """Handle for a contiguous group of rows emitted by one family."""

    __slots__ = ("base", "n_local", "kept", "compact")

    def __init__(self, base: int, n_local: int, kept, compact) -> None:
        self.base = base
        self.n_local = n_local
        self.kept = kept  # None = all rows kept
        self.compact = compact  # local index -> kept-row offset


class _BlockBuilder:
    """Accumulates a constraint matrix as family-sized COO blocks.

    The contract mirrors the seed row builder exactly: zero-valued entries
    are dropped, duplicate ``(row, col)`` entries are summed in emission
    order (scipy's stable COO->CSR path), and rows may be skipped via a
    ``keep`` mask (renumbering the survivors contiguously).
    """

    def __init__(self) -> None:
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []
        self.labels = LazyLabels()
        self.n_rows = 0

    def rows(
        self,
        count: int,
        rhs,
        fmt: str,
        label_arrays: tuple = (),
        keep=None,
    ) -> _RowGroup:
        """Open a group of ``count`` rows; returns the handle for entries.

        ``keep`` is an optional boolean mask over the local row grid: rows
        with ``keep == False`` are dropped entirely (matching the seed
        assembler's empty-row skip) and the survivors are renumbered.
        """
        count = int(count)
        kept = compact = None
        kept_count = count
        if keep is not None:
            keep = np.asarray(keep, dtype=bool).ravel()
            if keep.shape[0] != count:
                raise ValueError("keep mask does not cover the row grid")
            if not keep.all():
                kept = keep
                compact = np.cumsum(keep) - 1
                kept_count = int(keep.sum())
                label_arrays = tuple(
                    np.asarray(a).ravel()[keep] for a in label_arrays
                )
                if np.ndim(rhs):
                    rhs = np.asarray(rhs, dtype=float).ravel()[keep]
        group = _RowGroup(self.n_rows, count, kept, compact)
        self.n_rows += kept_count
        if kept_count:
            rhs_arr = np.broadcast_to(np.asarray(rhs, dtype=float), (kept_count,))
            self._rhs.append(np.ascontiguousarray(rhs_arr))
        self.labels.append_block(fmt, label_arrays, kept_count)
        return group

    def entries(self, group: _RowGroup, local, cols, vals) -> None:
        """Emit one term block: ``local`` row grid indices, columns, values.

        All three broadcast against each other; zero values are filtered
        (as the seed's per-row builder did), preserving emission order so
        duplicate-coefficient summation stays bit-identical.
        """
        shape = np.broadcast_shapes(
            np.shape(local), np.shape(cols), np.shape(vals)
        )
        local = np.broadcast_to(local, shape).ravel()
        cols = np.broadcast_to(cols, shape).ravel()
        vals = np.ascontiguousarray(
            np.broadcast_to(vals, shape), dtype=float
        ).ravel()
        mask = vals != 0.0
        if group.kept is not None:
            mask &= group.kept[local]
        local = local[mask]
        if group.compact is not None:
            rows = group.base + group.compact[local]
        else:
            rows = group.base + local
        self._rows.append(rows.astype(np.int64, copy=False))
        self._cols.append(cols[mask].astype(np.int64, copy=False))
        self._vals.append(vals[mask])

    def build(self, n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
        """Finalize into (CSR matrix, rhs vector) exactly like the seed."""
        if self.n_rows == 0:
            return sp.csr_matrix((0, n_vars)), np.empty(0)
        A = sp.coo_matrix(
            (
                np.concatenate(self._vals),
                (np.concatenate(self._rows), np.concatenate(self._cols)),
            ),
            shape=(self.n_rows, n_vars),
        ).tocsr()
        A.sum_duplicates()
        return A, np.concatenate(self._rhs)


# ---------------------------------------------------------------------- #
# the one assembly path
# ---------------------------------------------------------------------- #
def build_constraints(
    network: Network,
    vi: VariableIndex | None = None,
    include_redundant: bool = False,
    triples: bool | None = None,
) -> ConstraintSystem:
    """Assemble all exact constraint families for ``network``.

    Parameters
    ----------
    network:
        The closed MAP network (queue/delay stations only).
    vi:
        Optional pre-built variable index.  It fixes the constraint tier
        when ``triples`` is ``None``; an index of another tier than
        ``triples`` asks for raises ``ValueError``.
    include_redundant:
        Also emit families B and F, which are linear combinations of A + C.
        They do not change the polytope; exposed for ablation experiments.
    triples:
        Enable the triple-variable tier (families H/SC/TC).  ``None`` means
        automatic (on for M >= 3); ``False`` gives the cheaper pair-only
        relaxation used by the constraint-ablation benchmark.
    """
    require_closed(network, "lp")
    if vi is not None and triples is None:
        # A pre-built index fixes the constraint tier (seed semantics:
        # the families consult vi.triples, not the keyword).
        triples = vi.triples
    return _Assembler(network, vi, triples, include_redundant).run()


def _resolve_triples(network: Network, triples: "bool | None") -> bool:
    M = network.n_stations
    return (M >= 3) if triples is None else (bool(triples) and M >= 3)


@dataclass(frozen=True)
class _StationPattern:
    """N-independent per-station data used by the family emitters."""

    kind: str
    K: int
    D0: np.ndarray
    D1: np.ndarray
    e: np.ndarray        # D1 row sums (phase event rates)
    d0_out: np.ndarray   # off-diagonal D0 row sums
    mu: float            # D1[0, 0] (delay stations; 0.0 otherwise)


class _Assembler:
    """One :func:`build_constraints` call: the patterns, then the families.

    The constructor derives the phase patterns every family reads (station
    matrices and phase-rate vectors, routing factors, source lists, the
    family-A/H phase-transition patterns, family-H eligibility) and the
    per-station level scalings ``c_k(0..N)``; :meth:`run` emits the
    families at ``network.population``.
    """

    def __init__(
        self,
        network: Network,
        vi: "VariableIndex | None",
        triples: "bool | None",
        include_redundant: bool,
    ) -> None:
        for st in network.stations:
            if st.kind == "multiserver":
                raise NotSupportedError(
                    f"station {st.name!r}: multiserver stations are not "
                    "supported by the marginal-balance LP"
                )
        self.triples = _resolve_triples(network, triples)
        if vi is not None and vi.triples != self.triples:
            raise ValueError(
                f"variable index tier (triples={vi.triples}) does not match "
                f"the requested tier (triples={self.triples})"
            )
        self.include_redundant = bool(include_redundant)
        self.M = M = network.n_stations
        self.routing = routing = network.routing
        self.stations: list[_StationPattern] = []
        for st in network.stations:
            D0 = np.asarray(st.service.D0, dtype=float)
            D1 = np.asarray(st.service.D1, dtype=float)
            self.stations.append(
                _StationPattern(
                    kind=st.kind,
                    K=st.phases,
                    D0=D0,
                    D1=D1,
                    e=D1.sum(axis=1),
                    d0_out=D0.sum(axis=1) - np.diag(D0),
                    mu=float(D1[0, 0]) if st.kind == "delay" else 0.0,
                )
            )
        #: per-destination source stations (arrival flows j -> k)
        self.sources = [
            [j for j in range(M) if j != k and routing[j, k] > 0.0]
            for k in range(M)
        ]
        # Family A / H phase patterns per station: the "out" weight per
        # phase and the same-level phase-change rate matrix (diagonal
        # zeroed — the g == h term never enters the balance).
        self.w_out: list[np.ndarray] = []
        self.phase_in: list[np.ndarray] = []
        for k, sd in enumerate(self.stations):
            qkk = routing[k, k]
            self.w_out.append(
                sd.d0_out + qkk * (sd.e - np.diag(sd.D1)) + (1.0 - qkk) * sd.e
            )
            rate_in = sd.D0 + qkk * sd.D1  # [g, h]: phase g -> h
            rate_in = rate_in.copy()
            np.fill_diagonal(rate_in, 0.0)
            self.phase_in.append(rate_in)
        # Family H eligibility: ordered pairs (j, k) with j queue-kind whose
        # third-party feeders are all queue-kind (and triples available
        # when feeders exist).
        self.h_pairs: list[tuple[int, int, list[int]]] = []
        for j in range(M):
            if self.stations[j].kind != "queue":
                continue
            for k in range(M):
                if j == k:
                    continue
                third = [i for i in range(M) if i not in (j, k)]
                feeders = [
                    i for i in third
                    if routing[i, j] > 0.0 or routing[i, k] > 0.0
                ]
                if any(self.stations[i].kind != "queue" for i in feeders):
                    continue
                if feeders and not self.triples:
                    continue
                self.h_pairs.append((j, k, third))
        self.vi = vi or VariableIndex(network, triples=self.triples)
        self.N = network.population
        self.eq = _BlockBuilder()
        self.ub = _BlockBuilder()
        #: per-station level scalings c_k(0..N) (the N-dependent slice)
        self.c = [
            st.rate_scale(np.arange(self.N + 1)) for st in network.stations
        ]

    # -- shared helpers ------------------------------------------------- #
    def _source_block(self, builder, group, local, j, k, nn, hh, coeff):
        """Emit the arrival-rate term block of source ``j`` into ``k``.

        ``nn``/``hh`` are the conditioned level/phase grids (broadcastable
        against ``local``); ``coeff`` multiplies the per-phase event rate
        (routing probability and sign).
        """
        sd = self.stations[j]
        if sd.kind == "queue":
            aa = np.arange(sd.K)
            cols = self.vi.V(j, k, aa, nn[..., None], hh[..., None])
            builder.entries(
                group, local[..., None], cols, coeff * sd.e[aa]
            )
        else:  # delay: rate n_j * mu enters through the first moment G
            cols = self.vi.G(j, k, 0, nn, hh)
            builder.entries(group, local, cols, coeff * sd.mu)

    # -- family emitters ------------------------------------------------ #
    def _family_A(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        routing = self.routing
        for k in range(self.M):
            sd = self.stations[k]
            Kk = sd.K
            qkk = routing[k, k]
            sources = self.sources[k]
            c_k = self.c[k]
            nn = np.arange(N + 1)[:, None]
            hh = np.arange(Kk)[None, :]
            local = nn * Kk + hh  # row-major (n, h) grid
            own_out = c_k[:, None] * self.w_out[k][None, :]
            if sources:
                keep = None  # every row has at least one appended term
            else:
                phase_any = (self.phase_in[k] != 0.0).any(axis=0)
                keep = (
                    (own_out != 0.0)
                    | (nn < N)
                    | ((c_k[:, None] != 0.0) & phase_any[None, :])
                )
            grp = eq.rows(
                (N + 1) * Kk,
                0.0,
                f"A[k={k},n=%d,h=%d]",
                (np.broadcast_to(nn, (N + 1, Kk)), np.broadcast_to(hh, (N + 1, Kk))),
                keep=keep,
            )
            # OUT: station k's own transitions leaving the set.
            eq.entries(grp, local, vi.pi(k, nn, hh), own_out)
            # OUT: arrivals from j != k push n -> n+1 (rows n < N).
            n_lo = np.arange(N)[:, None]
            for j in sources:
                self._source_block(
                    eq, grp, n_lo * Kk + hh, j, k, n_lo, hh, routing[j, k]
                )
            # IN: same-level phase changes g -> h.
            gg = np.arange(Kk)[None, None, :]
            eq.entries(
                grp,
                local[..., None],
                vi.pi(k, nn[..., None], gg),
                -c_k[:, None, None] * self.phase_in[k].T[None, :, :],
            )
            # IN: from level n-1 via an arrival (rows n >= 1).
            n_hi = np.arange(1, N + 1)[:, None]
            for j in sources:
                self._source_block(
                    eq, grp, n_hi * Kk + hh, j, k, n_hi - 1, hh, -routing[j, k]
                )
            # IN: from level n+1 via a completion routed away, g -> h.
            eq.entries(
                grp,
                (n_lo * Kk + hh)[..., None],
                vi.pi(k, n_lo[..., None] + 1, gg),
                -(c_k[1:, None, None] * ((1.0 - qkk) * sd.D1.T)[None, :, :]),
            )

    def _family_C(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        for j in range(self.M):
            Kj = self.stations[j].K
            for k in range(self.M):
                if j == k:
                    continue
                Kk = self.stations[k].K
                nn = np.arange(N + 1)[:, None]
                hh = np.arange(Kk)[None, :]
                aa = np.arange(Kj)[None, None, :]
                local = nn * Kk + hh
                # C1: sum_a (V + W)_jk(a, n, h) = pi_k(n, h)
                grp = eq.rows(
                    (N + 1) * Kk,
                    0.0,
                    f"C1[j={j},k={k},n=%d,h=%d]",
                    (np.broadcast_to(nn, local.shape),
                     np.broadcast_to(hh, local.shape)),
                )
                eq.entries(
                    grp, local[..., None],
                    vi.V(j, k, aa, nn[..., None], hh[..., None]), 1.0,
                )
                eq.entries(
                    grp, local[..., None],
                    vi.W(j, k, aa, nn[..., None], hh[..., None]), 1.0,
                )
                eq.entries(grp, local, vi.pi(k, nn, hh), -1.0)
                # C2: sum_{n,h} V_jk(a, n, h) = sum_{n>=1} pi_j(n, a)
                a_rows = np.arange(Kj)
                n_pos = np.arange(1, N + 1)[None, :]
                grid_a = a_rows[:, None, None]
                grp = eq.rows(Kj, 0.0, f"C2[j={j},k={k},a=%d]", (a_rows,))
                eq.entries(
                    grp, grid_a,
                    vi.V(j, k, grid_a, nn[None, :, :], hh[None, :, :]), 1.0,
                )
                eq.entries(
                    grp, a_rows[:, None], vi.pi(j, n_pos, a_rows[:, None]), -1.0
                )
                # C3: sum_{n,h} W_jk(a, n, h) = pi_j(0, a)
                grp = eq.rows(Kj, 0.0, f"C3[j={j},k={k},a=%d]", (a_rows,))
                eq.entries(
                    grp, grid_a,
                    vi.W(j, k, grid_a, nn[None, :, :], hh[None, :, :]), 1.0,
                )
                eq.entries(grp, a_rows, vi.pi(j, 0, a_rows), -1.0)

    def _family_D(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        for j in range(self.M):
            for k in range(j + 1, self.M):
                Kj = self.stations[j].K
                Kk = self.stations[k].K
                aa = np.arange(Kj)[:, None]
                hh = np.arange(Kk)[None, :]
                local = aa * Kk + hh
                lbl = (np.broadcast_to(aa, local.shape),
                       np.broadcast_to(hh, local.shape))
                n_pos = np.arange(1, N + 1)[None, None, :]
                # D1: P[both busy, h_j=a, h_k=h] two ways.
                grp = eq.rows(
                    Kj * Kk, 0.0, f"D1[j={j},k={k},a=%d,h=%d]", lbl
                )
                eq.entries(
                    grp, local[..., None],
                    vi.V(j, k, aa[..., None], n_pos, hh[..., None]), 1.0,
                )
                eq.entries(
                    grp, local[..., None],
                    vi.V(k, j, hh[..., None], n_pos, aa[..., None]), -1.0,
                )
                # D2: V_jk(a, 0, h) = sum_{m>=1} W_kj(h, m, a)
                grp = eq.rows(
                    Kj * Kk, 0.0, f"D2[j={j},k={k},a=%d,h=%d]", lbl
                )
                eq.entries(grp, local, vi.V(j, k, aa, 0, hh), 1.0)
                eq.entries(
                    grp, local[..., None],
                    vi.W(k, j, hh[..., None], n_pos, aa[..., None]), -1.0,
                )
                # D3: W_jk(a, 0, h) = W_kj(h, 0, a)
                grp = eq.rows(
                    Kj * Kk, 0.0, f"D3[j={j},k={k},a=%d,h=%d]", lbl
                )
                eq.entries(grp, local, vi.W(j, k, aa, 0, hh), 1.0)
                eq.entries(grp, local, vi.W(k, j, hh, 0, aa), -1.0)

    def _family_E(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        for k in range(self.M):
            Kk = self.stations[k].K
            nn = np.arange(N + 1)[:, None]
            hh = np.arange(Kk)[None, :]
            grp = eq.rows(1, 1.0, f"E1[k={k}]")
            eq.entries(grp, 0, vi.pi(k, nn, hh), 1.0)

    def _family_G(self) -> None:
        N, vi, eq, ub = self.N, self.vi, self.eq, self.ub
        M = self.M
        # G1: sum_{j != k} sum_a G_jk(a, n, h) = (N - n) pi_k(n, h)
        for k in range(M):
            others = [j for j in range(M) if j != k]
            if not others:
                continue
            Kk = self.stations[k].K
            nn = np.arange(N + 1)[:, None]
            hh = np.arange(Kk)[None, :]
            local = nn * Kk + hh
            grp = eq.rows(
                (N + 1) * Kk,
                0.0,
                f"G1[k={k},n=%d,h=%d]",
                (np.broadcast_to(nn, local.shape),
                 np.broadcast_to(hh, local.shape)),
            )
            for j in others:
                aa = np.arange(self.stations[j].K)[None, None, :]
                eq.entries(
                    grp, local[..., None],
                    vi.G(j, k, aa, nn[..., None], hh[..., None]), 1.0,
                )
            eq.entries(grp, local, vi.pi(k, nn, hh), -(N - nn).astype(float))
        # G2/G3: population conditioned on source-station busy/idle state.
        for j in range(M):
            others = [k for k in range(M) if k != j]
            if not others:
                continue
            Kj = self.stations[j].K
            a_rows = np.arange(Kj)
            n_pos = np.arange(1, N + 1)[None, :]
            grp2 = eq.rows(Kj, 0.0, f"G2[j={j},a=%d]", (a_rows,))
            eq.entries(
                grp2, a_rows[:, None],
                vi.pi(j, n_pos, a_rows[:, None]),
                n_pos.astype(float) - float(N),
            )
            for k in others:
                Kk = self.stations[k].K
                nn = np.arange(N + 1)[None, :, None]
                hh = np.arange(Kk)[None, None, :]
                eq.entries(
                    grp2, a_rows[:, None, None],
                    vi.V(j, k, a_rows[:, None, None], nn, hh),
                    nn.astype(float),
                )
            # G3: sum_k sum_{n,h} n W_jk(a,n,h) = N pi_j(0,a)
            grp3 = eq.rows(Kj, 0.0, f"G3[j={j},a=%d]", (a_rows,))
            eq.entries(grp3, a_rows, vi.pi(j, 0, a_rows), -float(N))
            for k in others:
                Kk = self.stations[k].K
                nn = np.arange(N + 1)[None, :, None]
                hh = np.arange(Kk)[None, None, :]
                eq.entries(
                    grp3, a_rows[:, None, None],
                    vi.W(j, k, a_rows[:, None, None], nn, hh),
                    nn.astype(float),
                )
        # Sandwich: V <= G <= (N - n) V, per source phase.
        for j in range(M):
            Kj = self.stations[j].K
            for k in range(M):
                if j == k:
                    continue
                Kk = self.stations[k].K
                nn = np.arange(N + 1)[:, None, None]
                hh = np.arange(Kk)[None, :, None]
                aa = np.arange(Kj)[None, None, :]
                local = (nn * Kk + hh) * Kj + aa
                shape = (N + 1, Kk, Kj)
                lbl = (
                    np.broadcast_to(aa, shape),
                    np.broadcast_to(nn, shape),
                    np.broadcast_to(hh, shape),
                )
                v_cols = vi.V(j, k, aa, nn, hh)
                g_cols = vi.G(j, k, aa, nn, hh)
                # S1: V - G <= 0
                grp = ub.rows(
                    (N + 1) * Kk * Kj, 0.0,
                    f"S1[j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                )
                ub.entries(grp, local, v_cols, 1.0)
                ub.entries(grp, local, g_cols, -1.0)
                # S2: G - (N - n) V <= 0
                grp = ub.rows(
                    (N + 1) * Kk * Kj, 0.0,
                    f"S2[j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                )
                ub.entries(grp, local, g_cols, 1.0)
                ub.entries(grp, local, v_cols, -(N - nn).astype(float))
        # G4: moment consistency per ordered pair and source phase.
        for j in range(M):
            Kj = self.stations[j].K
            a_rows = np.arange(Kj)
            n_pos = np.arange(1, N + 1)[None, :]
            for k in range(M):
                if j == k:
                    continue
                Kk = self.stations[k].K
                nn = np.arange(N + 1)[None, :, None]
                hh = np.arange(Kk)[None, None, :]
                grp = eq.rows(Kj, 0.0, f"G4[j={j},k={k},a=%d]", (a_rows,))
                eq.entries(
                    grp, a_rows[:, None, None],
                    vi.G(j, k, a_rows[:, None, None], nn, hh), 1.0,
                )
                eq.entries(
                    grp, a_rows[:, None],
                    vi.pi(j, n_pos, a_rows[:, None]),
                    -n_pos.astype(float),
                )

    def _family_triples(self) -> None:
        N, vi, eq, ub = self.N, self.vi, self.eq, self.ub
        M = self.M
        K = [sd.K for sd in self.stations]
        for i in range(M):
            for j in range(M):
                for k in range(M):
                    if len({i, j, k}) != 3:
                        continue
                    Ki, Kj, Kk = K[i], K[j], K[k]
                    nn = np.arange(N + 1)
                    hh = np.arange(Kk)
                    # SC1: sum_a S_ijk(e,a,n,h) = V_ik(e,n,h), rows (e,n,h)
                    ee = np.arange(Ki)[:, None, None]
                    n3 = nn[None, :, None]
                    h3 = hh[None, None, :]
                    local = (ee * (N + 1) + n3) * Kk + h3
                    shape = (Ki, N + 1, Kk)
                    grp = eq.rows(
                        Ki * (N + 1) * Kk, 0.0,
                        f"SC1[i={i},j={j},k={k},e=%d,n=%d,h=%d]",
                        (np.broadcast_to(ee, shape), np.broadcast_to(n3, shape),
                         np.broadcast_to(h3, shape)),
                    )
                    aa4 = np.arange(Kj)[None, None, None, :]
                    eq.entries(
                        grp, local[..., None],
                        vi.S(i, j, k, ee[..., None], aa4, n3[..., None],
                             h3[..., None]),
                        1.0,
                    )
                    eq.entries(grp, local, vi.V(i, k, ee, n3, h3), -1.0)
                    # Rows (a, n, h): SC2/SC3 (ub), TC4/TC5 (ub), TC1 (ub).
                    aa = np.arange(Kj)[:, None, None]
                    local = (aa * (N + 1) + n3) * Kk + h3
                    shape = (Kj, N + 1, Kk)
                    lbl = (np.broadcast_to(aa, shape),
                           np.broadcast_to(n3, shape),
                           np.broadcast_to(h3, shape))
                    ee4 = np.arange(Ki)[None, None, None, :]
                    s_cols = vi.S(i, j, k, ee4, aa[..., None], n3[..., None],
                                  h3[..., None])
                    t_cols = vi.T(i, j, k, ee4, aa[..., None], n3[..., None],
                                  h3[..., None])
                    w_ik = vi.W(i, k, ee4, n3[..., None], h3[..., None])
                    v_jk = vi.V(j, k, aa, n3, h3)
                    w_jk = vi.W(j, k, aa, n3, h3)
                    g_jk = vi.G(j, k, aa, n3, h3)
                    local4 = local[..., None]
                    count = Kj * (N + 1) * Kk
                    # SC2: sum_e S <= (V+W)_jk(a,n,h)
                    grp = ub.rows(
                        count, 0.0,
                        f"SC2[i={i},j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                    )
                    ub.entries(grp, local4, s_cols, 1.0)
                    ub.entries(grp, local, v_jk, -1.0)
                    ub.entries(grp, local, w_jk, -1.0)
                    # SC3: (V+W)_jk - sum_e S <= sum_e W_ik(e,n,h)
                    grp = ub.rows(
                        count, 0.0,
                        f"SC3[i={i},j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                    )
                    ub.entries(grp, local, v_jk, 1.0)
                    ub.entries(grp, local, w_jk, 1.0)
                    ub.entries(grp, local4, s_cols, -1.0)
                    ub.entries(grp, local4, w_ik, -1.0)
                    # TC4: sum_e T <= G_jk(a,n,h)
                    grp = ub.rows(
                        count, 0.0,
                        f"TC4[i={i},j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                    )
                    ub.entries(grp, local4, t_cols, 1.0)
                    ub.entries(grp, local, g_jk, -1.0)
                    # TC5: G_jk - sum_e T <= (N-n) sum_e W_ik
                    grp = ub.rows(
                        count, 0.0,
                        f"TC5[i={i},j={j},k={k},a=%d,n=%d,h=%d]", lbl,
                    )
                    ub.entries(grp, local, g_jk, 1.0)
                    ub.entries(grp, local4, t_cols, -1.0)
                    ub.entries(
                        grp, local4, w_ik,
                        -(N - n3[..., None]).astype(float),
                    )
                    # TC1: T <= (N-n-1) S pointwise, rows (a, n, h, e).
                    cap = np.clip(N - 1 - nn, 0, None).astype(float)
                    local_e = local4 * Ki + ee4
                    shape_e = (Kj, N + 1, Kk, Ki)
                    grp = ub.rows(
                        count * Ki, 0.0,
                        f"TC1[i={i},j={j},k={k},e=%d,a=%d,n=%d,h=%d]",
                        (np.broadcast_to(ee4, shape_e),
                         np.broadcast_to(aa[..., None], shape_e),
                         np.broadcast_to(n3[..., None], shape_e),
                         np.broadcast_to(h3[..., None], shape_e)),
                    )
                    ub.entries(grp, local_e, t_cols, 1.0)
                    ub.entries(
                        grp, local_e, s_cols,
                        -cap[None, :, None, None],
                    )
                    # SC4 / TC3: marginalize k away, rows (e, a).
                    e2 = np.arange(Ki)[:, None]
                    a2 = np.arange(Kj)[None, :]
                    local = e2 * Kj + a2
                    shape2 = (Ki, Kj)
                    lbl2 = (np.broadcast_to(e2, shape2),
                            np.broadcast_to(a2, shape2))
                    n4 = nn[None, None, :, None]
                    h4 = hh[None, None, None, :]
                    s_all = vi.S(i, j, k, e2[..., None, None],
                                 a2[..., None, None], n4, h4)
                    t_all = vi.T(i, j, k, e2[..., None, None],
                                 a2[..., None, None], n4, h4)
                    v_ij = vi.V(i, j, e2[..., None], nn[None, None, :],
                                a2[..., None])
                    grp = eq.rows(
                        Ki * Kj, 0.0,
                        f"SC4[i={i},j={j},k={k},e=%d,a=%d]", lbl2,
                    )
                    eq.entries(grp, local[..., None, None], s_all, 1.0)
                    eq.entries(grp, local[..., None], v_ij, -1.0)
                    grp = eq.rows(
                        Ki * Kj, 0.0,
                        f"TC3[i={i},j={j},k={k},e=%d,a=%d]", lbl2,
                    )
                    eq.entries(grp, local[..., None, None], t_all, 1.0)
                    eq.entries(
                        grp, local[..., None], v_ij,
                        -nn[None, None, :].astype(float),
                    )
        # TC2: population identity conditioned on (i busy, k state).
        for i in range(M):
            Ki = K[i]
            for k in range(M):
                if i == k:
                    continue
                Kk = K[k]
                js = [j for j in range(M) if j not in (i, k)]
                ee = np.arange(Ki)[:, None, None]
                n3 = np.arange(N + 1)[None, :, None]
                h3 = np.arange(Kk)[None, None, :]
                local = (ee * (N + 1) + n3) * Kk + h3
                shape = (Ki, N + 1, Kk)
                grp = eq.rows(
                    Ki * (N + 1) * Kk, 0.0,
                    f"TC2[i={i},k={k},e=%d,n=%d,h=%d]",
                    (np.broadcast_to(ee, shape), np.broadcast_to(n3, shape),
                     np.broadcast_to(h3, shape)),
                )
                for j in js:
                    aa4 = np.arange(K[j])[None, None, None, :]
                    eq.entries(
                        grp, local[..., None],
                        vi.T(i, j, k, ee[..., None], aa4, n3[..., None],
                             h3[..., None]),
                        1.0,
                    )
                eq.entries(
                    grp, local, vi.V(i, k, ee, n3, h3),
                    -(N - n3).astype(float),
                )
                eq.entries(grp, local, vi.G(i, k, ee, n3, h3), 1.0)

    def _family_H(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        routing = self.routing
        for j, k, third in self.h_pairs:
            sj = self.stations[j]
            sk = self.stations[k]
            Kj, Kk = sj.K, sk.K
            qkk = routing[k, k]
            p_jj = routing[j, j]
            p_jk = routing[j, k]
            p_kj = routing[k, j]
            p_other = 1.0 - p_jj - p_jk
            c_k = self.c[k]
            aa = np.arange(Kj)[:, None, None]
            nn = np.arange(N + 1)[None, :, None]
            hh = np.arange(Kk)[None, None, :]
            local = (aa * (N + 1) + nn) * Kk + hh
            shape = (Kj, N + 1, Kk)
            grp = eq.rows(
                Kj * (N + 1) * Kk, 0.0,
                f"H[j={j},k={k},a=%d,n=%d,h=%d]",
                (np.broadcast_to(aa, shape), np.broadcast_to(nn, shape),
                 np.broadcast_to(hh, shape)),
            )
            g_here = vi.G(j, k, aa, nn, hh)
            # (1) j completes: loss at rate e_j(a); gains by routing case.
            eq.entries(grp, local, g_here, -sj.e[aa])
            al4 = np.arange(Kj)[None, None, None, :]
            aa4 = aa[..., None]  # the row's source phase, 4-dim aligned
            d1_in = sj.D1.T[aa4, al4]  # [a, ..., alpha]: alpha -> a rate
            g_al = vi.G(j, k, al4, nn[..., None], hh[..., None])
            v_al = vi.V(j, k, al4, nn[..., None], hh[..., None])
            local4 = local[..., None]
            if p_jj > 0.0:
                eq.entries(grp, local4, g_al, p_jj * d1_in)
            if p_other > 0.0:
                eq.entries(grp, local4, g_al, p_other * d1_in)
                eq.entries(grp, local4, v_al, -p_other * d1_in)
            if p_jk > 0.0:
                n_hi = np.arange(1, N + 1)[None, :, None]
                loc_hi = ((aa * (N + 1) + n_hi) * Kk + hh)[..., None]
                g_lo = vi.G(j, k, al4, n_hi[..., None] - 1, hh[..., None])
                v_lo = vi.V(j, k, al4, n_hi[..., None] - 1, hh[..., None])
                eq.entries(grp, loc_hi, g_lo, p_jk * d1_in)
                eq.entries(grp, loc_hi, v_lo, -p_jk * d1_in)
            # (2) j hidden phase transitions.
            d0_off = sj.D0.copy()
            np.fill_diagonal(d0_off, 0.0)
            eq.entries(grp, local4, g_al, d0_off.T[aa4, al4])
            eq.entries(grp, local, g_here, -sj.d0_out[aa])
            # (3) k transitions at level n (rate scale c_k).
            own_w = (
                (1.0 - qkk) * sk.e
                + qkk * (sk.e - np.diag(sk.D1))
                + sk.d0_out
            )
            eq.entries(grp, local, g_here, -c_k[nn] * own_w[hh])
            gg = np.arange(Kk)[None, None, None, :]
            eq.entries(
                grp, local4,
                vi.G(j, k, aa[..., None], nn[..., None], gg),
                c_k[nn][..., None] * self.phase_in[k].T[hh[..., None], gg],
            )
            n_lo = np.arange(N)[None, :, None]
            loc_lo = ((aa * (N + 1) + n_lo) * Kk + hh)[..., None]
            coeff = c_k[n_lo + 1][..., None] * sk.D1.T[hh[..., None], gg]
            g_up = vi.G(j, k, aa[..., None], n_lo[..., None] + 1, gg)
            eq.entries(grp, loc_lo, g_up, (1.0 - qkk) * coeff)
            if p_kj > 0.0:
                v_up = vi.V(j, k, aa[..., None], n_lo[..., None] + 1, gg)
                w_up = vi.W(j, k, aa[..., None], n_lo[..., None] + 1, gg)
                eq.entries(grp, loc_lo, v_up, p_kj * coeff)
                eq.entries(grp, loc_lo, w_up, p_kj * coeff)
            # (4) third-party arrivals into k (T terms).
            for i in third:
                p_ik = routing[i, k]
                if p_ik <= 0.0:
                    continue
                e_i = self.stations[i].e
                eps = np.arange(self.stations[i].K)[None, None, None, :]
                n_hi = np.arange(1, N + 1)[None, :, None]
                loc_hi = ((aa * (N + 1) + n_hi) * Kk + hh)[..., None]
                eq.entries(
                    grp, loc_hi,
                    vi.T(i, j, k, eps, aa[..., None], n_hi[..., None] - 1,
                         hh[..., None]),
                    p_ik * e_i[eps],
                )
                eq.entries(
                    grp, local4,
                    vi.T(i, j, k, eps, aa[..., None], nn[..., None],
                         hh[..., None]),
                    -p_ik * e_i[eps],
                )
            # (5) third-party arrivals into j (S terms).
            for i in third:
                p_ij = routing[i, j]
                if p_ij <= 0.0:
                    continue
                e_i = self.stations[i].e
                eps = np.arange(self.stations[i].K)[None, None, None, :]
                eq.entries(
                    grp, local4,
                    vi.S(i, j, k, eps, aa[..., None], nn[..., None],
                         hh[..., None]),
                    p_ij * e_i[eps],
                )

    def _family_redundant(self) -> None:
        N, vi, eq = self.N, self.vi, self.eq
        routing = self.routing
        # Family B: phase-aggregated cut balance at each level n >= 1.
        for k in range(self.M):
            sd = self.stations[k]
            Kk = sd.K
            qkk = routing[k, k]
            c_k = self.c[k]
            n_rows = np.arange(1, N + 1)
            grp = eq.rows(N, 0.0, f"B[k={k},n=%d]", (n_rows,))
            nn = n_rows[:, None]
            hh = np.arange(Kk)[None, :]
            local = np.broadcast_to(np.arange(N)[:, None], (N, Kk))
            for j in self.sources[k]:
                self._source_block(
                    eq, grp, local, j, k, nn - 1, hh, routing[j, k]
                )
            eq.entries(
                grp, local, vi.pi(k, nn, hh),
                -c_k[nn] * (1.0 - qkk) * sd.e[hh],
            )
        # Family F: throughput flow balance X_k = sum_j p_jk X_j.
        xexprs = []
        for k in range(self.M):
            sd = self.stations[k]
            nn = np.arange(N + 1)[:, None]
            hh = np.arange(sd.K)[None, :]
            cols = np.asarray(vi.pi(k, nn, hh)).ravel()
            vals = (self.c[k][:, None] * sd.e[None, :]).ravel()
            xexprs.append((cols, vals))
        for k in range(self.M - 1):
            grp = eq.rows(1, 0.0, f"F[k={k}]")
            eq.entries(grp, 0, xexprs[k][0], xexprs[k][1])
            for j in range(self.M):
                if routing[j, k] > 0.0:
                    eq.entries(
                        grp, 0, xexprs[j][0], -routing[j, k] * xexprs[j][1]
                    )

    # ------------------------------------------------------------------ #
    def run(self) -> ConstraintSystem:
        """Emit every family and finalize the sparse system."""
        self._family_A()
        self._family_C()
        self._family_D()
        self._family_E()
        self._family_G()
        if self.triples:
            self._family_triples()
        self._family_H()
        if self.include_redundant:
            self._family_redundant()
        A_eq, b_eq = self.eq.build(self.vi.size)
        A_ub, b_ub = self.ub.build(self.vi.size)
        lb, hi = self.vi.default_bounds()
        return ConstraintSystem(
            vi=self.vi,
            A_eq=A_eq,
            b_eq=b_eq,
            A_ub=A_ub,
            b_ub=b_ub,
            lb=lb,
            ub=hi,
            eq_labels=self.eq.labels,
            ub_labels=self.ub.labels,
        )


# ---------------------------------------------------------------------- #
# canonicalization (the equivalence-test contract)
# ---------------------------------------------------------------------- #
def canonical_form(system: ConstraintSystem) -> dict:
    """Row-order-independent canonical form of a constraint system.

    Rows are permuted into sorted-label order (labels are unique per row),
    which makes two assemblies comparable bit-for-bit regardless of family
    emission order.  Returns the sorted CSR pieces plus rhs/labels/bounds.
    """

    def _sorted(A: sp.csr_matrix, b: np.ndarray, labels) -> tuple:
        labels = list(labels)
        if len(labels) != A.shape[0]:
            raise ValueError("label count does not match row count")
        order = np.argsort(np.asarray(labels, dtype=object), kind="stable")
        A = A[order].tocsr()
        A.sort_indices()
        return A, b[order], [labels[i] for i in order]

    A_eq, b_eq, eq_labels = _sorted(system.A_eq, system.b_eq, system.eq_labels)
    A_ub, b_ub, ub_labels = _sorted(system.A_ub, system.b_ub, system.ub_labels)
    return {
        "A_eq": A_eq,
        "b_eq": b_eq,
        "eq_labels": eq_labels,
        "A_ub": A_ub,
        "b_ub": b_ub,
        "ub_labels": ub_labels,
        "lb": system.lb,
        "ub": system.ub,
    }
