"""Joint (population, phase) state space of a closed MAP network.

A CTMC state is ``(n_1..n_M; h_1..h_M)`` where ``n`` is a composition of N
over the M stations and ``h_k`` is the service phase of station ``k``
(frozen while the station is idle).  States are indexed as
``comp_rank * n_phase + phase_code`` with the phase code a mixed-radix
number over station phase counts — the layout that lets generator assembly
work on (composition, phase-group) outer products instead of per-state
loops.

For the paper's Figure 6 example (two exponential queues + one MMPP(2),
N = 2) this space has exactly the 12 states drawn in the figure.

Population sweeps re-enumerate nothing: the phase machinery
(:class:`PhaseLayout` — digits, strides, per-phase masks) depends only on
the station phase orders, and the composition enumeration only on
``(N, M)``; :class:`StateSpaceCache` keys the two independently so a sweep
over N reuses one :class:`PhaseLayout` across every point.  The exact and
transient tiers share one such cache per process
(:func:`get_statespace_cache`), so a model solved by both is enumerated
once.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

import numpy as np

from repro import obs
from repro.markov.statespace import CompositionSpace
from repro.network.model import Network, require_closed

__all__ = [
    "NetworkStateSpace",
    "PhaseLayout",
    "StateSpaceCache",
    "expected_state_count",
    "get_statespace_cache",
]


def expected_state_count(network: Network) -> int:
    """Closed-form joint state count ``C(N+M-1, N) * prod(K_k)``.

    Costs nothing — use it to guard against enumerating a state space that
    would exhaust memory (see :func:`repro.network.exact.generator_for`).
    """
    from scipy.special import comb

    M = network.n_stations
    N = network.population
    return int(comb(N + M - 1, N, exact=True)) * int(
        np.prod(network.phase_orders)
    )


class PhaseLayout:
    """Mixed-radix phase indexing shared by every population of a topology.

    Holds the per-station phase dimensions, the row-major strides, the
    decoded digit table, and a lazily filled mask cache for
    :meth:`phases_with` — everything about the phase axis that is
    independent of the job population ``N``.
    """

    def __init__(self, phase_orders: "tuple[int, ...]") -> None:
        dims = np.array(phase_orders, dtype=np.int64)
        if dims.ndim != 1 or len(dims) < 1 or (dims < 1).any():
            raise ValueError(f"invalid phase orders {phase_orders!r}")
        M = len(dims)
        self.phase_dims = dims
        self.n_phase = int(np.prod(dims))
        # Row-major mixed radix: stride[j] = prod(dims[j+1:]).
        strides = np.ones(M, dtype=np.int64)
        for j in range(M - 2, -1, -1):
            strides[j] = strides[j + 1] * dims[j + 1]
        self.phase_strides = strides
        self._mask_cache: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def phase_digits(self) -> np.ndarray:
        """``(n_phase, M)`` array: digit ``[p, j]`` is station j's phase."""
        codes = np.arange(self.n_phase, dtype=np.int64)
        digits = np.empty((self.n_phase, len(self.phase_dims)), dtype=np.int64)
        for j in range(len(self.phase_dims)):
            digits[:, j] = (codes // self.phase_strides[j]) % self.phase_dims[j]
        return digits

    def phases_with(self, station: int, phase: int) -> np.ndarray:
        """Phase-code indices whose station ``station`` digit equals ``phase``.

        Results are memoized: generator assembly asks for every (station,
        phase) pair once per solve, and a population sweep asks again at
        every point.
        """
        key = (int(station), int(phase))
        hit = self._mask_cache.get(key)
        if hit is None:
            hit = np.nonzero(self.phase_digits[:, station] == phase)[0]
            self._mask_cache[key] = hit
        return hit


class NetworkStateSpace:
    """Indexing machinery for the joint population/phase state space."""

    def __init__(
        self,
        network: Network,
        comp: "CompositionSpace | None" = None,
        phase_layout: "PhaseLayout | None" = None,
    ) -> None:
        # A joint (population, phase) space only exists for a conserved
        # job count; enumerating "the closed chain" of a mixed network
        # would silently drop the open class.
        require_closed(network, "exact")
        self.network = network
        M = network.n_stations
        if comp is not None and (comp.total, comp.parts) != (network.population, M):
            raise ValueError(
                f"composition space is over ({comp.total}, {comp.parts}), "
                f"network needs ({network.population}, {M})"
            )
        self.comp = comp or CompositionSpace(network.population, M)
        if phase_layout is not None and tuple(phase_layout.phase_dims) != tuple(
            network.phase_orders
        ):
            raise ValueError(
                f"phase layout is over {tuple(phase_layout.phase_dims)}, "
                f"network has phase orders {tuple(network.phase_orders)}"
            )
        self.layout = phase_layout or PhaseLayout(network.phase_orders)
        self.phase_dims = self.layout.phase_dims
        self.n_phase = self.layout.n_phase
        self.phase_strides = self.layout.phase_strides
        self.size = self.comp.size * self.n_phase

    @property
    def phase_digits(self) -> np.ndarray:
        """``(n_phase, M)`` array: digit ``[p, j]`` is station j's phase."""
        return self.layout.phase_digits

    def phases_with(self, station: int, phase: int) -> np.ndarray:
        """Phase-code indices whose station ``station`` digit equals ``phase``."""
        return self.layout.phases_with(station, phase)

    def index(self, comp_idx: "int | np.ndarray", phase_idx: "int | np.ndarray"):
        """Flat state index of (composition rank, phase code)."""
        return np.asarray(comp_idx) * self.n_phase + np.asarray(phase_idx)

    def decode(self, state_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(populations, phases) of a flat state index — debugging aid."""
        comp_idx, phase_code = divmod(int(state_idx), self.n_phase)
        return self.comp.states[comp_idx].copy(), self.phase_digits[phase_code].copy()

    def encode(self, populations, phases) -> int:
        """Flat state index of explicit ``(populations, phases)`` vectors.

        The inverse of :meth:`decode`; transient initial-state
        construction (:mod:`repro.transient.initial`) uses it to locate
        the state block of a "place ``N`` jobs *here*" start.
        """
        pops = np.asarray(populations, dtype=np.int64)
        digs = np.asarray(phases, dtype=np.int64)
        M = len(self.phase_dims)
        if pops.shape != (M,) or digs.shape != (M,):
            raise ValueError(
                f"populations and phases must each have {M} entries, got "
                f"{pops.shape} and {digs.shape}"
            )
        if pops.sum() != self.comp.total or (pops < 0).any():
            raise ValueError(
                f"populations must be a composition of {self.comp.total}"
            )
        if (digs < 0).any() or (digs >= self.phase_dims).any():
            raise ValueError(
                f"phases {digs.tolist()} out of range for orders "
                f"{self.phase_dims.tolist()}"
            )
        phase_code = int((digs * self.phase_strides).sum())
        return int(self.comp.rank(pops)) * self.n_phase + phase_code

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkStateSpace(compositions={self.comp.size}, "
            f"phase_combos={self.n_phase}, states={self.size})"
        )


class StateSpaceCache:
    """LRU cache of state-space components for sweeps, under one budget.

    Composition spaces are keyed by ``(N, M)`` and phase layouts by the
    station phase orders, so a population sweep over one topology reuses
    a single :class:`PhaseLayout` (with its digit table and phase masks)
    and only enumerates the new composition set at each point — and a
    second sweep over the same populations pays nothing at all.

    Both kinds share one LRU and one budget, ``max_cached_cells`` int64
    cells: a composition space counts its ``size * parts`` array, a
    layout ``2 * n_phase * M`` (its digit table and phase masks, once
    filled).  An entry over the budget is built and handed out but never
    retained, and the least recently used entries are evicted until the
    budget holds — large spaces must not stay pinned for the process
    lifetime just because they were solvable.
    """

    def __init__(self, max_cached_cells: int = 4_000_000) -> None:
        self.max_cached_cells = int(max_cached_cells)
        #: ``("comp", N, M)`` or ``("layout", *orders)`` -> (value, cells)
        self._store: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        self._cells = 0
        self.hits = 0
        self.misses = 0

    def _get(self, key: tuple, build, cells):
        tele = obs.get_telemetry()
        hit = self._store.get(key)
        if hit is not None:
            self.hits += 1
            tele.counter("statespace_cache.hit")
            self._store.move_to_end(key)
            return hit[0]
        self.misses += 1
        tele.counter("statespace_cache.miss")
        value = build()
        size = cells(value)
        if size > self.max_cached_cells:
            return value  # too large to pin — hand it to the caller only
        self._store[key] = (value, size)
        self._cells += size
        while self._cells > self.max_cached_cells:
            _, (_, dropped) = self._store.popitem(last=False)
            self._cells -= dropped
        return value

    def composition_space(self, population: int, parts: int) -> CompositionSpace:
        """Cached weak-composition enumeration of ``population`` into ``parts``."""
        return self._get(
            ("comp", int(population), int(parts)),
            lambda: CompositionSpace(population, parts),
            lambda comp: comp.states.size,
        )

    def phase_layout(self, phase_orders) -> PhaseLayout:
        """Cached :class:`PhaseLayout` for the given station phase orders."""
        orders = tuple(int(k) for k in phase_orders)
        return self._get(
            ("layout", *orders),
            lambda: PhaseLayout(orders),
            lambda layout: 2 * layout.n_phase * len(orders),
        )

    def space_for(self, network: Network) -> NetworkStateSpace:
        """State space of ``network`` assembled from cached components."""
        return NetworkStateSpace(
            network,
            comp=self.composition_space(network.population, network.n_stations),
            phase_layout=self.phase_layout(network.phase_orders),
        )

    def clear(self) -> None:
        """Drop every cached component and reset the hit/miss counters."""
        self._store.clear()
        self._cells = 0
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters plus current store sizes."""
        kinds = [key[0] for key in self._store]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compositions": kinds.count("comp"),
            "layouts": kinds.count("layout"),
        }


_default_cache: "StateSpaceCache | None" = None


def get_statespace_cache() -> StateSpaceCache:
    """The process-wide state-space cache (created lazily).

    :func:`repro.network.exact.generator_for` takes every exact and
    transient space from it; its ``max_cached_cells`` budget alone decides
    which compositions and layouts stay pinned.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = StateSpaceCache()
    return _default_cache
