"""The unified MAP queueing network model: closed, open, and mixed.

:class:`Network` is the single model abstraction every layer of the
repository builds on.  What distinguishes the three kinds is the
*population descriptor* (see :mod:`repro.network.population`):

* ``Closed(n=...)`` — the paper's setting: ``n`` jobs circulate over a
  row-stochastic routing matrix.
* ``OpenArrivals(map=..., entry=...)`` — jobs arrive from an external MAP
  stream, route over a *substochastic* matrix, and exit to the sink (each
  row's deficit is its sink probability).  Stability ``rho_k < 1`` is
  checked at construction via the traffic equations.
* ``Mixed(closed=..., open=...)`` — both chains share the stations: the
  closed chain routes by ``routing`` (stochastic), the open chain by
  ``open_routing`` (substochastic with sink).

A closed :class:`Network` fingerprints exactly like the pre-redesign
closed-network model of the same content, so cache keys and
``.repro-cache`` entries stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.network.population import (
    Closed,
    Mixed,
    OpenArrivals,
    PopulationLike,
    resolve_entry,
)
from repro.network.routing import (
    open_visit_ratios,
    validate_open_routing,
    validate_routing,
    visit_ratios,
)
from repro.network.stations import Station
from repro.utils.errors import UnsupportedNetworkError, ValidationError

__all__ = ["Network", "require_closed", "require_reference"]


def _validate_stations(stations) -> tuple[Station, ...]:
    """Shared station-list validation (uniqueness, non-emptiness)."""
    stations = tuple(stations)
    if len(stations) < 1:
        raise ValidationError("network needs at least one station")
    names = [s.name for s in stations]
    if len(set(names)) != len(names):
        raise ValidationError(f"station names must be unique, got {names}")
    return stations


@dataclass(frozen=True)
class Network:
    """Single-class MAP queueing network of any kind (closed/open/mixed).

    Parameters
    ----------
    stations:
        Tuple of :class:`~repro.network.stations.Station`.
    routing:
        ``(M, M)`` primary routing matrix.  Row-stochastic for closed and
        mixed networks (it routes the closed chain); substochastic for open
        networks (row deficits exit to the sink).
    population:
        A population descriptor (:class:`~repro.network.population.Closed`,
        :class:`~repro.network.population.OpenArrivals`, or
        :class:`~repro.network.population.Mixed`); a bare ``int`` is
        shorthand for ``Closed(n)``.
    open_routing:
        Mixed networks only: the open chain's substochastic routing matrix.
        Must be ``None`` for closed and open networks (an open network's
        ``routing`` *is* the open routing).

    Examples
    --------
    The example network of the paper's Figure 5 (two exponential queues
    feeding a MAP queue) is built by
    :func:`repro.experiments.fig8.fig5_network`; open and mixed examples
    live in the scenario catalog (``open-bursty-tandem``, ``mixed-tpcw``).
    """

    stations: tuple[Station, ...]
    routing: np.ndarray
    chain: "Closed | OpenArrivals | Mixed"
    open_routing: "np.ndarray | None"

    def __init__(
        self,
        stations,
        routing,
        population: PopulationLike,
        open_routing=None,
    ) -> None:
        stations = _validate_stations(stations)
        names = [s.name for s in stations]
        M = len(stations)

        if not isinstance(population, (Closed, OpenArrivals, Mixed)):
            # Anything else is closed-chain shorthand; Closed() validates
            # (ints, numpy ints, and exactly-integral floats pass — the
            # pre-redesign leniency — everything else raises its precise
            # ValidationError).
            population = Closed(population)

        if isinstance(population, Closed):
            if open_routing is not None:
                raise ValidationError(
                    "closed networks take no open_routing; pass an "
                    "OpenArrivals or Mixed population to open the network"
                )
            P = validate_routing(routing, M)
            entry = None
            P_open = None
        elif isinstance(population, OpenArrivals):
            if open_routing is not None:
                raise ValidationError(
                    "open networks route by their primary matrix; "
                    "open_routing is for mixed networks only"
                )
            entry = resolve_entry(population.entry, names)
            P = validate_open_routing(routing, entry, M)
            P_open = None
        else:  # Mixed
            P = validate_routing(routing, M)
            if open_routing is None:
                raise ValidationError(
                    "mixed networks need an open_routing matrix for the "
                    "open chain (substochastic, deficits exit to the sink)"
                )
            entry = resolve_entry(population.open.entry, names)
            P_open = validate_open_routing(
                open_routing, entry, M, require_full_coverage=False
            )
            P_open.setflags(write=False)

        P.setflags(write=False)
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "routing", P)
        object.__setattr__(self, "chain", population)
        object.__setattr__(self, "open_routing", P_open)
        if entry is not None:
            entry.setflags(write=False)
        object.__setattr__(self, "_entry", entry)
        self._check_open_stability()

    # ------------------------------------------------------------------ #
    # kind and chain accessors
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"closed"``, ``"open"``, or ``"mixed"``."""
        if isinstance(self.chain, Closed):
            return "closed"
        if isinstance(self.chain, OpenArrivals):
            return "open"
        return "mixed"

    @property
    def population(self) -> int:
        """Closed-chain job count ``N`` (closed and mixed networks).

        Raises
        ------
        UnsupportedNetworkError
            For open networks, which have no fixed population — use
            :attr:`arrivals` / :attr:`arrival_rates` instead.  Closed-only
            code paths (MVA, the LP bounds, the exact CTMC) therefore fail
            loudly instead of silently mis-solving an open model.
        """
        if isinstance(self.chain, Closed):
            return self.chain.n
        if isinstance(self.chain, Mixed):
            return self.chain.closed.n
        raise UnsupportedNetworkError(
            "population", "open", supported="closed/mixed"
        )

    @property
    def arrivals(self):
        """External arrival MAP of the open chain (``None`` when closed)."""
        if isinstance(self.chain, OpenArrivals):
            return self.chain.map
        if isinstance(self.chain, Mixed):
            return self.chain.open.map
        return None

    @property
    def entry(self):
        """``(M,)`` entry probability vector of the open chain (or ``None``)."""
        return self._entry

    @property
    def open_routing_matrix(self) -> np.ndarray:
        """The open chain's routing matrix, whichever field holds it."""
        if isinstance(self.chain, OpenArrivals):
            return self.routing
        if isinstance(self.chain, Mixed):
            return self.open_routing
        raise UnsupportedNetworkError("open_routing_matrix", "closed",
                                      supported="open/mixed")

    # ------------------------------------------------------------------ #
    # structural properties
    # ------------------------------------------------------------------ #
    @property
    def n_stations(self) -> int:
        """Number of stations M."""
        return len(self.stations)

    @cached_property
    def phase_orders(self) -> tuple[int, ...]:
        """Service-phase counts ``K_k`` per station."""
        return tuple(s.phases for s in self.stations)

    @cached_property
    def visit_ratios(self) -> np.ndarray:
        """Primary-chain visit ratios.

        Closed and mixed: visits relative to station 0 (``v[0] = 1``) of
        the closed chain.  Open: absolute visits per external arrival
        (traffic equations ``v = e + v P``).
        """
        if self.kind == "open":
            return open_visit_ratios(self.routing, self._entry)
        return visit_ratios(self.routing, reference=0)

    @cached_property
    def open_visits(self) -> np.ndarray:
        """Open-chain visits per external arrival (open and mixed networks)."""
        if self.kind == "closed":
            raise UnsupportedNetworkError("open_visits", "closed",
                                          supported="open/mixed")
        return open_visit_ratios(self.open_routing_matrix, self._entry)

    @cached_property
    def arrival_rates(self) -> np.ndarray:
        """Open-chain arrival rates ``lambda_k = lambda_ext * v_k``."""
        visits = self.open_visits  # raises the typed error on closed nets
        return self.arrivals.rate * visits

    @cached_property
    def open_utilizations(self) -> np.ndarray:
        """Open-chain offered utilizations ``rho_k = lambda_k E[S_k] / c_k``.

        For mixed networks this is the open chain's *offered* load only —
        a necessary stability condition, not sufficient, because the
        closed chain competes for the same servers.
        """
        lam = self.arrival_rates
        rho = np.empty(self.n_stations)
        for k, st in enumerate(self.stations):
            if st.kind == "delay":
                rho[k] = 0.0  # infinite servers never saturate
            else:
                servers = st.servers if st.kind == "multiserver" else 1
                rho[k] = lam[k] * st.mean_service_time / servers
        return rho

    def _check_open_stability(self) -> None:
        """Construction-time stability check of the open chain."""
        if self.kind == "closed":
            return
        rho = self.open_utilizations
        for k, st in enumerate(self.stations):
            if st.kind != "delay" and rho[k] >= 1.0:
                raise ValidationError(
                    f"open chain is unstable at station {st.name!r}: "
                    f"rho = {rho[k]:.4f} >= 1 (arrival rate "
                    f"{float(self.arrival_rates[k]):.4g} exceeds service "
                    "capacity); slow the source or speed the station"
                )

    @cached_property
    def service_demands(self) -> np.ndarray:
        """Per-station service demands ``D_k = v_k * E[S_k]`` (one server)."""
        return self.visit_ratios * np.array(
            [s.mean_service_time for s in self.stations]
        )

    @cached_property
    def bottleneck(self) -> int:
        """Index of the station with the largest service demand."""
        return int(np.argmax(self.service_demands))

    @cached_property
    def is_product_form(self) -> bool:
        """True when all service processes are exponential (BCMP/FCFS)."""
        return all(s.phases == 1 for s in self.stations)

    def station_index(self, name: str) -> int:
        """Index of the station with the given name."""
        for i, s in enumerate(self.stations):
            if s.name == name:
                return i
        raise KeyError(f"no station named {name!r}")

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def with_population(self, population: int) -> "Network":
        """Copy of this network with a different closed-chain job count.

        Population sweeps (every figure of the paper) reuse the same
        stations/routing, so this is the canonical way to iterate over N.
        Open networks have no population to change.
        """
        if isinstance(self.chain, Closed):
            return Network(self.stations, self.routing, Closed(int(population)))
        if isinstance(self.chain, Mixed):
            return Network(
                self.stations,
                self.routing,
                Mixed(Closed(int(population)), self.chain.open),
                open_routing=self.open_routing,
            )
        raise UnsupportedNetworkError(
            "with_population", "open", supported="closed/mixed"
        )

    def with_station(self, index: int, station: Station) -> "Network":
        """Copy with one station replaced (e.g., the "no-ACF" variant of
        Figure 3, where the bursty front server becomes exponential)."""
        stations = list(self.stations)
        stations[index] = station
        return Network(
            stations, self.routing, self.chain, open_routing=self.open_routing
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(
            f"{s.name}:{s.kind}(K={s.phases})" for s in self.stations
        )
        if isinstance(self.chain, Closed):
            head = f"N={self.chain.n}"
        elif isinstance(self.chain, OpenArrivals):
            head = f"open, lambda={self.chain.rate:.4g}"
        else:
            head = (
                f"mixed, N={self.chain.closed.n}, "
                f"lambda={self.chain.open.rate:.4g}"
            )
        return f"Network({head}, stations=[{kinds}])"


def require_closed(network: Network, method: str) -> None:
    """Guard for closed-network-only analyses.

    Raises
    ------
    UnsupportedNetworkError
        When ``network`` is open or mixed.  Methods that enumerate a closed
        state space or rely on job conservation (exact CTMC, MVA, ABA, BJB,
        decomposition, the LP bounds) call this first so an open model
        fails with a typed error instead of being silently mis-solved.
    """
    kind = getattr(network, "kind", "closed")
    if kind != "closed":
        raise UnsupportedNetworkError(method, kind)


def require_reference(network: Network, reference) -> None:
    """Guard for a ``reference`` station index.

    Raises
    ------
    ValueError
        When ``reference`` is not an integer in ``[0, M)``.  Every solver
        that takes a reference station calls this first: a negative index
        would answer for a station counted from the end, and one past the
        last station would fail deep inside the solver.
    """
    M = network.n_stations
    if (
        isinstance(reference, bool)
        or not isinstance(reference, (int, np.integer))
        or not 0 <= reference < M
    ):
        raise ValueError(
            f"reference must be a station index in [0, {M}), got {reference!r}"
        )
