"""Fluent construction of MAP queueing networks of any kind.

:class:`NetworkBuilder` is the programmatic front end of the declarative
spec format (:mod:`repro.scenarios.spec`): stations are declared by name with
either a ready :class:`~repro.maps.map.MAP`, a distribution spec dict, or
plain ``mean=``/``rate=`` shorthand for exponential service; routing is
declared edge-by-edge (or as a cycle) by station *name*.  ``build()`` writes
the declarations as a spec and compiles it with
:func:`~repro.scenarios.spec.network_from_spec`, so builder and spec
documents share one compiler and one set of validation rules.

.. code-block:: python

    net = (
        NetworkBuilder(population=50)
        .delay("clients", mean=7.0)
        .queue("front", service={"dist": "map2", "mean": 0.018,
                                 "scv": 16.0, "gamma2": 0.8})
        .queue("db", mean=0.025)
        .link("clients", "front")
        .link("front", "clients", 0.5).link("front", "db", 0.5)
        .link("db", "front")
        .build()
    )

Open networks declare an external :meth:`~NetworkBuilder.source` and a
:meth:`~NetworkBuilder.sink` as pseudo-nodes in the same link language —
they never become stations.  Whatever they are called here, they take the
spec's reserved ``source``/``sink`` names in the compiled spec, so no
station of an open or mixed network may be named ``source`` or ``sink``:

.. code-block:: python

    open_net = (
        NetworkBuilder()
        .source("in", service={"dist": "map2", "mean": 1.0,
                               "scv": 16.0, "gamma2": 0.5})
        .queue("q1", mean=0.7).queue("q2", mean=0.6)
        .sink("out")
        .link("in", "q1").link("q1", "q2").link("q2", "out")
        .build()
    )

A builder with *both* a population and a source builds a mixed network:
``link()`` edges between stations route the closed chain, while
``open_link()`` edges (plus any edge touching the source or sink) route
the open chain.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.maps.map import MAP
from repro.network.model import Network
from repro.scenarios.spec import (
    SINK_NAME,
    SOURCE_NAME,
    network_from_spec,
    service_from_spec,
)
from repro.utils.errors import ValidationError

__all__ = ["NetworkBuilder"]


class NetworkBuilder:
    """Incrementally declare a network, then ``build()`` it.

    Parameters
    ----------
    population:
        Number of circulating jobs; may also be set (or overridden) later
        via :meth:`with_population` or the ``build(population=...)``
        argument.

    Notes
    -----
    All mutating methods return ``self`` so declarations chain fluently.
    Station order (= index order in the compiled network) is declaration
    order.
    """

    def __init__(self, population: int | None = None) -> None:
        self._population = population
        self._stations: list[dict[str, Any]] = []
        self._links: dict[tuple[str, str], float] = {}
        self._open_links: dict[tuple[str, str], float] = {}
        self._source_name: str | None = None
        self._arrivals: MAP | None = None
        self._sink_name: str | None = None

    # ------------------------------------------------------------------ #
    # stations
    # ------------------------------------------------------------------ #
    def _service(
        self,
        name: str,
        service: "MAP | Mapping[str, Any] | None",
        mean: float | None,
        rate: float | None,
    ) -> MAP:
        """Resolve the service process from the accepted shorthands."""
        given = sum(x is not None for x in (service, mean, rate))
        if given != 1:
            raise ValidationError(
                f"station {name!r}: give exactly one of service=, mean=, rate= "
                f"(got {given})"
            )
        if service is None:
            key, value = ("mean", mean) if mean is not None else ("rate", rate)
            service = {"dist": "exponential", key: value}
        return service_from_spec(service)

    def station(
        self,
        name: str,
        service: "MAP | Mapping[str, Any] | None" = None,
        kind: str = "queue",
        servers: int = 1,
        mean: float | None = None,
        rate: float | None = None,
    ) -> "NetworkBuilder":
        """Declare a station of any kind.

        Parameters
        ----------
        name:
            Unique station name (used by routing declarations).
        service:
            A :class:`~repro.maps.map.MAP` or a distribution spec dict (see
            :func:`repro.scenarios.spec.service_from_spec`).
        kind:
            ``"queue"``, ``"delay"``, or ``"multiserver"``.
        servers:
            Server count for ``kind="multiserver"``.
        mean, rate:
            Exponential-service shorthand (exactly one of ``service``,
            ``mean``, ``rate`` must be given).

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        svc = self._service(name, service, mean, rate)
        if name in self.station_names:
            raise ValidationError(f"duplicate station name {name!r}")
        if name in (self._source_name, self._sink_name):
            raise ValidationError(
                f"station name {name!r} collides with the declared "
                "source/sink pseudo-node"
            )
        self._stations.append(
            {"name": name, "kind": kind, "service": svc, "servers": servers}
        )
        return self

    def queue(
        self,
        name: str,
        service: "MAP | Mapping[str, Any] | None" = None,
        mean: float | None = None,
        rate: float | None = None,
    ) -> "NetworkBuilder":
        """Declare a single-server FCFS queue (the paper's station type)."""
        return self.station(name, service=service, kind="queue", mean=mean, rate=rate)

    def delay(
        self,
        name: str,
        service: "MAP | Mapping[str, Any] | None" = None,
        mean: float | None = None,
        rate: float | None = None,
    ) -> "NetworkBuilder":
        """Declare an infinite-server (think-time) station."""
        return self.station(name, service=service, kind="delay", mean=mean, rate=rate)

    def multiserver(
        self,
        name: str,
        servers: int,
        service: "MAP | Mapping[str, Any] | None" = None,
        mean: float | None = None,
        rate: float | None = None,
    ) -> "NetworkBuilder":
        """Declare a multi-server FCFS station (exponential service only)."""
        return self.station(
            name, service=service, kind="multiserver", servers=servers,
            mean=mean, rate=rate,
        )

    # ------------------------------------------------------------------ #
    # open-network pseudo-nodes
    # ------------------------------------------------------------------ #
    def source(
        self,
        name: str = SOURCE_NAME,
        service: "MAP | Mapping[str, Any] | None" = None,
        mean: float | None = None,
        rate: float | None = None,
    ) -> "NetworkBuilder":
        """Declare the external arrival source as a routable pseudo-node.

        The source never becomes a station: :meth:`build` compiles it to
        the spec's ``arrivals`` and ``source`` routing row, i.e. an
        :class:`~repro.network.population.OpenArrivals` descriptor whose
        entry distribution is read off the ``link(source, ...)`` edges.
        Declaring a source makes the built network open (or mixed, when a
        population is also set).

        Parameters
        ----------
        name:
            Pseudo-node name used in routing declarations.
        service:
            The arrival MAP (or a distribution spec dict); ``mean``/``rate``
            are the exponential-interarrival shorthand, so
            ``source(rate=0.5)`` declares Poisson arrivals at rate 0.5.

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        if self._source_name is not None:
            raise ValidationError(
                f"source already declared as {self._source_name!r}"
            )
        if name in self.station_names or name == self._sink_name:
            raise ValidationError(f"source name {name!r} is already in use")
        self._arrivals = self._service(name, service, mean, rate)
        self._source_name = name
        return self

    def sink(self, name: str = SINK_NAME) -> "NetworkBuilder":
        """Declare the exit sink as a routable pseudo-node.

        Links *to* the sink carry the exit probabilities; every open row
        must total 1 including its sink mass (see :meth:`build`).

        Parameters
        ----------
        name:
            Pseudo-node name used in routing declarations.

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        if self._sink_name is not None:
            raise ValidationError(f"sink already declared as {self._sink_name!r}")
        if name in self.station_names or name == self._source_name:
            raise ValidationError(f"sink name {name!r} is already in use")
        self._sink_name = name
        return self

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _edge(
        self,
        edges: "dict[tuple[str, str], float]",
        verb: str,
        src: str,
        dst: str,
        probability: float,
    ) -> "NetworkBuilder":
        """Add ``probability`` to the declared edge ``src -> dst``."""
        if not 0.0 < probability <= 1.0:
            raise ValidationError(
                f"{verb} {src!r}->{dst!r}: probability must be in (0, 1], "
                f"got {probability}"
            )
        if src == self._sink_name:
            raise ValidationError(f"the sink {src!r} cannot be a link source")
        if dst == self._source_name:
            raise ValidationError(
                f"the source {dst!r} cannot be a link destination"
            )
        edges[(src, dst)] = edges.get((src, dst), 0.0) + probability
        return self

    def link(self, src: str, dst: str, probability: float = 1.0) -> "NetworkBuilder":
        """Route jobs completing at ``src`` to ``dst`` with the given probability.

        Probabilities accumulate if the same edge is declared twice; each
        station's outgoing probabilities must total 1 at :meth:`build` time.
        Edges touching the declared source or sink pseudo-nodes belong to
        the open chain automatically.

        Parameters
        ----------
        src, dst:
            Station (or source/sink pseudo-node) names; stations must be
            declared before :meth:`build`.
        probability:
            Routing probability in ``(0, 1]``.

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        return self._edge(self._links, "link", src, dst, probability)

    def open_link(
        self, src: str, dst: str, probability: float = 1.0
    ) -> "NetworkBuilder":
        """Route the *open chain* from ``src`` to ``dst`` (mixed networks).

        In a mixed network :meth:`link` declares the closed chain's
        station-to-station routing, so the open chain's internal hops need
        their own verb.  (Edges touching the source or sink pseudo-nodes
        are open-chain automatically, whichever method declares them; in a
        pure open network the two verbs are interchangeable.)

        Parameters
        ----------
        src, dst:
            Station (or source/sink pseudo-node) names.
        probability:
            Routing probability in ``(0, 1]``.

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        return self._edge(self._open_links, "open_link", src, dst, probability)

    def cycle(self, *names: str) -> "NetworkBuilder":
        """Route the named stations in a deterministic loop.

        ``cycle("a", "b", "c")`` declares ``a -> b -> c -> a`` with
        probability 1 on each hop — the tandem/cyclic topology shorthand.

        Parameters
        ----------
        *names:
            Two or more station names, in visiting order.

        Returns
        -------
        NetworkBuilder
            ``self``, for chaining.
        """
        if len(names) < 2:
            raise ValidationError("cycle() needs at least two station names")
        for src, dst in zip(names, names[1:] + (names[0],)):
            self.link(src, dst, 1.0)
        return self

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def with_population(self, population: int) -> "NetworkBuilder":
        """Set (or replace) the job population."""
        self._population = population
        return self

    @property
    def station_names(self) -> tuple[str, ...]:
        """Names declared so far, in index order."""
        return tuple(s["name"] for s in self._stations)

    def build(self, population: int | None = None) -> Network:
        """Write the declarations as a spec and compile it.

        The built kind follows the declarations: stations + population →
        closed; a :meth:`source` (and :meth:`sink`) without population →
        open; both → mixed.  Edges are sorted into chains here, once the
        pseudo-node names are final, so declaring a link before its
        ``source()``/``sink()`` never changes which chain it routes.

        Parameters
        ----------
        population:
            Overrides the population given at construction time.

        Returns
        -------
        Network
            ``network_from_spec(spec)`` of the declared spec.

        Raises
        ------
        ValidationError
            On a missing population/source/sink, or any error of
            :func:`~repro.scenarios.spec.network_from_spec` (undeclared
            stations in links, rows not summing to 1, an open row without
            its sink edge, an unstable open chain, ...).
        """
        N = population if population is not None else self._population
        spec: dict[str, Any] = {"stations": self._stations}
        if self._source_name is None:
            if self._sink_name is not None or self._open_links:
                raise ValidationError(
                    "sink/open links declared without a source(); declare "
                    "the external arrival source to build an open network"
                )
            if N is None:
                raise ValidationError(
                    "population not set: pass NetworkBuilder(population=...) "
                    "or build(population=...), or declare a source() for an "
                    "open network"
                )
            spec.update(population=N, routing=self._rows(self._links.items(), {}))
            return network_from_spec(spec)
        if self._sink_name is None:
            raise ValidationError(
                "source() declared without a sink(); open chains must drain"
            )

        pseudo = {self._source_name: SOURCE_NAME, self._sink_name: SINK_NAME}
        # An open network routes every edge on its one chain; a mixed one
        # routes station-to-station link() edges on the closed chain.
        closed: list = []
        opened = list(self._open_links.items())
        for (src, dst), prob in self._links.items():
            to_closed = N is not None and src not in pseudo and dst not in pseudo
            (closed if to_closed else opened).append(((src, dst), prob))
        spec["arrivals"] = self._arrivals
        if N is None:
            spec["routing"] = self._rows(opened, pseudo)
        else:
            spec.update(
                population=N,
                routing=self._rows(closed, pseudo),
                open_routing=self._rows(opened, pseudo),
            )
        return network_from_spec(spec)

    def _rows(self, edges, pseudo: "dict[str, str]") -> "dict[str, dict[str, float]]":
        """Name-keyed spec routing rows of ``edges``, with the pseudo-nodes
        renamed to the spec's reserved ``source``/``sink``."""
        rows: dict[str, dict[str, float]] = {}
        for (src, dst), prob in edges:
            if pseudo:
                src, dst = self._spec_name(src, pseudo), self._spec_name(dst, pseudo)
            row = rows.setdefault(src, {})
            row[dst] = row.get(dst, 0.0) + prob
        return rows

    def _spec_name(self, name: str, pseudo: "dict[str, str]") -> str:
        """A link endpoint's name in the spec."""
        if name in pseudo:
            return pseudo[name]
        if pseudo and name in (SOURCE_NAME, SINK_NAME):
            raise ValidationError(
                f"{name!r} is reserved in open and mixed networks; the "
                f"pseudo-nodes here are {self._source_name!r} and "
                f"{self._sink_name!r}"
            )
        return name
