"""Declarative model specs: dict/YAML <-> :class:`Network`.

A *spec* is a plain JSON-ish tree describing a MAP queueing network of any
kind — stations with named service distributions, routing by station name,
and either a job population (closed), an external arrival stream (open),
or both (mixed):

.. code-block:: yaml

    population: 50
    stations:
      - {name: clients, kind: delay, service: {dist: exponential, mean: 7.0}}
      - {name: front, kind: queue,
         service: {dist: map2, mean: 0.018, scv: 16.0, gamma2: 0.8}}
      - {name: db, kind: queue, service: {dist: exponential, mean: 0.025}}
    routing:
      clients: {front: 1.0}
      front: {clients: 0.5, db: 0.5}
      db: {front: 1.0}

Open networks replace ``population`` with an ``arrivals`` distribution and
route through the reserved ``source``/``sink`` pseudo-stations (rows sum to
1 *including* the sink column):

.. code-block:: yaml

    kind: open
    arrivals: {dist: map2, mean: 1.0, scv: 16.0, gamma2: 0.5}
    stations:
      - {name: q1, service: {dist: exponential, mean: 0.7}}
      - {name: q2, service: {dist: exponential, mean: 0.6}}
    routing:
      source: {q1: 1.0}
      q1: {q2: 1.0}
      q2: {sink: 1.0}

Mixed networks carry both a ``population`` (routed by ``routing``) and an
open chain (``arrivals`` + ``open_routing`` with source/sink rows).

:func:`network_from_spec` compiles a spec to a validated network; it is
the scenarios layer's one compiler (the fluent
:class:`~repro.scenarios.builder.NetworkBuilder` writes its declarations as
a spec and compiles it here).
:func:`network_to_spec` renders any network back to a spec (explicit
``D0``/``D1`` matrices for multi-phase MAPs, so the round trip is exact:
``fingerprint_network(network_from_spec(network_to_spec(net))) ==
fingerprint_network(net)``).  :func:`load_spec` / :func:`dump_spec` add the
YAML file format on top (requires PyYAML, which is gated — the dict path
has no extra dependency).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.maps import builders
from repro.maps.fitting import fit_map2, fit_renewal
from repro.maps.map import MAP
from repro.network.model import Network
from repro.network.population import Closed, Mixed, OpenArrivals
from repro.network.stations import Station
from repro.utils.errors import NotSupportedError, ValidationError

__all__ = [
    "service_from_spec",
    "service_to_spec",
    "network_from_spec",
    "network_to_spec",
    "load_spec",
    "dump_spec",
]

_STATION_KINDS = ("queue", "delay", "multiserver")


def _require(mapping: Mapping, key: str, context: str) -> Any:
    """Fetch a required key, failing with a spec-path error message."""
    if key not in mapping:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _mean(spec: Mapping, context: str) -> float:
    """Fetch a distribution's required ``mean``, which must be positive."""
    mean = float(_require(spec, "mean", context))
    if not mean > 0.0:
        raise ValidationError(f"{context}: mean must be positive, got {mean}")
    return mean


def _yaml():
    """Import PyYAML lazily; the dict-spec path never needs it."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise NotSupportedError(
            "YAML specs require the 'pyyaml' package (pip install pyyaml); "
            "dict specs work without it"
        ) from exc
    return yaml


# --------------------------------------------------------------------- #
# service distributions
# --------------------------------------------------------------------- #
def service_from_spec(spec: "Mapping[str, Any] | MAP") -> MAP:
    """Build a MAP service process from a distribution spec.

    Parameters
    ----------
    spec:
        Either a ready :class:`~repro.maps.map.MAP` (returned unchanged) or
        a mapping with a ``dist`` discriminator:

        ``exponential``
            ``mean`` or ``rate``.
        ``erlang``
            ``k`` plus ``mean`` or ``rate`` (per-stage).
        ``hyperexp``
            Either explicit ``p``/``rates`` lists or a ``(mean, scv)``
            balanced fit.
        ``renewal``
            ``mean``/``scv`` fit with zero autocorrelation (Erlang /
            exponential / H2, chosen by SCV).
        ``map2``
            ``mean``, ``scv``, ``gamma2`` — the paper's correlated MAP(2)
            family with exactly geometric ACF.
        ``mmpp2``
            ``r1``, ``r2``, ``lam1``, ``lam2``.
        ``map``
            Explicit ``D0``/``D1`` matrices.

    Every ``mean`` must be positive.

    Returns
    -------
    MAP
        The validated service process.
    """
    if isinstance(spec, MAP):
        return spec
    if not isinstance(spec, Mapping):
        raise ValidationError(
            f"service spec must be a mapping or a MAP, got {type(spec).__name__}"
        )
    dist = str(_require(spec, "dist", "service")).lower()
    ctx = f"service(dist={dist})"
    if dist == "exponential":
        if "rate" in spec:
            return builders.exponential(float(spec["rate"]))
        return builders.exponential(1.0 / _mean(spec, ctx))
    if dist == "erlang":
        k = int(_require(spec, "k", ctx))
        rate = float(spec["rate"]) if "rate" in spec else k / _mean(spec, ctx)
        return builders.erlang(k, rate)
    if dist == "hyperexp":
        if "p" in spec or "rates" in spec:
            return builders.hyperexponential(
                _require(spec, "p", ctx), _require(spec, "rates", ctx)
            )
        from repro.maps.fitting import fit_hyperexp_balanced

        p1, nu1, nu2 = fit_hyperexp_balanced(
            _mean(spec, ctx), float(_require(spec, "scv", ctx))
        )
        return builders.hyperexponential([p1, 1.0 - p1], [nu1, nu2])
    if dist == "renewal":
        return fit_renewal(_mean(spec, ctx), float(_require(spec, "scv", ctx)))
    if dist == "map2":
        return fit_map2(
            _mean(spec, ctx),
            float(_require(spec, "scv", ctx)),
            float(spec.get("gamma2", 0.0)),
        )
    if dist == "mmpp2":
        return builders.mmpp2(
            float(_require(spec, "r1", ctx)),
            float(_require(spec, "r2", ctx)),
            float(_require(spec, "lam1", ctx)),
            float(_require(spec, "lam2", ctx)),
        )
    if dist == "map":
        return MAP(_require(spec, "D0", ctx), _require(spec, "D1", ctx))
    raise ValidationError(
        f"unknown service dist {dist!r}; expected one of exponential, erlang, "
        "hyperexp, renewal, map2, mmpp2, map"
    )


def service_to_spec(service: MAP) -> dict:
    """Render a MAP service process as a declarative distribution spec.

    Order-1 MAPs render as ``exponential``; anything else renders as
    explicit ``D0``/``D1`` matrices, which is lossless (named families are
    compile-time conveniences, not canonical forms).

    Parameters
    ----------
    service:
        The service process to render.

    Returns
    -------
    dict
        A spec accepted by :func:`service_from_spec`.
    """
    if service.order == 1:
        return {"dist": "exponential", "rate": float(service.rate)}
    return {
        "dist": "map",
        "D0": [[float(x) for x in row] for row in np.asarray(service.D0)],
        "D1": [[float(x) for x in row] for row in np.asarray(service.D1)],
    }


# --------------------------------------------------------------------- #
# whole networks
# --------------------------------------------------------------------- #
def _station_from_spec(spec: Mapping[str, Any]) -> Station:
    """Compile one station entry of a network spec."""
    name = str(_require(spec, "name", "station"))
    kind = str(spec.get("kind", "queue"))
    if kind not in _STATION_KINDS:
        raise ValidationError(
            f"station {name!r}: unknown kind {kind!r}; expected one of "
            f"{_STATION_KINDS}"
        )
    service = service_from_spec(_require(spec, "service", f"station {name!r}"))
    servers = int(spec.get("servers", 1))
    return Station(name=name, service=service, kind=kind, servers=servers)


#: Reserved pseudo-station names in open/mixed routing specs: a ``source``
#: row declares the entry distribution, a ``sink`` destination the exit
#: probability.  Rows of an open routing spec must sum to 1 *including*
#: the sink column — the augmented matrix is row-stochastic.
SOURCE_NAME = "source"
SINK_NAME = "sink"


def _routing_from_spec(
    routing: "Mapping[str, Mapping[str, float]] | Any",
    names: list[str],
    open_chain: bool = False,
    context: str = "routing",
) -> "tuple[np.ndarray, np.ndarray | None, set[str] | None]":
    """Compile a routing entry (name-keyed mapping or explicit matrix).

    Parameters
    ----------
    routing:
        Name-keyed mapping (rows may use the reserved ``source``/``sink``
        pseudo-stations when ``open_chain``) or an explicit matrix.
    names:
        Station names in index order.
    open_chain:
        Parse open-chain semantics: accept a ``source`` row (entry
        distribution), accept ``sink`` destinations, and require each
        station row to sum to 1 *including* its sink mass.
    context:
        Spec-path prefix for error messages.

    Returns
    -------
    tuple
        ``(P, entry, declared)`` — the internal (sub)stochastic matrix;
        for open chains declared with a ``source`` row, the entry vector
        (else ``None``); and the set of station names that declared a
        routing row (``None`` for the explicit-matrix form, whose rows
        are all present by construction).
    """
    if not isinstance(routing, Mapping):
        return np.asarray(routing, dtype=float), None, None
    index = {name: i for i, name in enumerate(names)}
    M = len(names)
    P = np.zeros((M, M))
    entry = None
    declared: set[str] = set()
    for src, row in routing.items():
        if not isinstance(row, Mapping):
            raise ValidationError(
                f"{context}[{src!r}] must map destination names to "
                f"probabilities, got {type(row).__name__}"
            )
        if open_chain and src == SOURCE_NAME:
            entry = np.zeros(M)
            for dst, prob in row.items():
                if dst not in index:
                    raise ValidationError(
                        f"{context}[{SOURCE_NAME!r}]: unknown entry station "
                        f"{dst!r}; stations are {names}"
                    )
                entry[index[dst]] = float(prob)
            continue
        if src not in index:
            extras = f" (or {SOURCE_NAME!r})" if open_chain else ""
            raise ValidationError(
                f"{context}: unknown source station {src!r}; stations are "
                f"{names}{extras}"
            )
        declared.add(src)
        sink_mass = 0.0
        for dst, prob in row.items():
            if open_chain and dst == SINK_NAME:
                sink_mass += float(prob)
                continue
            if dst not in index:
                extras = f" (or {SINK_NAME!r})" if open_chain else ""
                raise ValidationError(
                    f"{context}[{src!r}]: unknown destination {dst!r}; "
                    f"stations are {names}{extras}"
                )
            P[index[src], index[dst]] = float(prob)
        if open_chain:
            total = P[index[src]].sum() + sink_mass
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"{context}[{src!r}]: open routing rows must sum to 1 "
                    f"including the {SINK_NAME!r} column, got {total:.6g} "
                    f"(add an explicit 'sink: p' entry for the exit mass)"
                )
    return P, entry, declared


def _open_chain_from_spec(
    spec: Mapping[str, Any], key: str, names: "list[str]", kind: str
) -> "tuple[np.ndarray, Any]":
    """Compile the open chain of an open or mixed spec.

    ``spec[key]`` is the chain's routing; its entry distribution is the
    ``source`` row or the spec's ``entry`` key (exactly one of them).
    Every station the chain can reach must then declare a routing row:
    an absent row would compile to a zero row, i.e. a silent 100% exit
    to the sink, so a forgotten exit edge is a compile error, never a
    silent leak (declared rows are summed in :func:`_routing_from_spec`).
    Reachability comes from
    :func:`repro.network.routing.open_reachable_stations`.

    Returns
    -------
    tuple
        ``(P, entry)``: the substochastic routing matrix and the entry
        distribution (a vector, or the ``entry`` key as given).
    """
    from repro.network.population import resolve_entry
    from repro.network.routing import open_reachable_stations

    routing, entry, declared = _routing_from_spec(
        _require(spec, key, "spec"), names, open_chain=True, context=key
    )
    if "entry" in spec:
        if entry is not None:
            raise ValidationError(
                f"spec declares both a {SOURCE_NAME!r} {key} row and an "
                "'entry' key; give the entry distribution once"
            )
        entry = spec["entry"]
    elif entry is None:
        raise ValidationError(
            f"{kind} spec needs an entry distribution: give a {SOURCE_NAME!r} "
            f"row in {key} or an 'entry' key"
        )
    if declared is not None:  # the explicit-matrix form declares every row
        reachable = open_reachable_stations(routing, resolve_entry(entry, names))
        for k in sorted(reachable):
            if names[k] not in declared:
                raise ValidationError(
                    f"{key}: station {names[k]!r} is reachable from the "
                    "source but declares no routing row; add its sink edge "
                    f"(e.g. {names[k]!r}: {{{SINK_NAME}: 1.0}})"
                )
    return routing, entry


def _spec_kind(spec: Mapping[str, Any]) -> str:
    """Resolve (or infer) the ``kind`` discriminator of a network spec.

    Explicit ``kind: closed|open|mixed`` wins; otherwise the kind is
    inferred from which of ``population``/``arrivals`` are present, so
    pre-redesign closed specs compile unchanged.
    """
    has_pop = "population" in spec
    has_arr = "arrivals" in spec
    inferred = (
        "mixed" if (has_pop and has_arr)
        else "open" if has_arr
        else "closed"
    )
    kind = str(spec.get("kind", inferred)).lower()
    if kind not in ("closed", "open", "mixed"):
        raise ValidationError(
            f"spec: unknown kind {kind!r}; expected closed, open, or mixed"
        )
    if kind == "closed" and has_arr:
        raise ValidationError(
            "spec: kind 'closed' but an 'arrivals' key is present; drop it "
            "or declare kind: open|mixed"
        )
    if kind in ("open", "mixed") and not has_arr:
        raise ValidationError(
            f"spec: kind {kind!r} needs an 'arrivals' distribution spec"
        )
    if kind == "open" and has_pop:
        raise ValidationError(
            "spec: kind 'open' takes no 'population' (did you mean mixed?)"
        )
    if kind in ("closed", "mixed") and not has_pop:
        raise ValidationError(f"spec: kind {kind!r} needs a 'population'")
    return kind


def network_from_spec(spec: Mapping[str, Any]) -> Network:
    """Compile a declarative spec to a validated :class:`Network`.

    Parameters
    ----------
    spec:
        Mapping with ``stations`` (list of station specs) and ``routing``
        (name-keyed mapping or explicit matrix), plus kind-dependent keys:
        ``population`` (closed/mixed), ``arrivals`` — a distribution spec
        for the external MAP — and, for open chains, a ``source`` row and
        ``sink`` destinations in the routing (rows sum to 1 including the
        sink column); mixed specs add ``open_routing`` for the open chain.
        An explicit ``kind: closed|open|mixed`` is optional — it is
        inferred from which keys are present.  Extra keys (``name``,
        ``description``, ...) are ignored, so scenario documents compile
        as-is.

    Returns
    -------
    Network
        The compiled network (validation errors propagate, including the
        open-chain stability check ``rho_k < 1``).
    """
    if not isinstance(spec, Mapping):
        raise ValidationError(f"spec must be a mapping, got {type(spec).__name__}")
    kind = _spec_kind(spec)
    station_specs = _require(spec, "stations", "spec")
    if not isinstance(station_specs, (list, tuple)) or not station_specs:
        raise ValidationError("spec: 'stations' must be a non-empty list")
    stations = [_station_from_spec(s) for s in station_specs]
    names = [s.name for s in stations]
    if kind != "closed":
        for reserved in (SOURCE_NAME, SINK_NAME):
            if reserved in names:
                raise ValidationError(
                    f"spec: station name {reserved!r} is reserved in "
                    f"{kind} networks (it denotes the external "
                    f"{'entry' if reserved == SOURCE_NAME else 'exit'})"
                )

    if kind == "closed":
        routing, _, _ = _routing_from_spec(_require(spec, "routing", "spec"), names)
        return Network(stations, routing, int(_require(spec, "population", "spec")))

    arrivals = service_from_spec(_require(spec, "arrivals", "spec"))
    if kind == "open":
        routing, entry = _open_chain_from_spec(spec, "routing", names, kind)
        return Network(stations, routing, OpenArrivals(arrivals, entry=entry))

    # mixed: primary routing for the closed chain, open_routing for the open
    routing, _, _ = _routing_from_spec(_require(spec, "routing", "spec"), names)
    open_routing, entry = _open_chain_from_spec(spec, "open_routing", names, kind)
    population = Mixed(
        Closed(int(_require(spec, "population", "spec"))),
        OpenArrivals(arrivals, entry=entry),
    )
    return Network(stations, routing, population, open_routing=open_routing)


def _routing_to_spec(
    P: np.ndarray,
    names: "list[str]",
    entry: "np.ndarray | None" = None,
    open_chain: bool = False,
) -> dict:
    """Render a routing matrix as a name-keyed mapping.

    Open chains render a ``source`` row from the entry vector and explicit
    ``sink`` masses so every declared row sums to 1 including the sink
    column.  Stations the open chain cannot reach (mixed networks'
    closed-only stations) have all-zero rows and render *no* row at all —
    emitting a synthetic ``sink: 1.0`` edge for them would assert routing
    that does not exist.
    """
    from repro.network.routing import open_reachable_stations

    routing: dict[str, dict[str, float]] = {}
    reachable = None
    if open_chain and entry is not None:
        routing[SOURCE_NAME] = {
            names[j]: float(entry[j]) for j in range(len(names)) if entry[j] != 0.0
        }
        reachable = open_reachable_stations(P, entry)
    for i, src in enumerate(names):
        row = {
            names[j]: float(P[i, j]) for j in range(len(names)) if P[i, j] != 0.0
        }
        if open_chain:
            if not row and reachable is not None and i not in reachable:
                continue  # closed-only station: no open row to declare
            exit_mass = 1.0 - float(P[i].sum())
            if exit_mass > 1e-12:
                row[SINK_NAME] = exit_mass
        if row:
            routing[src] = row
    return routing


def network_to_spec(network: Network, name: str | None = None) -> dict:
    """Render a network as a declarative spec (the inverse of compile).

    Closed networks render exactly as before the unified-``Network``
    redesign (no ``kind`` key), so existing rendered specs and their
    fingerprints are byte-stable.  Open and mixed networks add ``kind``,
    ``arrivals``, and ``source``/``sink`` routing rows.

    Parameters
    ----------
    network:
        The network to render.
    name:
        Optional scenario name recorded in the spec header.

    Returns
    -------
    dict
        A spec whose compilation fingerprints identically to ``network``.
    """
    kind = network.kind
    spec: dict[str, Any] = {}
    if name is not None:
        spec["name"] = name
    if kind != "closed":
        spec["kind"] = kind
    if kind in ("closed", "mixed"):
        spec["population"] = int(network.population)
    if kind != "closed":
        spec["arrivals"] = service_to_spec(network.arrivals)
    stations = []
    for st in network.stations:
        entry: dict[str, Any] = {
            "name": st.name,
            "kind": st.kind,
            "service": service_to_spec(st.service),
        }
        if st.kind == "multiserver":
            entry["servers"] = int(st.servers)
        stations.append(entry)
    spec["stations"] = stations
    names = [st.name for st in network.stations]
    P = np.asarray(network.routing)
    if kind == "open":
        spec["routing"] = _routing_to_spec(
            P, names, entry=network.entry, open_chain=True
        )
    else:
        spec["routing"] = _routing_to_spec(P, names)
    if kind == "mixed":
        spec["open_routing"] = _routing_to_spec(
            np.asarray(network.open_routing), names,
            entry=network.entry, open_chain=True,
        )
    return spec


# --------------------------------------------------------------------- #
# YAML file format
# --------------------------------------------------------------------- #
def load_spec(source: str) -> dict:
    """Parse a YAML spec document (a path or an inline YAML string).

    Parameters
    ----------
    source:
        Path to a ``.yaml``/``.yml`` file, or the YAML text itself.  A
        newline-free string that *looks* like a path (a ``.yaml``/``.yml``
        suffix or a path separator) but names no existing file raises a
        file-not-found error rather than being parsed as inline YAML —
        a typo'd path should never produce a confusing parse error.

    Returns
    -------
    dict
        The parsed spec tree (compile it with :func:`network_from_spec`).
    """
    import os

    yaml = _yaml()
    if "\n" not in source and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    elif "\n" not in source and (
        source.endswith((".yaml", ".yml")) or os.sep in source
    ):
        raise ValidationError(f"spec file not found: {source}")
    else:
        doc = yaml.safe_load(source)
    if not isinstance(doc, dict):
        raise ValidationError(
            f"YAML spec must be a mapping document, got {type(doc).__name__}"
        )
    return doc


def dump_spec(spec: Mapping[str, Any]) -> str:
    """Serialize a spec tree to canonical YAML text.

    Parameters
    ----------
    spec:
        The spec tree (e.g. from :func:`network_to_spec`).

    Returns
    -------
    str
        YAML text; floats round-trip exactly (Python's shortest-repr float
        formatting), so fingerprints survive dump/load cycles.
    """
    yaml = _yaml()
    return yaml.safe_dump(dict(spec), sort_keys=False, default_flow_style=None)
