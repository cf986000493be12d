"""Routing matrices, visit ratios, and traffic equations.

Closed chains use row-stochastic ``(M, M)`` matrices (jobs are conserved);
open chains use *substochastic* rows whose deficit ``1 - sum(P[j])`` is the
probability of exiting to the sink.  The augmented matrix — ``P`` plus the
implicit sink column — is row-stochastic by construction, which is the
invariant :func:`validate_open_routing` enforces.

The graph checks (strong connectivity, reachability from the source,
drainage to the sink) walk the boolean adjacency of :func:`routing_graph`
directly: these graphs have a handful of stations, so a plain walk over
its rows costs less than building a graph object or a sparse matrix.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError

__all__ = [
    "validate_routing",
    "validate_open_routing",
    "visit_ratios",
    "open_visit_ratios",
    "open_reachable_stations",
    "routing_graph",
]

#: Probability below which an edge/entry is treated as absent in
#: reachability analyses (shared by model and spec validation).
EDGE_TOL = 1e-15


def _reach(adj: np.ndarray, start: np.ndarray) -> "set[int]":
    """Nodes reachable from the nodes of the boolean mask ``start`` (those
    included) along the edges of the boolean adjacency ``adj``."""
    rows = adj.tolist()
    seen = set(np.flatnonzero(start).tolist())
    stack = list(seen)
    while stack:
        for k, edge in enumerate(rows[stack.pop()]):
            if edge and k not in seen:
                seen.add(k)
                stack.append(k)
    return seen


def open_reachable_stations(P: np.ndarray, entry: np.ndarray) -> "set[int]":
    """Stations reachable from the external source over an open routing.

    The single source of truth for "which stations can the open chain
    visit": :func:`validate_open_routing` and the spec compiler's
    declared-row check (which builder-made networks go through too) build
    on this, so the no-silent-leak invariant lives in one place.

    Parameters
    ----------
    P:
        Substochastic internal routing matrix.
    entry:
        ``(M,)`` entry probability vector.

    Returns
    -------
    set[int]
        Indices of stations reachable from the source.
    """
    return _reach(routing_graph(P), np.asarray(entry, dtype=float) > EDGE_TOL)


def validate_routing(P: np.ndarray, n_stations: int) -> np.ndarray:
    """Validate and return the routing matrix as a float array.

    Requirements: shape ``(M, M)``, entries in [0, 1], rows sum to 1 (a
    closed network conserves jobs), and the induced directed graph is
    strongly connected (every station reachable from every other — otherwise
    the long-run behavior depends on the initial placement of jobs and the
    network decomposes).
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (n_stations, n_stations):
        raise ValidationError(
            f"routing matrix must be {n_stations}x{n_stations}, got {P.shape}"
        )
    if np.any(P < -1e-12) or np.any(P > 1.0 + 1e-12):
        raise ValidationError("routing probabilities must lie in [0, 1]")
    rowsum = P.sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > 1e-9):
        raise ValidationError(
            f"routing rows must sum to 1 (closed network); got row sums {rowsum}"
        )
    adj = routing_graph(P)
    root = np.arange(n_stations) == 0
    if not len(_reach(adj, root)) == n_stations == len(_reach(adj.T, root)):
        raise ValidationError("routing graph must be strongly connected")
    return np.clip(P, 0.0, 1.0)


def validate_open_routing(
    P: np.ndarray,
    entry: np.ndarray,
    n_stations: int,
    require_full_coverage: bool = True,
) -> np.ndarray:
    """Validate an open chain's substochastic routing matrix.

    Requirements: shape ``(M, M)``, entries in [0, 1], every row sums to at
    most 1 (the deficit is the sink column, so the augmented matrix is
    row-stochastic), at least some exit probability exists, and the sink is
    reachable from every station the open chain can visit (no trapped
    subnetwork — jobs caught in one would accumulate without bound).  With
    ``require_full_coverage`` every station must additionally be reachable
    from the entry distribution; mixed networks pass ``False`` because some
    of their stations legitimately serve only the closed chain.

    Parameters
    ----------
    P:
        Substochastic internal routing matrix.
    entry:
        ``(M,)`` entry probability vector (resolved, sums to 1).
    n_stations:
        Number of stations M.
    require_full_coverage:
        Demand every station be reachable from the source (pure open
        networks, where an unreachable station is dead weight).

    Returns
    -------
    numpy.ndarray
        The validated matrix (clipped to [0, 1], read-only semantics left
        to the caller).
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (n_stations, n_stations):
        raise ValidationError(
            f"routing matrix must be {n_stations}x{n_stations}, got {P.shape}"
        )
    if np.any(P < -1e-12) or np.any(P > 1.0 + 1e-12):
        raise ValidationError("routing probabilities must lie in [0, 1]")
    rowsum = P.sum(axis=1)
    if np.any(rowsum > 1.0 + 1e-9):
        raise ValidationError(
            "open routing rows (including the sink column) must sum to at "
            f"most 1; got row sums {rowsum}"
        )
    exit_prob = 1.0 - rowsum
    if exit_prob.max() < 1e-12:
        raise ValidationError(
            "open routing has no exit: at least one row must route "
            "probability to the sink"
        )
    reach_from_source = open_reachable_stations(P, entry)
    unreachable = [k for k in range(n_stations) if k not in reach_from_source]
    if require_full_coverage and unreachable:
        raise ValidationError(
            f"stations {unreachable} are unreachable from the external "
            "source; remove them or fix the routing"
        )
    # Drain check over visited stations only: a station drains when it
    # reaches (or is) a station with an exit to the sink.
    drains = _reach(routing_graph(P).T, exit_prob > 1e-12)
    no_drain = [k for k in sorted(reach_from_source) if k not in drains]
    if no_drain:
        raise ValidationError(
            f"the sink is unreachable from stations {no_drain}: jobs routed "
            "there would accumulate without bound (trapped subnetwork)"
        )
    return np.clip(P, 0.0, 1.0)


def routing_graph(P: np.ndarray) -> np.ndarray:
    """Boolean adjacency of the routing graph: entry ``[j, k]`` is True
    (an edge j->k) wherever ``P[j, k] > EDGE_TOL``."""
    return np.asarray(P, dtype=float) > EDGE_TOL


def visit_ratios(P: np.ndarray, reference: int = 0) -> np.ndarray:
    """Relative visit counts ``v`` solving ``v = v P`` with ``v[reference]=1``.

    ``v[k]`` is the mean number of visits a job pays to station ``k``
    between consecutive visits to the reference station; service demands
    are ``D_k = v_k * E[S_k]``.
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    if not 0 <= reference < M:
        raise ValidationError(f"reference station {reference} out of range")
    A = (P.T - np.eye(M)).copy()
    A[reference, :] = 0.0
    A[reference, reference] = 1.0
    b = np.zeros(M)
    b[reference] = 1.0
    v = np.linalg.solve(A, b)
    if np.any(v < -1e-9):
        raise ValidationError("visit ratios came out negative; routing is invalid")
    return np.clip(v, 0.0, None)


def open_visit_ratios(P: np.ndarray, entry: np.ndarray) -> np.ndarray:
    """Traffic-equation visits ``v = e + v P``, i.e. ``v = e (I - P)^-1``.

    ``v[k]`` is the mean number of visits one external arrival pays to
    station ``k`` before exiting to the sink; per-station arrival rates are
    ``lambda_k = lambda_ext * v[k]``.

    Parameters
    ----------
    P:
        Substochastic open routing matrix (validated).
    entry:
        ``(M,)`` entry probability vector.

    Returns
    -------
    numpy.ndarray
        ``(M,)`` visit vector (entries may exceed 1 under feedback).
    """
    P = np.asarray(P, dtype=float)
    M = P.shape[0]
    try:
        v = np.linalg.solve(np.eye(M) - P.T, np.asarray(entry, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            "traffic equations are singular: the open routing does not "
            "drain to the sink"
        ) from exc
    if np.any(v < -1e-9):
        raise ValidationError("open visit ratios came out negative")
    return np.clip(v, 0.0, None)
