"""Derive a matrix-free Kronecker generator from a closed MAP network.

This is the glue between the network layer and the generic operator
kernel in :mod:`repro.markov.kronop`: it extracts the per-station factor
data (MAP matrices, routing row, level-dependent rate scales, and the
precomputed composition shifts for every routed move) and hands it to
:class:`~repro.markov.kronop.KroneckerGenerator`.

Factor extraction costs ``O(M^2 * Sc)`` — one ``rank()`` per routed
``(j, k)`` pair over the busy compositions — and is the only place the
composition space is enumerated.  Past that, the operator never touches
the network again.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.markov.kronop import KroneckerGenerator, MoveTerm, StationFactor
from repro.network.model import Network, require_closed
from repro.network.statespace import NetworkStateSpace

__all__ = ["kronecker_generator"]


def kronecker_generator(
    network: Network,
    space: NetworkStateSpace | None = None,
    validate: bool = True,
) -> KroneckerGenerator:
    """Matrix-free generator of ``network`` on its joint state space.

    Represents the same CTMC as
    :func:`repro.network.exact.build_generator` while storing only
    ``O(S + M * Sc)`` data.  With ``validate=True`` (one matvec) the
    conservation invariant ``Q @ 1 = 0`` is checked, mirroring the rowsum
    validation the dense path performs in ``steady_state_ctmc``.
    """
    require_closed(network, "exact")
    if space is None:
        space = NetworkStateSpace(network)
    elif space.network is not network and (
        space.comp.total != network.population
        or tuple(space.phase_dims) != tuple(network.phase_orders)
    ):
        raise ValueError("prebuilt state space does not match the network")
    comps = space.comp.states
    routing = network.routing

    telemetry = obs.get_telemetry()
    with telemetry.span(
        "kron.build",
        n_stations=network.n_stations,
        n_comps=int(space.comp.size),
        n_phase=int(space.n_phase),
        n_states=int(space.size),
    ) as span:
        factors = []
        for j, st_j in enumerate(network.stations):
            scale = np.asarray(
                st_j.rate_scale(comps[:, j]), dtype=float
            )
            busy = np.nonzero(comps[:, j] >= 1)[0]
            moves = []
            for k in range(network.n_stations):
                if k == j or routing[j, k] <= 0.0:
                    continue
                moved = comps[busy].copy()
                moved[:, j] -= 1
                moved[:, k] += 1
                moves.append(
                    MoveTerm(
                        target=k,
                        prob=float(routing[j, k]),
                        dst=space.comp.rank(moved),
                    )
                )
            factors.append(
                StationFactor(
                    station=j,
                    D0=np.asarray(st_j.service.D0, dtype=float),
                    D1=np.asarray(st_j.service.D1, dtype=float),
                    p_row=np.asarray(routing[j], dtype=float),
                    scale=scale,
                    busy=busy,
                    moves=tuple(moves),
                )
            )
        op = KroneckerGenerator(
            space.phase_dims, factors, phase_digits=space.phase_digits
        )
        span.set("nbytes", op.nbytes)

    if validate:
        residual = op.rowsum_residual()
        rate_scale = max(float(-op.diagonal().min()), 1.0)
        if residual > 1e-8 * rate_scale:
            raise ValueError(
                f"Kronecker generator violates conservation: max row sum "
                f"{residual:.3e}"
            )
    return op
