"""Courtois-style decomposition-aggregation baseline.

The paper's Figure 4 shows that "basic Markov chain decomposition
techniques [Courtois 1975], commonly used for the evaluation of
non-product-form networks", become unacceptably inaccurate on
autocorrelated models as the population grows.  This module implements the
classic near-complete-decomposability recipe:

1. treat the (slow) MAP phase processes as frozen: for every joint phase
   configuration ``(h_1, ..., h_M)`` replace each MAP station by an
   exponential station at that phase's conditional completion rate;
2. solve each conditional network exactly (product form / MVA);
3. aggregate: weight conditional metrics by the stationary probability of
   the phase configuration (product of per-station phase distributions).

The recipe is exact in the limit of infinitely slow modulation and ignores
the correlation between phase and queue-length processes otherwise — the
failure mode the figure demonstrates.

All configurations share the routing, the population and the station
kinds, so they are solved together: one MVA recursion over a
``(configurations x stations)`` demand array
(:func:`repro.baselines.mva.mva_recursion`), with the aggregation summed
in configuration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.mva import mva_recursion
from repro.network.model import Network, require_closed
from repro.utils.errors import NotSupportedError, SolverError

__all__ = ["DecompositionResult", "decomposition"]

_MIN_RATE = 1e-9


@dataclass(frozen=True)
class DecompositionResult:
    """Phase-conditional decomposition estimates (approximate!)."""

    network: Network
    system_throughput: float
    throughput: np.ndarray
    utilization: np.ndarray
    queue_length: np.ndarray

    @property
    def response_time(self) -> float:
        return self.network.population / self.system_throughput


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 left to right (``cumsum``, not pairwise ``sum``)."""
    return np.cumsum(values, axis=0)[-1]


def decomposition(network: Network) -> DecompositionResult:
    """Courtois decomposition-aggregation estimate of mean performance.

    Exact when every station is exponential (single phase configuration);
    an *approximation* otherwise, with error growing in population for
    autocorrelated service — reproduced by ``repro.experiments.fig4``.

    The joint configurations run in ``itertools.product`` order (last
    station fastest) and those of zero stationary weight are skipped.  A
    station whose phase has (near-)zero completion rate raises
    :class:`~repro.utils.errors.SolverError`, naming the first such
    (station, phase) of the first configuration that has one; multiserver
    stations raise :class:`~repro.utils.errors.NotSupportedError` unless
    that configuration is the first one.  All configurations are solved in
    one batched MVA recursion; the answers are bit-identical to solving
    each conditional network on its own.
    """
    require_closed(network, "decomposition")
    stations = network.stations
    shape = tuple(st.phases for st in stations)
    # Weight of a configuration: the product of the per-station phase
    # probabilities, multiplied left to right as np.prod would.
    weights = np.ones(1)
    for st in stations:
        weights = (weights[:, None] * st.service.phase_stationary[None, :]).ravel()
    configs = np.stack(np.unravel_index(np.arange(weights.size), shape), axis=1)
    keep = weights > 0.0
    if not keep.any():
        raise SolverError("decomposition produced zero total weight")
    weights, configs = weights[keep], configs[keep]
    rates = np.stack(
        [st.service.phase_event_rates[configs[:, k]] for k, st in enumerate(stations)],
        axis=1,
    )

    silent = rates <= _MIN_RATE
    if any(st.kind == "multiserver" for st in stations) and not silent[0].any():
        raise NotSupportedError("multiserver stations are not supported by mva()")
    if silent.any():
        c = int(np.argmax(silent.any(axis=1)))
        k = int(np.argmax(silent[c]))
        raise SolverError(
            f"station {stations[k].name!r} has (near-)zero completion rate in phase "
            f"{int(configs[c, k])}; the conditional product-form network is undefined — a "
            "known failure mode of decomposition-aggregation"
        )

    v = network.visit_ratios
    demands = v * (1.0 / rates)
    is_delay = np.array([st.kind == "delay" for st in stations])
    X, Q = mva_recursion(demands, is_delay, network.population)
    total_weight = _ordered_sum(weights)
    w = weights[:, None]
    return DecompositionResult(
        network=network,
        system_throughput=_ordered_sum(weights * X) / total_weight,
        throughput=_ordered_sum(w * (X[:, None] * v)) / total_weight,
        utilization=_ordered_sum(w * np.where(is_delay, 0.0, X[:, None] * demands))
        / total_weight,
        queue_length=_ordered_sum(w * Q) / total_weight,
    )
