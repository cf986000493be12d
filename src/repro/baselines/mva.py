"""Exact Mean Value Analysis for product-form closed networks.

MVA is the classic capacity-planning workhorse the paper positions itself
against: exact for exponential (product-form) networks, structurally unable
to represent temporal dependence.  It provides (a) the "no-ACF model" of
Figure 3, (b) an independent oracle for exponential networks in the test
suite, and (c) the per-phase conditional solver inside the decomposition
baseline: :func:`mva_recursion` runs the recursion for many demand vectors
at once, and :func:`mva` is its one-configuration case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.model import Network, require_closed
from repro.utils.errors import NotSupportedError, ValidationError

__all__ = ["MvaResult", "mva", "mva_recursion"]


@dataclass(frozen=True)
class MvaResult:
    """Exact MVA output at the network's population.

    ``system_throughput`` is normalized to visit ratio 1 at station 0, so it
    is directly comparable with
    :meth:`repro.network.ExactSolution.system_throughput`.
    """

    network: Network
    system_throughput: float
    throughput: np.ndarray
    utilization: np.ndarray
    queue_length: np.ndarray
    residence_time: np.ndarray

    @property
    def response_time(self) -> float:
        """End-to-end response time ``N / X`` (reference station 0)."""
        return self.network.population / self.system_throughput


def mva_recursion(
    demands: np.ndarray, is_delay: np.ndarray, population: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact MVA over populations ``1..N`` for ``C`` demand vectors at once.

    ``demands`` is ``(C, M)``: row ``c`` holds the service demands of one
    product-form network; all rows share the delay mask ``is_delay``
    (``(M,)``) and the population.  Queue stations use the arrival-theorem
    recursion, delay stations contribute constant residence time.  Returns
    ``(X, Q)``: the ``(C,)`` throughputs (visit ratio 1 at station 0) and
    the ``(C, M)`` mean queue lengths at ``population``.  Each row is
    computed with exactly the floating-point operations of a one-row call.
    """
    Q = np.zeros(demands.shape)
    X = np.zeros(demands.shape[0])
    for n in range(1, population + 1):
        R = np.where(is_delay, demands, demands * (1.0 + Q))
        X = n / R.sum(axis=1)
        Q = X[:, None] * R
    return X, Q


def mva(network: Network) -> MvaResult:
    """Exact MVA recursion over populations ``1..N``.

    Requires exponential service everywhere (product form).  Queue stations
    use the arrival-theorem recursion; delay stations contribute constant
    residence time.  Multiserver stations are not supported (load-dependent
    MVA is out of scope for the baselines the paper compares against).
    The recursion is :func:`mva_recursion` with one configuration.
    """
    require_closed(network, "mva")
    for st in network.stations:
        if st.phases != 1:
            raise ValidationError(
                f"MVA requires exponential service; station {st.name!r} has "
                f"{st.phases} phases. Replace MAP stations explicitly (the "
                "'no-ACF' methodology) before calling mva()."
            )
        if st.kind == "multiserver":
            raise NotSupportedError("multiserver stations are not supported by mva()")
    v = network.visit_ratios
    means = np.array([s.mean_service_time for s in network.stations])
    demands = v * means
    is_delay = np.array([s.kind == "delay" for s in network.stations])
    X, Q = mva_recursion(demands[None, :], is_delay, network.population)
    X, Q = X[0], Q[0]
    return MvaResult(
        network=network,
        system_throughput=X,
        throughput=X * v,
        utilization=np.where(is_delay, np.nan, X * demands),
        queue_length=Q,
        residence_time=np.where(is_delay, demands, demands * (1.0 + Q)),
    )
