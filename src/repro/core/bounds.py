"""User-facing bound computation — the paper's headline methodology.

``bound_metric`` returns exact lower/upper bounds on a single performance
index of a closed MAP network; ``solve_bounds`` computes the standard set
(per-station utilization/throughput/mean queue length, system throughput,
response time) in one shot, reusing the assembled constraint system.

Response-time bounds follow the paper's Little's-law route:
``R_min = N / X_max`` and ``R_max = N / X_min``.

All three solve on :class:`repro.runtime.batch.BatchLPSolver`, the one
code path that solves an LP bound; each builds its constraint system from
the network it is given, so no bound is ever taken over another model's
polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objectives import LinearMetric
from repro.network.model import Network

__all__ = ["Interval", "BoundsResult", "bound_metric", "solve_bounds", "response_time_bounds"]


@dataclass(frozen=True)
class Interval:
    """A certified [lower, upper] bound pair."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-9 * max(1.0, abs(self.upper)):
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float, atol: float = 1e-7) -> bool:
        """True if ``value`` lies inside the interval (with tolerance)."""
        return self.lower - atol <= value <= self.upper + atol

    def relative_width(self) -> float:
        """Width relative to the midpoint (tightness measure)."""
        mid = abs(self.midpoint)
        return self.width / mid if mid > 0 else float("inf")


@dataclass
class BoundsResult:
    """Bounds on the standard metric set of a network."""

    network: Network
    utilization: list[Interval]
    throughput: list[Interval]
    queue_length: list[Interval]
    system_throughput: Interval
    response_time: Interval

    def station_summary(self) -> str:
        """ASCII table of per-station bounds (experiment harness output)."""
        from repro.utils.tables import format_table

        rows = []
        for k, st in enumerate(self.network.stations):
            rows.append(
                [
                    st.name,
                    self.utilization[k].lower,
                    self.utilization[k].upper,
                    self.throughput[k].lower,
                    self.throughput[k].upper,
                    self.queue_length[k].lower,
                    self.queue_length[k].upper,
                ]
            )
        return format_table(
            ["station", "U.lo", "U.hi", "X.lo", "X.hi", "Q.lo", "Q.hi"], rows
        )


def bound_metric(network: Network, metric: LinearMetric) -> Interval:
    """Exact [min, max] of a linear metric over the marginal polytope.

    ``metric`` must be built on the default variable index of ``network``
    (``VariableIndex(network)``), the index the solver assembles.
    """
    from repro.runtime.batch import BatchLPSolver  # deferred: see solve_bounds

    return BatchLPSolver(network).bound(metric)


def response_time_bounds(
    network: Network, reference: int = 0, *, triples: bool | None = None
) -> Interval:
    """Response-time bounds via Little's law on system-throughput bounds."""
    from repro.runtime.batch import BatchLPSolver  # deferred: see solve_bounds

    solver = BatchLPSolver(network, triples=triples)
    return solver.bound_specs("response_time", reference)["response_time"]


def solve_bounds(
    network: Network,
    reference: int = 0,
    include_redundant: bool = False,
    triples: bool | None = None,
) -> BoundsResult:
    """Bounds on the standard metric set (one constraint assembly, 4M LPs).

    Each station's throughput is its utilization (a queue) or mean queue
    length (a delay) interval times its service rate, not an LP of its own.

    Parameters
    ----------
    network:
        Closed MAP network with queue/delay stations.
    reference:
        Station whose throughput defines system throughput and ``R = N/X``.
    include_redundant:
        Forwarded to :func:`repro.core.constraints.build_constraints`.
    triples:
        Constraint tier selector (None = auto); see
        :func:`repro.core.constraints.build_constraints`.
    """
    # Deferred import: runtime.batch depends on this module for the result
    # types, so the delegation can only be resolved at call time.
    from repro.runtime.batch import BatchLPSolver

    solver = BatchLPSolver(
        network, triples=triples, include_redundant=include_redundant
    )
    return solver.standard_bounds(reference=reference)
