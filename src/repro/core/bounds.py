"""User-facing bound computation — the paper's headline methodology.

``bound_metric`` returns exact lower/upper bounds on a single performance
index of a closed MAP network; ``solve_bounds`` computes the standard set
(per-station utilization/throughput/mean queue length, system throughput,
response time) in one shot, reusing the assembled constraint system.

Response-time bounds follow the paper's Little's-law route:
``R_min = N / X_max`` and ``R_max = N / X_min``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import ConstraintSystem, build_constraints
from repro.core.lp import optimize_metric
from repro.core.objectives import LinearMetric, system_throughput_metric
from repro.network.model import Network, require_closed

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


def bound_metric(
    network: Network,
    metric: LinearMetric,
    system: ConstraintSystem | None = None,
) -> Interval:
    """Exact [min, max] of a linear metric over the marginal polytope."""
    require_closed(network, "lp")
    system = system or build_constraints(network)
    lo = optimize_metric(system, metric, "min").value
    hi = optimize_metric(system, metric, "max").value
    if lo > hi:  # round-off on a degenerate (point) interval
        lo, hi = hi, lo
    return Interval(lower=lo, upper=hi)


def response_time_bounds(
    network: Network,
    reference: int = 0,
    system: ConstraintSystem | None = None,
    triples: bool | None = None,
) -> Interval:
    """Response-time bounds via Little's law on system-throughput bounds."""
    require_closed(network, "lp")
    system = system or build_constraints(network, triples=triples)
    vi = system.vi
    x_int = bound_metric(network, system_throughput_metric(network, vi, reference), system)
    N = network.population
    return Interval(lower=N / x_int.upper, upper=N / x_int.lower)


def solve_bounds(
    network: Network,
    reference: int = 0,
    include_redundant: bool = False,
    triples: bool | None = None,
) -> BoundsResult:
    """Bounds on the standard metric set (one constraint assembly, 6M LPs).

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
