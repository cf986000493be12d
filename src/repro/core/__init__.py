"""The paper's contribution: LP performance bounds from marginal balances.

Workflow::

    from repro.core import solve_bounds
    result = solve_bounds(network)          # utilization/throughput/qlen/R
    result.response_time.lower, result.response_time.upper

or metric-by-metric with :func:`bound_metric` and the objective builders in
:mod:`repro.core.objectives`.
"""

from repro.core.variables import VariableIndex
from repro.core.assembly import (
    AssemblyCache,
    AssemblyPlan,
    assemble,
    canonical_form,
    get_assembly_cache,
    topology_key,
)
from repro.core.constraints import (
    ConstraintSystem,
    build_constraints,
    build_constraints_reference,
)
from repro.core.objectives import (
    LinearMetric,
    throughput_metric,
    utilization_metric,
    idle_probability_metric,
    queue_length_metric,
    queue_length_moment_metric,
    system_throughput_metric,
)
from repro.core.bounds import (
    Interval,
    BoundsResult,
    bound_metric,
    solve_bounds,
    response_time_bounds,
)
from repro.core.projection import project_exact_solution, verify_exactness

__all__ = [
    "VariableIndex",
    "AssemblyCache",
    "AssemblyPlan",
    "ConstraintSystem",
    "assemble",
    "build_constraints",
    "build_constraints_reference",
    "canonical_form",
    "get_assembly_cache",
    "topology_key",
    "LinearMetric",
    "throughput_metric",
    "utilization_metric",
    "idle_probability_metric",
    "queue_length_metric",
    "queue_length_moment_metric",
    "system_throughput_metric",
    "Interval",
    "BoundsResult",
    "bound_metric",
    "solve_bounds",
    "response_time_bounds",
    "project_exact_solution",
    "verify_exactness",
]
