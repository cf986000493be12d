"""LP front end: min/max of a linear metric over the marginal polytope.

The paper reports interior-point solve times (10 MAP(2) queues, N = 50,
about four minutes in 2008); we solve the same programs through HiGHS, on
the engine :func:`repro.core.lpbackend.make_lp_engine` picks: the
persistent HiGHS model whenever scipy's binding imports, else stateless
``scipy.optimize.linprog``.  The ``benchmarks/test_bench_lp_scaling.py``
harness reproduces the scalability claim of Section 2.

Backend choice is provenance, not identity: both engines answer with the
same optima to LP tolerance, so cached results never fork on it (see
:mod:`repro.runtime.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.constraints import ConstraintSystem
from repro.core.lpbackend import (
    _IPM_THRESHOLD,  # noqa: F401  (re-exported; the single tuned definition)
    choose_lp_method,
    make_lp_engine,
)
from repro.core.objectives import LinearMetric

__all__ = ["LPSolution", "choose_lp_method", "optimize_metric"]


@dataclass(frozen=True)
class LPSolution:
    """Optimal value (and argument) of one LP solve."""

    value: float
    x: np.ndarray
    sense: str  # "min" | "max"
    status: int
    n_iterations: int
    #: HiGHS algorithm that actually produced the optimum — the requested
    #: method, or the retry-ladder step that succeeded.
    method_used: str = ""


def optimize_metric(
    system: ConstraintSystem,
    metric: LinearMetric,
    sense: str,
    method: str = "auto",
    backend: str = "auto",
) -> LPSolution:
    """Optimize ``metric`` over the constraint polytope.

    Parameters
    ----------
    system:
        Assembled exact-constraint system.
    metric:
        Linear objective.
    sense:
        ``"min"`` or ``"max"``.
    method:
        HiGHS algorithm: ``"highs"`` (dual simplex), ``"highs-ipm"``
        (interior point) or ``"auto"``, which follows
        :func:`~repro.core.lpbackend.choose_lp_method`: dual simplex for
        small systems, interior point past ``_IPM_THRESHOLD`` variables
        (mirroring the paper's interior-point choice for its large
        instances).  Any other method raises ``ValueError``.
    backend:
        ``"auto"`` (persistent HiGHS when scipy's binding imports, stateless
        scipy otherwise), ``"highs"``, or ``"scipy"``; see
        :func:`~repro.core.lpbackend.make_lp_engine`.  Every call builds a
        fresh engine and solves once.  Batched callers should use
        :class:`repro.runtime.batch.BatchLPSolver`, which keeps the
        persistent model alive across solves and reuses the min's basis
        for the max.

    Raises
    ------
    SolverError
        If the LP is infeasible/unbounded — with exact constraints this
        indicates a modeling bug, never a property of the network, so it is
        surfaced loudly rather than returned as NaN.
    """
    info = make_lp_engine(system, method, backend).solve(
        metric.dense(system.n_variables), sense
    )
    return LPSolution(
        value=float(info.value + metric.constant),
        x=info.x,
        sense=sense,
        status=0,
        n_iterations=info.n_iterations,
        method_used=info.method_used,
    )
