"""``repro.fluid`` — phase-aware fluid (mean-field) analysis tier.

Every other solver in the stack walks a population-indexed structure —
the exact CTMC and transient engines enumerate states, the LP bounds
emit ``O(N)`` constraint families, even the matrix-free operator backend
iterates over a state space whose *size* grows with ``N``.  None survive
the ROADMAP's "millions of users".  This package replaces the state
space with a fluid limit whose dimension is ``M + sum_k K_k`` — stations
plus service phases — independent of the population:

* :mod:`repro.fluid.field` derives the phase-aware drift field (and its
  analytic Jacobian) from a closed :class:`~repro.network.model.Network`;
* :mod:`repro.fluid.fixedpoint` solves the fluid steady state in closed
  form (bottleneck laws) and verifies it against the field residual;
* :mod:`repro.fluid.ode` integrates the stiff ODE system with scipy's
  BDF/Radau solvers, detecting bottleneck-switch events;
* :mod:`repro.fluid.solver` is the registry adapter behind
  ``solve(network, method="fluid", ...)``, returning a
  :class:`~repro.fluid.result.FluidResult` (a ``TransientResult``
  subclass, so steady answers and trajectories share one surface).

The derivation and the validation methodology are documented in
``docs/fluid.md``.
"""

from repro.fluid.field import FluidField
from repro.fluid.fixedpoint import FluidFixedPoint, fluid_fixed_point
from repro.fluid.ode import integrate_fluid
from repro.fluid.result import FluidResult
from repro.fluid.solver import solve_fluid

__all__ = [
    "FluidField",
    "FluidFixedPoint",
    "FluidResult",
    "fluid_fixed_point",
    "integrate_fluid",
    "solve_fluid",
]
