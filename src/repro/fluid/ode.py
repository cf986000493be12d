"""Stiff integration of the fluid field with scipy's ``solve_ivp``.

The fluid system is stiff whenever service rates are imbalanced or MAP
phase processes mix fast relative to the queueing dynamics (exactly the
bursty scenarios this repository studies), so the default method is BDF
with the field's analytic Jacobian; ``Radau`` is available for the very
stiff end and the explicit ``RK45`` for smooth, small-horizon problems.
Bottleneck switches — occupancies crossing a server count, where the
field has a kink — are registered as (non-terminal) scipy events so the
integrator lands steps on them and their times are reported.

Telemetry: the whole integration runs under a ``fluid.integrate`` span;
``fluid.field_eval`` counts right-hand-side evaluations and
``fluid.ode_steps`` the accepted solver steps.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.fluid.field import FluidField
from repro.utils.errors import SolverError, ValidationError

__all__ = ["integrate_fluid"]

#: Default relative/absolute tolerances.  Occupancies range over
#: ``[0, N]`` while phase coordinates live in ``[0, 1]``; the absolute
#: floor is set for the phase block and the relative tolerance carries
#: the large-N occupancies.
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10

_METHODS = ("BDF", "Radau", "RK45")


def integrate_fluid(
    field: FluidField,
    x0: np.ndarray,
    times,
    method: str = "auto",
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> dict:
    """Integrate the fluid ODE from ``x0`` and sample it on ``times``.

    Parameters
    ----------
    field:
        The :class:`~repro.fluid.field.FluidField` drift.
    x0:
        Packed initial state (occupancies + phase blocks) at ``t = 0``.
    times:
        Requested sample times (nonnegative, any order; the trajectory is
        returned in the caller's order).
    method:
        ``"auto"`` (BDF), ``"BDF"``, ``"Radau"``, or ``"RK45"``.  The
        implicit methods receive the analytic Jacobian.

    Returns
    -------
    dict
        ``states`` — array of shape ``(len(times), field.dim)``;
        ``events`` — per-station lists of bottleneck-switch times;
        ``stats`` — solver diagnostics (steps, evaluations, method).
    """
    from scipy.integrate import solve_ivp

    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValidationError("fluid integration needs at least one time")
    if np.any(times < 0.0):
        raise ValidationError("fluid integration times must be nonnegative")
    if method == "auto":
        method = "BDF"
    if method not in _METHODS:
        raise ValidationError(
            f"unknown fluid ODE method {method!r}; use one of "
            f"{'/'.join(_METHODS)} or 'auto'"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValidationError(
            f"initial state has shape {x0.shape}, field dimension is "
            f"{field.dim}"
        )

    tele = obs.get_telemetry()
    with tele.span(
        "fluid.integrate", method=method, dim=field.dim, points=int(times.size)
    ) as span:
        evals_before = field.field_evals
        horizon = float(times.max())
        events = field.switch_events()
        states = np.empty((times.size, field.dim))
        event_times: list[list[float]] = [[] for _ in events]
        stats = {"method": method, "steps": 0, "field_evals": 0, "jac_evals": 0}

        if horizon <= 0.0:
            states[:] = x0  # every requested time is t = 0
        else:
            # t_eval must be sorted and inside the span; t = 0 entries
            # are served by x0 directly and duplicates collapse (the
            # trajectory is reindexed to the caller's order afterwards).
            t_eval = np.unique(times[times > 0.0])
            kwargs = {}
            if method in ("BDF", "Radau"):
                kwargs["jac"] = field.jacobian
            sol = solve_ivp(
                field,
                (0.0, horizon),
                x0,
                method=method,
                t_eval=t_eval,
                events=events or None,
                rtol=rtol,
                atol=atol,
                **kwargs,
            )
            if not sol.success:
                raise SolverError(
                    f"fluid ODE integration failed ({method}): {sol.message}"
                )
            by_time = {float(t): sol.y[:, j] for j, t in enumerate(sol.t)}
            for i, t in enumerate(times):
                states[i] = x0 if t <= 0.0 else by_time[float(t)]
            if sol.t_events is not None:
                for i, ts in enumerate(sol.t_events):
                    event_times[i] = [float(t) for t in ts]
            stats["steps"] = int(sol.t.size)
            stats["field_evals"] = int(sol.nfev)
            stats["jac_evals"] = int(getattr(sol, "njev", 0) or 0)

        # Flush the field's own eval counter (covers callbacks scipy made
        # beyond nfev bookkeeping, e.g. event refinement).
        delta = field.field_evals - evals_before
        if delta:
            tele.counter("fluid.field_eval", delta)
        if stats["steps"]:
            tele.counter("fluid.ode_steps", stats["steps"])
        span.set("steps", stats["steps"])
        span.set("field_evals", delta)
        switches = {
            f"station_{ev.station}": ts
            for ev, ts in zip(events, event_times)
            if ts
        }
        return {"states": states, "events": switches, "stats": stats}
