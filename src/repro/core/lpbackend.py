"""The LP solve engines: one persistent HiGHS model per constraint system.

Every bound of the paper's method is a min and a max LP over the same
marginal-balance polytope, and a standard-metric sweep asks ``4M`` of them
per model (utilization and mean queue length of each of the ``M``
stations; the throughputs follow from those).  Two engines answer those
solves, with one interface,
``solve(c, sense, start=None) -> LPRunInfo``:

``PersistentLP``
    wraps one HiGHS instance over one :class:`ConstraintSystem`.  The model
    is passed to the solver once; each objective swaps only the cost vector
    (``changeColsCost``) and the optimization sense.  ``start`` is a basis
    of the same system (``LPRunInfo.basis`` of an earlier solve, on any
    engine over it): the solve clears the solver, sets that basis and runs
    primal simplex from it.  The constraints never change, so every vertex
    is a primal feasible start for every objective.  With no ``start`` the
    solve is cold: dual simplex with presolve, from nothing.  Interior
    point ignores start bases, so it always runs cold.  It runs on the
    HiGHS binding scipy >= 1.15 vendors for its own ``linprog`` (a private
    module, hence the fallback).  A solve does not depend on what the
    engine solved before: every attempt clears the solver and sets each
    option it uses, and the model runs once on the zero objective when it
    is built, since HiGHS fixes part of a model's numerics at its first
    run.  So engines over one system give the same bits in any order,
    which lets ``BatchLPSolver.bound_specs`` hand the pairs of one model to
    several engines on threads.  An engine is not thread-safe: one thread
    drives it at a time.

``StatelessLP``
    one ``scipy.optimize.linprog`` call per solve; nothing is kept between
    solves and ``start`` is ignored.  It is the only engine when scipy's
    HiGHS binding does not import, and the reference the tests hold the
    persistent engine to.

Neither engine's scipy code loads with this module: the binding probe
(``_highs``, run once per process) and ``linprog`` are imported at first
use, so a process that solves no LP never imports ``scipy.optimize``.

:func:`make_lp_engine` is the one place the engine is chosen: the
persistent one whenever the binding imports, unless ``backend="scipy"``
asks for the stateless one.  Both engines resolve the method with
:func:`choose_lp_method`, walk the same retry ladder (:func:`_ladder`) and
count a solve that needed it the same way.

Measured on the benchmark's LP cells (``docs/performance.md``, "What each
mechanism earns"): the persistent model is ~1.5x faster than stateless
``linprog`` at the same method, and starting each min from one feasible
vertex of the model and each max from its min's optimum (the starts
``BatchLPSolver`` passes) halves the simplex solve time again.  No solve
starts from the basis of another population's model: that is a dual start
from an infeasible basis, and on those cells it cut simplex iterations but
not time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.utils.errors import SolverError

__all__ = [
    "LPRunInfo",
    "PersistentLP",
    "StatelessLP",
    "choose_lp_method",
    "highs_available",
    "highs_impl",
    "make_lp_engine",
]


# ---------------------------------------------------------------------- #
# method selection (shared by both engines)
# ---------------------------------------------------------------------- #
#: Above this variable count, interior point beats HiGHS's dual simplex on
#: these highly degenerate balance polytopes.  Re-measured for the
#: persistent engine: IPM is already ahead at ~850 variables and wins by
#: 4-6x from ~4,000 up (the seed value of 20,000 left M = 10 sweeps on a
#: 6x-slower simplex path).
_IPM_THRESHOLD = 1_000

#: HiGHS ``simplex_strategy`` values, set on every attempt: serial dual
#: simplex (HiGHS 1.12's default, so the first and every later cold solve
#: of an engine run alike) vs primal (a solve from a ``start`` basis).
_SIMPLEX_STRATEGY_DUAL = 1
_SIMPLEX_STRATEGY_PRIMAL = 4

_METHODS = ("auto", "highs", "highs-ipm")


def choose_lp_method(n_variables: int) -> str:
    """Auto method for a cold solve: ``"highs"`` (dual simplex) for small
    systems, ``"highs-ipm"`` (interior point) past ``_IPM_THRESHOLD``."""
    return "highs" if n_variables <= _IPM_THRESHOLD else "highs-ipm"


def _ladder(method: str) -> "tuple[tuple[str, bool], ...]":
    """The attempts of one solve, in order: ``(method, presolve)``.

    HiGHS occasionally reports spurious infeasibility on the ill-conditioned
    instances this polytope produces (high-SCV MAP(2) moments put 4+ orders
    of magnitude between coefficients).  The exact constraints are feasible
    by construction, so a failed solve retries the alternate HiGHS
    algorithm, then simplex with presolve disabled, before giving up.
    """
    alternate = "highs" if method == "highs-ipm" else "highs-ipm"
    return ((method, True), (alternate, True), ("highs", False))


# ---------------------------------------------------------------------- #
# engine choice
# ---------------------------------------------------------------------- #
@cache
def _highs():
    """(module, Highs class) of the HiGHS binding scipy vendors, or Nones;
    probed on the first call only."""
    try:
        # scipy >= 1.15 vendors HiGHS's pybind11 binding for its own
        # linprog at a private location — hence the stateless fallback.
        from scipy.optimize._highspy import _core

        return _core, getattr(_core, "Highs", None) or _core._Highs
    except (ImportError, AttributeError):
        return None, None


def highs_available() -> bool:
    """Whether the persistent HiGHS engine can run in this process."""
    return _highs()[0] is not None


def highs_impl() -> "str | None":
    """``"scipy-vendored"`` (the binding in use) or ``None`` (none imports)."""
    return "scipy-vendored" if highs_available() else None


def make_lp_engine(system, method: str = "auto", backend: str = "auto"):
    """The LP engine for one constraint system.

    ``backend="auto"`` (the default everywhere) picks :class:`PersistentLP`
    when a HiGHS binding imports and :class:`StatelessLP` otherwise;
    ``"highs"`` insists on the persistent engine and ``"scipy"`` on the
    stateless one.  ``method`` is ``"auto"`` (:func:`choose_lp_method`),
    ``"highs"`` (dual simplex) or ``"highs-ipm"`` (interior point).
    """
    if backend not in ("auto", "highs", "scipy"):
        raise ValueError(
            f"unknown LP backend {backend!r}; expected 'auto', 'highs' or 'scipy'"
        )
    if backend == "highs" and not highs_available():
        raise SolverError(
            "LP backend 'highs' requested but scipy's HiGHS binding does not "
            "import (use backend='scipy')"
        )
    if backend == "scipy" or not highs_available():
        return StatelessLP(system, method)
    return PersistentLP(system, method)


# ---------------------------------------------------------------------- #
# the engines
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LPRunInfo:
    """Outcome of one engine ``solve``."""

    value: float
    x: np.ndarray
    sense: str
    method_used: str     # "highs" | "highs-ipm" (ladder step that succeeded)
    n_iterations: int    # simplex + ipm + crossover iterations
    n_fallbacks: int     # retry-ladder steps taken
    warm: bool           # answered by primal simplex from the ``start`` basis
    #: the optimal basis, a ``start`` for later solves of the same system
    #: (``None`` unless the engine takes starts)
    basis: object = None


class _LPEngine:
    """What both engines share: the resolved method and the ladder walk.

    Subclasses load an objective (``_load``), run one attempt of the ladder
    (``_attempt``), and read the optimum (``_info``) or the failure
    (``_status``).
    """

    backend = ""
    #: whether ``solve`` honors ``start`` and reports ``LPRunInfo.basis``
    takes_start = False

    def __init__(self, system, method: str = "auto") -> None:
        if method not in _METHODS:
            raise ValueError(
                f"unknown LP method {method!r}; expected 'auto', 'highs' "
                "or 'highs-ipm'"
            )
        self.system = system
        self.n_variables = int(system.n_variables)
        #: the resolved method of every solve: "highs" or "highs-ipm"
        self.method = (
            choose_lp_method(self.n_variables) if method == "auto" else method
        )

    def solve(
        self, c: np.ndarray, sense: str = "min", start: object = None
    ) -> LPRunInfo:
        """Optimize ``c @ x`` over the polytope in the given sense.

        ``start`` is a basis of this system (``LPRunInfo.basis`` of an
        earlier solve) for the first attempt to run primal simplex from;
        ``None``, or an engine that does not take starts, solves cold.
        Every later step of the retry ladder is cold.  Raises
        :class:`SolverError` after every step fails.
        """
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self._load(c, sense)
        if not self.takes_start:
            start = None
        tele = obs.get_telemetry()
        for step, (method, presolve) in enumerate(_ladder(self.method)):
            if step:
                tele.counter("lp.retry_step")
                start = None
            if self._attempt(method, presolve, start):
                return self._info(sense, method, step, start is not None)
        raise SolverError(
            f"LP {sense} failed after {step} retries: {self._status()}"
        )


class PersistentLP(_LPEngine):
    """One HiGHS model per constraint system, many objectives per model.

    Parameters
    ----------
    system:
        Assembled :class:`~repro.core.constraints.ConstraintSystem`.
    method:
        ``"auto"`` (:func:`choose_lp_method`) or an explicit ``"highs"`` /
        ``"highs-ipm"`` that every solve honors.  Simplex takes starts;
        interior point does not.
    """

    backend = "highs"

    def __init__(self, system, method: str = "auto") -> None:
        if not highs_available():  # pragma: no cover - guarded by callers
            raise SolverError("PersistentLP requires a HiGHS binding")
        super().__init__(system, method)
        self.takes_start = self.method == "highs"
        self._col_indices = np.arange(self.n_variables, dtype=np.int32)
        self._hc, highs_cls = _highs()
        self._h = highs_cls()
        self._h.setOptionValue("output_flag", False)
        self._h.passModel(self._build_model())
        # HiGHS fixes part of a model's numerics at its first run(), from the
        # objective it holds then: a fresh model and one that first ran
        # another objective answer the same solve a few ulps apart.  A
        # zero-time run on the zero objective fixes it here, once, so every
        # engine answers alike whatever it solves first.
        self._h.setOptionValue("time_limit", 0.0)
        self._h.run()
        self._h.setOptionValue("time_limit", float("inf"))
        obs.get_telemetry().counter("lp.model_rebuild")

    def _build_model(self):
        """The HiGHS LP: equalities stacked over inequalities, row-wise CSR."""
        hc = self._hc
        s = self.system
        A = sp.vstack([s.A_eq.tocsr(), s.A_ub.tocsr()], format="csr")
        m_ub = int(s.n_inequalities)
        lp = hc.HighsLp()
        lp.num_col_ = self.n_variables
        lp.num_row_ = int(A.shape[0])
        lp.col_cost_ = np.zeros(self.n_variables)
        lb = np.asarray(s.lb, dtype=float).copy()
        ub = np.asarray(s.ub, dtype=float).copy()
        lb[~np.isfinite(lb)] = -hc.kHighsInf
        ub[~np.isfinite(ub)] = hc.kHighsInf
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = np.concatenate([s.b_eq, np.full(m_ub, -hc.kHighsInf)])
        lp.row_upper_ = np.concatenate([s.b_eq, s.b_ub])
        lp.a_matrix_.format_ = hc.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        return lp

    def _load(self, c: np.ndarray, sense: str) -> None:
        hc = self._hc
        self._h.changeColsCost(
            self.n_variables, self._col_indices, np.asarray(c, dtype=float)
        )
        self._h.changeObjectiveSense(
            hc.ObjSense.kMinimize if sense == "min" else hc.ObjSense.kMaximize
        )

    def _attempt(self, method: str, presolve: bool, start) -> bool:
        # Every attempt clears the solver and sets every option it depends
        # on, so it runs the same whatever this engine solved before.  A
        # start basis is primal feasible for any objective (the constraints
        # never change), so primal simplex runs from it without a phase 1;
        # HiGHS skips presolve when it holds a basis.
        self._h.clearSolver()
        if start is not None:
            self._h.setBasis(start)
        self._h.setOptionValue(
            "solver", "ipm" if method == "highs-ipm" else "simplex"
        )
        self._h.setOptionValue("presolve", "on" if presolve else "off")
        self._h.setOptionValue(
            "simplex_strategy",
            _SIMPLEX_STRATEGY_DUAL if start is None else _SIMPLEX_STRATEGY_PRIMAL,
        )
        return self._run_ok()

    def _run_ok(self) -> bool:
        self._h.run()
        return self._h.getModelStatus() == self._hc.HighsModelStatus.kOptimal

    def _info(
        self, sense: str, method_used: str, n_fallbacks: int, warm: bool
    ) -> LPRunInfo:
        info = self._h.getInfo()
        iterations = (
            int(info.simplex_iteration_count)
            + int(info.ipm_iteration_count)
            + int(info.crossover_iteration_count)
        )
        basis = self._h.getBasis() if self.takes_start else None  # a copy
        return LPRunInfo(
            value=float(self._h.getObjectiveValue()),
            x=np.asarray(self._h.getSolution().col_value, dtype=float),
            sense=sense,
            method_used=method_used,
            n_iterations=iterations,
            n_fallbacks=n_fallbacks,
            warm=warm,
            basis=basis if basis is not None and basis.valid else None,
        )

    def _status(self) -> str:
        return f"model status {self._h.getModelStatus()}"


class StatelessLP(_LPEngine):
    """One ``scipy.optimize.linprog`` call per solve; no state is kept.

    It takes no starts: ``linprog`` builds and discards its HiGHS model on
    every call.
    """

    backend = "scipy"

    def __init__(self, system, method: str = "auto") -> None:
        super().__init__(system, method)
        self._bounds = np.column_stack([system.lb, system.ub])

    def _load(self, c: np.ndarray, sense: str) -> None:
        # linprog minimizes: a max negates into a scratch copy, so the
        # caller's (possibly cached) coefficient vector is never mutated.
        self._c = c if sense == "min" else np.negative(c)
        self._sign = 1.0 if sense == "min" else -1.0

    def _attempt(self, method: str, presolve: bool, start) -> bool:
        from scipy.optimize import linprog

        s = self.system
        self._res = linprog(
            self._c,
            A_eq=s.A_eq if s.n_equalities else None,
            b_eq=s.b_eq if s.n_equalities else None,
            A_ub=s.A_ub if s.n_inequalities else None,
            b_ub=s.b_ub if s.n_inequalities else None,
            bounds=self._bounds,
            method=method,
            options=None if presolve else {"presolve": False},
        )
        return bool(self._res.success)

    def _info(
        self, sense: str, method_used: str, n_fallbacks: int, warm: bool
    ) -> LPRunInfo:
        res = self._res
        return LPRunInfo(
            value=float(self._sign * res.fun),
            x=res.x,
            sense=sense,
            method_used=method_used,
            n_iterations=int(res.nit),
            n_fallbacks=n_fallbacks,
            warm=False,
        )

    def _status(self) -> str:
        return f"{self._res.message} (status {self._res.status})"
