"""HiGHS backend: one direct call into the HiGHS binding that SciPy ships.

This is the default solver.  The paper uses CPLEX; HiGHS is an open-source
branch-and-cut engine that solves the same MILPs to optimality, so the repair
quality is unaffected (only absolute solve times differ).

The model is exported in sparse CSR form and run through the shared matrix
presolve before HiGHS sees it: singleton rows become bounds, fixed variables
are folded out of every row, and trivially contradictory encodings (the
encoder's ``0 == 1`` rows) are rejected without invoking the solver at all.

The presolved CSR arrays then go to HiGHS row-wise through
``scipy.optimize._highspy._core``, the binding ``scipy.optimize.milp`` itself
wraps (verified with SciPy 1.17.1).  The direct call skips ``milp``'s input
validation, its CSC conversion and its basis and dual readout, and it
switches off HiGHS's feasibility-jump primal heuristic on every solve, which
``milp`` would forward only with a ``RuntimeWarning`` on every call.  On a
2-core machine the 621 HiGHS solves of seed-1 paper-mix took 5.9 s through
``milp``, 3.3 s through ``milp`` with the heuristic off and 2.2 s through
this call, whose assignments are bit-identical to the second.  Statuses and
messages are translated exactly as ``milp`` translated them.
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

try:
    import scipy.optimize._highspy._core as _highs
except ImportError as error:  # pragma: no cover - depends on the SciPy build
    raise ImportError(
        "HighsSolver calls SciPy's HiGHS binding scipy.optimize._highspy._core, "
        "which this SciPy does not provide (verified with SciPy 1.17.1)"
    ) from error

from repro.milp.model import Model
from repro.milp.presolve import presolve
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.base import Solver, finalize_solution_values
from repro.obs import trace as obs

#: The HiGHS option that runs the feasibility-jump heuristic; off on every solve.
FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"

_MODEL = _highs.HighsModelStatus
_OK = _highs.HighsStatus.kOk
_ERROR = _highs.HighsStatus.kError
_VAR_TYPES = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)

#: HiGHS model status -> (status, message prefix), as ``scipy.optimize.milp``
#: translated them.  A limit status whose run holds an incumbent is FEASIBLE.
_STATUS: dict[object, tuple[SolveStatus, str]] = {
    _MODEL.kNotset: (SolveStatus.ERROR, ""),
    _MODEL.kLoadError: (SolveStatus.ERROR, ""),
    _MODEL.kModelError: (SolveStatus.INFEASIBLE, ""),
    _MODEL.kPresolveError: (SolveStatus.ERROR, ""),
    _MODEL.kSolveError: (SolveStatus.ERROR, ""),
    _MODEL.kPostsolveError: (SolveStatus.ERROR, ""),
    _MODEL.kModelEmpty: (SolveStatus.ERROR, ""),
    _MODEL.kObjectiveBound: (SolveStatus.ERROR, ""),
    _MODEL.kObjectiveTarget: (SolveStatus.ERROR, ""),
    _MODEL.kOptimal: (SolveStatus.OPTIMAL, "Optimization terminated successfully. "),
    _MODEL.kTimeLimit: (SolveStatus.TIME_LIMIT, "Time limit reached. "),
    _MODEL.kIterationLimit: (SolveStatus.TIME_LIMIT, "Iteration limit reached. "),
    _MODEL.kInfeasible: (SolveStatus.INFEASIBLE, "The problem is infeasible. "),
    _MODEL.kUnbounded: (SolveStatus.UNBOUNDED, "The problem is unbounded. "),
    _MODEL.kUnboundedOrInfeasible: (
        SolveStatus.ERROR,
        "The problem is unbounded or infeasible. ",
    ),
}
_UNRECOGNIZED = (SolveStatus.ERROR, "The HiGHS status code was not recognized. ")

#: Statuses under which a MIP run may hold an incumbent.
_LIMITS = (_MODEL.kTimeLimit, _MODEL.kIterationLimit, _MODEL.kSolutionLimit)


class HighsRun:
    """What one HiGHS run reports: status, message, assignment and objective."""

    __slots__ = ("model_status", "status", "message", "x", "objective")

    def __init__(self, model_status, highs_message: str, x=None, objective=None) -> None:
        status, prefix = _STATUS.get(model_status, _UNRECOGNIZED)
        if status is SolveStatus.TIME_LIMIT and x is not None:
            status = SolveStatus.FEASIBLE
        self.model_status = model_status
        self.status = status
        self.message = f"{prefix}(HiGHS Status {int(model_status)}: {highs_message})"
        self.x: "list[float] | None" = x
        self.objective: "float | None" = objective


def run_highs(
    matrices: Mapping[str, object],
    *,
    mip_gap: float,
    time_limit: float | None = None,
    presolve: bool = True,
) -> HighsRun:
    """Solve the CSR export ``matrices`` (``Model.to_matrices`` keys) once.

    Every run has output off, ``mip_gap`` as its relative gap, ``time_limit``
    if one is given, HiGHS's presolve on or off, and feasibility jump off.
    The assignment is read exactly when ``scipy.optimize.milp`` would return
    one.
    """
    highs = _highs._Highs()
    options: list[tuple[str, object]] = [
        ("output_flag", False),
        ("mip_rel_gap", float(mip_gap)),
        (FEASIBILITY_JUMP, False),
    ]
    if time_limit is not None:
        options.append(("time_limit", float(time_limit)))
    if not presolve:
        options.append(("presolve", "off"))
    for name, value in options:
        if highs.setOptionValue(name, value) != _OK:
            raise ValueError(f"HiGHS rejects option {name}={value!r}")

    A = matrices["A"]
    integrality = np.asarray(matrices["integrality"])
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = A.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    # Lists convert into HiGHS's vectors about twice as fast as arrays.
    lp.a_matrix_.start_ = A.indptr.tolist()
    lp.a_matrix_.index_ = A.indices.tolist()
    lp.a_matrix_.value_ = A.data.tolist()
    lp.col_cost_ = matrices["c"].tolist()
    lp.col_lower_ = matrices["lb_var"].tolist()
    lp.col_upper_ = matrices["ub_var"].tolist()
    lp.row_lower_ = matrices["lb_con"].tolist()
    lp.row_upper_ = matrices["ub_con"].tolist()
    lp.integrality_ = [_VAR_TYPES[kind] for kind in integrality.tolist()]

    if highs.passModel(lp) == _ERROR:
        return HighsRun(_MODEL.kModelError, highs.modelStatusToString(_MODEL.kModelError))
    if highs.run() == _ERROR:
        model_status = highs.getModelStatus()
        return HighsRun(model_status, highs.modelStatusToString(model_status))
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    if model_status == _MODEL.kOptimal or (
        model_status in _LIMITS
        and integrality.any()
        and info.objective_function_value != _highs.kHighsInf
    ):
        return HighsRun(
            model_status,
            highs.modelStatusToString(model_status),
            highs.getSolution().col_value,
            info.objective_function_value,
        )
    return HighsRun(
        model_status,
        f"model_status is {highs.modelStatusToString(model_status)}; primal_status is "
        f"{highs.solutionStatusToString(info.primal_solution_status)}",
    )


class HighsSolver(Solver):
    """Solve models with HiGHS through SciPy's binding."""

    name = "highs"

    def __init__(
        self,
        *,
        time_limit: float | None = None,
        mip_gap: float = 1e-6,
        use_presolve: bool = True,
    ) -> None:
        super().__init__(time_limit=time_limit, mip_gap=mip_gap)
        self.use_presolve = use_presolve

    def solve(self, model: Model) -> Solution:
        start = time.perf_counter()
        matrices = model.to_matrices()
        num_variables = len(matrices["c"])
        if num_variables == 0:
            # A model with no variables is optimal iff its (constant)
            # constraints are all satisfiable — e.g. the encoder's explicit
            # contradiction rows (0 == 1) must still report infeasibility.
            violated = model.check_assignment({})
            status = SolveStatus.INFEASIBLE if violated else SolveStatus.OPTIMAL
            return Solution(
                status=status,
                objective=0.0 if not violated else None,
                values={},
                solve_seconds=0.0,
                solver_name=self.name,
            )

        stats: dict[str, float] = {}
        if self.use_presolve:
            presolve_start = time.perf_counter()
            with obs.span("solver.presolve", solver=self.name) as presolve_span:
                reduction = presolve(matrices)
                presolve_span.set_attribute("infeasible", reduction.infeasible)
                presolve_span.set_attribute(
                    "bigm_tightened", int(reduction.stats.get("bigm_tightened", 0))
                )
            stats["presolve_seconds"] = time.perf_counter() - presolve_start
            stats.update({f"presolve_{key}": value for key, value in reduction.stats.items()})
            if reduction.infeasible:
                return Solution(
                    status=SolveStatus.INFEASIBLE,
                    solve_seconds=time.perf_counter() - start,
                    solver_name=self.name,
                    message=f"presolve: {reduction.reason}",
                    stats=stats,
                )
            matrices = reduction.matrices

        search_start = time.perf_counter()
        try:
            with obs.span("solver.search", solver=self.name) as search_span:
                result = run_highs(
                    matrices, mip_gap=self.mip_gap, time_limit=self.time_limit
                )
                if result.status is SolveStatus.ERROR:
                    # "HiGHS Status 4: Solve error" — raw big-M indicator rows
                    # (coefficients ~2e5) amplify sub-tolerance primal drift
                    # past HiGHS's absolute 1e-6 feasibility tolerance, so an
                    # *optimal* solve gets reported as a solve error.  The
                    # matrix presolve's big-M tightening + row equilibration
                    # removes that regime at the encoding level, so this retry
                    # is a pure fallback now: it fires only when presolve is
                    # disabled (or a caller hands HiGHS an untamed matrix).
                    search_span.add_event("highs_presolve_retry")
                    retry = run_highs(
                        matrices,
                        mip_gap=self.mip_gap,
                        time_limit=self.time_limit,
                        presolve=False,
                    )
                    if retry.status is not SolveStatus.ERROR:
                        result = retry
                        stats["highs_presolve_retry"] = 1.0
                search_span.set_attribute("highs_status", int(result.model_status))
        except Exception as error:  # pragma: no cover - defensive
            return Solution(
                status=SolveStatus.ERROR,
                solve_seconds=time.perf_counter() - start,
                solver_name=self.name,
                message=str(error),
                stats=stats,
            )
        stats["search_seconds"] = time.perf_counter() - search_start

        elapsed = time.perf_counter() - start
        status = result.status
        values: dict[str, float] = {}
        objective = None
        message = result.message
        if result.x is not None and status.has_solution:
            x = result.x
            raw = {variable.name: x[variable.index] for variable in model.variables}
            values, warning = finalize_solution_values(model, raw)
            if warning:
                message = f"{message} [{warning}]" if message else warning
            objective = result.objective
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solve_seconds=elapsed,
            solver_name=self.name,
            message=message,
            stats=stats,
        )
