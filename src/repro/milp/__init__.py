"""Mixed-integer linear programming substrate.

The paper uses IBM CPLEX; this reproduction ships its own MILP stack so that
it has no proprietary dependencies:

* a modeling layer (:class:`Variable`, :class:`LinExpr`, :class:`Constraint`,
  :class:`Model`) in which the QFix encoder expresses its constraints;
* big-M / indicator linearization helpers (:mod:`repro.milp.linearize`) that
  implement the envelope constraints of the paper's Equation (3) for general
  bounded domains;
* two interchangeable solver backends: :class:`HighsSolver` calls the HiGHS
  branch-and-cut engine bundled with SciPy directly through SciPy's binding,
  and :class:`BranchAndBoundSolver` is a pure-Python branch-and-bound over LP
  relaxations solved with ``scipy.optimize.linprog`` — useful as a
  cross-check and on platforms where HiGHS misbehaves.
"""

from repro.milp.variables import Variable, VarType
from repro.milp.expr import LinExpr
from repro.milp.constraints import Constraint, Sense
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.milp.presolve import PresolveResult, presolve
from repro.milp.linearize import (
    add_binary_times_affine,
    add_absolute_value,
    add_comparison_indicator,
    add_conjunction,
    add_disjunction,
)
from repro.milp.solvers import (
    BranchAndBoundSolver,
    HighsSolver,
    Solver,
    available_solvers,
    get_solver,
)
from repro.milp.decompose import (
    DecomposingSolver,
    ModelSplit,
    SubModel,
    merge_solutions,
    split_model,
)

__all__ = [
    "Variable",
    "VarType",
    "LinExpr",
    "Constraint",
    "Sense",
    "Model",
    "Solution",
    "SolveStatus",
    "PresolveResult",
    "presolve",
    "add_binary_times_affine",
    "add_absolute_value",
    "add_comparison_indicator",
    "add_conjunction",
    "add_disjunction",
    "Solver",
    "HighsSolver",
    "BranchAndBoundSolver",
    "DecomposingSolver",
    "ModelSplit",
    "SubModel",
    "split_model",
    "merge_solutions",
    "get_solver",
    "available_solvers",
]
