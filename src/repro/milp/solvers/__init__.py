"""Solver backends for the MILP modeling layer.

Choosing a backend
==================

``highs`` (:class:`HighsSolver`, the default)
    Calls HiGHS, a compiled branch-and-cut engine with cutting planes and
    its own presolve, once per model through the binding SciPy ships
    (``scipy.optimize._highspy._core``, the one ``scipy.optimize.milp``
    wraps), with the feasibility-jump heuristic off.  Fastest to optimality
    on every workload we benchmark; the only reason to switch away is
    debuggability (it is a black box per solve).

``branch-and-bound`` (:class:`BranchAndBoundSolver`)
    Pure-Python best-first branch-and-bound over HiGHS LP relaxations.
    Slower per node, but fully inspectable (``Solution.stats`` reports node
    counts and presolve reductions), and the differential reference the
    oracles compare HiGHS against.  Prefer it in tests that need to observe
    solver behaviour rather than just the answer.

``decomposed`` (:class:`~repro.milp.decompose.DecomposingSolver`)
    A meta-backend for long-history encodings: it splits the model into
    connected components (:func:`~repro.milp.decompose.split_model`) and
    solves each through an inner backend (``highs`` by default), optionally
    in parallel.  Models that do not split are delegated to the inner backend
    whole, so it is never worse than its inner backend by more than the
    split's graph pass.

Both elementary backends consume the same sparse CSR export
(``Model.to_matrices``) and run the same matrix presolve
(:mod:`repro.milp.presolve`) first, so reported objectives are directly
comparable; the property suite asserts they agree.

Merge semantics of the decomposed backend
=========================================

Component solutions recombine under a *worst-status-wins* precedence:

``INFEASIBLE > ERROR > UNBOUNDED > TIME_LIMIT > FEASIBLE > OPTIMAL``

* Any component proved INFEASIBLE makes the merged model INFEASIBLE — the
  components partition the constraint set, so one unsatisfiable block
  condemns the whole model regardless of what the others found.
* A component that errored or hit the shared wall-clock budget without an
  incumbent yields a merged result *without values*: a partial union of
  assignments would not satisfy the original model, so no repair is decoded
  from it.  ``Solution.stats['components_timed_out']`` reports how many
  components ran out of budget.
* When every component produced an assignment, the union (plus the pinned
  variables the split solved analytically) is returned; the merged status is
  OPTIMAL only if *every* component proved optimality, FEASIBLE otherwise
  (e.g. a component that timed out while holding an incumbent).  The merged
  objective is re-evaluated on the original model, never summed from parts.
"""

from repro.milp.solvers.base import Solver, finalize_solution_values
from repro.milp.solvers.scipy_backend import HighsSolver
from repro.milp.solvers.branch_and_bound import BranchAndBoundSolver
from repro.milp.solvers.registry import available_solvers, get_solver, register_solver
from repro.milp.decompose import DecomposingSolver

__all__ = [
    "Solver",
    "HighsSolver",
    "BranchAndBoundSolver",
    "DecomposingSolver",
    "get_solver",
    "register_solver",
    "available_solvers",
    "finalize_solution_values",
]
