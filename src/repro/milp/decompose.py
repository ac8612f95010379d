"""Component decomposition of MILP models (the decompose-and-conquer path).

Encodings of long query histories are mostly block-diagonal: queries that
touch disjoint tuples and attributes contribute constraints over disjoint
variable sets.  A monolithic branch-and-cut run still pays for the full
variable count on every node; splitting the model into its connected
components first makes the cost the *largest component*, not the whole log,
and gives the components to solve independently (and in parallel).

The pipeline is:

1. :func:`split_model` — detect variables pinned to a point (directly or by
   the shared matrix presolve), run connected components over the bipartite
   variable–constraint graph (``scipy.sparse.csgraph``) with pinned columns
   masked out, and rebuild one independent :class:`~repro.milp.model.Model`
   per component (pinned variables folded into the right-hand sides).
2. :class:`DecomposingSolver` — solve the submodels through any registered
   inner backend, sharing one wall-clock budget, optionally fanned out
   through a :class:`~repro.parallel.ComponentScheduler`.
3. :func:`merge_solutions` — recombine the sub-solutions into one
   :class:`~repro.milp.solution.Solution` with well-defined status semantics
   (see the function docstring, and the backend-selection notes in
   :mod:`repro.milp.solvers`).

Splitting is exact: the constraint set is partitioned, the objective is
separable by construction (a linear objective restricted to disjoint variable
sets), so the merged optimum equals the monolithic optimum whenever every
component solves to optimality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.milp.expr import LinExpr
from repro.milp.model import Model, difference
from repro.milp.presolve import presolve
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.base import Solver, solve_with_warm_start
from repro.milp.variables import Variable
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.components import ComponentScheduler

#: Bound width below which a variable counts as pinned to a point.
_FIXED_TOLERANCE = 1e-9
#: Tolerance used when checking constant (fully pinned) constraint rows.
_ROW_TOLERANCE = 1e-6


@dataclass
class SubModel:
    """One independent component of a split model."""

    #: Position of the component in the split (stable, by smallest variable
    #: index), used for span labels and merge diagnostics.
    index: int
    model: Model
    #: Names of the original variables this component owns.
    variable_names: tuple[str, ...]


@dataclass
class ModelSplit:
    """Outcome of :func:`split_model`.

    ``pinned_values`` holds every variable solved outside the submodels:
    variables fixed by bounds or presolve, and unconstrained ("isolated")
    variables whose optimum is a bound-selection.  ``components`` partitions
    the remaining variables and every remaining constraint.
    """

    components: list[SubModel] = field(default_factory=list)
    pinned_values: dict[str, float] = field(default_factory=dict)
    infeasible: bool = False
    reason: str = ""
    stats: dict[str, float] = field(default_factory=dict)
    #: True connected-component count, before small components are batched
    #: into shared solve groups (``components`` holds one entry per *group*).
    component_count: int = 0
    #: Variable count of the biggest true component (the capacity number).
    largest_component_vars: int = 0


def split_model(
    model: Model, *, use_presolve: bool = True, min_group_vars: int = 1
) -> ModelSplit:
    """Split ``model`` into independent connected components.

    When ``use_presolve`` is set, the shared matrix presolve runs first so
    that variables it pins (singleton rows, final-state equalities) stop
    acting as bridges between otherwise independent blocks; an infeasibility
    it proves is reported without building any component.

    ``min_group_vars`` batches small components: a long history typically
    splits into a handful of real blocks plus hundreds of two-variable
    fragments, and paying one solver invocation per fragment costs more than
    the solve itself.  Components are packed (in stable order) into solve
    groups of at least ``min_group_vars`` variables; a group of independent
    blocks is still block-diagonal, so batching changes scheduling only,
    never the solution.  The reported ``components`` /
    ``largest_component_vars`` stats always describe the *true* components.
    """
    matrices = model.to_matrices()
    # One read of the variables: ``Model.variables`` copies the whole list on
    # every access.
    variables = model.variables
    n = len(variables)
    m = model.num_constraints
    lb_var = np.asarray(matrices["lb_var"], dtype=float)
    ub_var = np.asarray(matrices["ub_var"], dtype=float)

    if use_presolve and n > 0:
        reduction = presolve(matrices)
        if reduction.infeasible:
            return ModelSplit(infeasible=True, reason=reduction.reason)
        # Presolved bounds are index-stable and strictly tighter; using them
        # both finds more pinned variables and hands submodels the tightened
        # domains.
        lb_var = np.asarray(reduction.matrices["lb_var"], dtype=float)
        ub_var = np.asarray(reduction.matrices["ub_var"], dtype=float)

    pinned_mask = (ub_var - lb_var) <= _FIXED_TOLERANCE
    pinned_values = {
        variables[i].name: float((lb_var[i] + ub_var[i]) / 2.0)
        for i in np.flatnonzero(pinned_mask)
    }

    # Connected components over the bipartite variable–constraint graph,
    # with pinned columns masked so they cannot bridge components.  Nodes
    # 0..n-1 are variables, n..n+m-1 are constraint rows; an edge joins a
    # row to each of its active columns.
    active = ~pinned_mask
    rows = model.rows()
    row_index = np.repeat(np.arange(m), np.diff(rows.indptr))
    touches_active = active[rows.cols] if n > 0 else np.zeros(0, dtype=bool)
    labels: np.ndarray
    if m > 0 and n > 0:
        edges = touches_active & (rows.vals != 0.0)
        edge_rows, edge_cols = row_index[edges], rows.cols[edges]
        graph = sparse.csr_matrix(
            (np.ones(len(edge_rows)), (edge_cols, n + edge_rows)), shape=(n + m, n + m)
        )
        _, labels = csgraph.connected_components(graph, directed=False)
    else:
        labels = np.arange(n + m)

    component_vars: dict[int, list[int]] = {}
    for i in np.flatnonzero(active):
        component_vars.setdefault(int(labels[i]), []).append(int(i))
    component_cons: dict[int, list[int]] = {}
    row_is_active = np.bincount(row_index[touches_active], minlength=m) > 0
    pinned_lookup = model._value_lookup(pinned_values)
    for j in range(m):
        if not row_is_active[j]:
            # Fully pinned row: the submodels never see it, so its activity
            # under the pinned values must already satisfy the constraint.
            if not model._row_satisfied(j, pinned_lookup, _ROW_TOLERANCE):
                return ModelSplit(
                    infeasible=True,
                    reason=(
                        f"constraint '{rows.names[j]}' is violated by "
                        "the pinned variable values"
                    ),
                    pinned_values=pinned_values,
                )
            continue
        component_cons.setdefault(int(labels[n + j]), []).append(j)

    objective_terms = model.objective.terms
    split = ModelSplit(pinned_values=pinned_values)

    # Active variables no constraint touches: their optimum is a pure bound
    # selection on the (presolve-tightened, integrality-rounded) domain.
    for label, var_indices in list(component_vars.items()):
        if label in component_cons:
            continue
        for i in var_indices:
            variable = variables[i]
            value = _isolated_optimum(
                float(matrices["c"][i]),
                float(lb_var[i]),
                float(ub_var[i]),
                variable.is_integral,
            )
            if value is None:
                return ModelSplit(
                    infeasible=True,
                    reason=f"variable '{variable.name}' has an empty integer domain",
                    pinned_values=pinned_values,
                )
            split.pinned_values[variable.name] = value
        del component_vars[label]

    ordered = sorted(component_vars.items(), key=lambda item: min(item[1]))
    split.component_count = len(ordered)
    split.largest_component_vars = max(
        (len(var_indices) for _, var_indices in ordered), default=0
    )

    # Pack components into solve groups: large components stand alone, small
    # ones share a group until it reaches ``min_group_vars`` variables.
    groups: list[list[tuple[int, list[int]]]] = []
    current: list[tuple[int, list[int]]] = []
    current_vars = 0
    for label, var_indices in ordered:
        current.append((label, var_indices))
        current_vars += len(var_indices)
        if current_vars >= min_group_vars:
            groups.append(current)
            current, current_vars = [], 0
    if current:
        groups.append(current)

    pinned_list = pinned_mask.tolist()
    names = [variable.name for variable in variables]
    starts, row_cols, row_vals = rows.indptr.tolist(), rows.cols.tolist(), rows.vals.tolist()
    for position, group in enumerate(groups):
        var_indices = [i for _, members in group for i in members]
        submodel = Model(f"{model.name}/component{position}")
        clones: dict[int, Variable] = {}
        for i in sorted(var_indices):
            variable = variables[i]
            clones[i] = submodel.add_variable(
                variable.name,
                lower=float(lb_var[i]),
                upper=float(ub_var[i]),
                var_type=variable.var_type,
            )
        group_cons = [j for label, _ in group for j in component_cons.get(label, ())]
        for j in sorted(group_cons):
            # The row with its pinned columns moved into the right-hand side,
            # added as ``add_constraint(LinExpr(terms), sense, rhs - shift)``
            # would add it.
            terms: dict[Variable, float] = {}
            shift = 0.0
            for pointer in range(starts[j], starts[j + 1]):
                column, coeff = row_cols[pointer], row_vals[pointer]
                if pinned_list[column]:
                    shift += coeff * split.pinned_values[names[column]]
                elif coeff != 0.0:
                    terms[clones[column]] = float(coeff)
            terms, rhs = difference(terms, 0.0, {}, float(rows.rhs[j] - shift))
            submodel._add_row(terms, int(rows.senses[j]), rhs, rows.names[j])
        by_name = {clone.name: clone for clone in clones.values()}
        submodel.set_objective(
            LinExpr(
                {
                    by_name[variable.name]: coeff
                    for variable, coeff in objective_terms.items()
                    if variable.name in by_name
                }  # type: ignore[arg-type]
            )
        )
        split.components.append(
            SubModel(
                index=position,
                model=submodel,
                variable_names=tuple(sorted(by_name)),
            )
        )

    split.stats["components"] = float(split.component_count)
    split.stats["largest_component_vars"] = float(split.largest_component_vars)
    split.stats["solve_groups"] = float(len(split.components))
    return split


def _isolated_optimum(
    coefficient: float, lower: float, upper: float, integral: bool
) -> float | None:
    """Optimal value of an unconstrained bounded variable (None = empty domain)."""
    if coefficient > 0.0:
        value = lower
    elif coefficient < 0.0:
        value = upper
    else:
        value = min(max(0.0, lower), upper)
    if integral:
        value = math.ceil(value - _FIXED_TOLERANCE) if coefficient > 0.0 else (
            math.floor(value + _FIXED_TOLERANCE)
            if coefficient < 0.0
            else float(round(value))
        )
        if value < lower - _FIXED_TOLERANCE or value > upper + _FIXED_TOLERANCE:
            return None
    return float(value)


#: Status precedence when merging components: the first matching status wins.
_MERGE_PRECEDENCE = (
    SolveStatus.INFEASIBLE,
    SolveStatus.ERROR,
    SolveStatus.UNBOUNDED,
    SolveStatus.TIME_LIMIT,
)


def merge_solutions(
    model: Model, split: ModelSplit, solutions: Sequence[Solution]
) -> Solution:
    """Recombine per-component solutions into one solution of ``model``.

    Merge semantics (also documented in :mod:`repro.milp.solvers`): the
    merged status is the worst component status under the precedence
    INFEASIBLE > ERROR > UNBOUNDED > TIME_LIMIT; when every component found
    an assignment the merged status is OPTIMAL only if *all* components are
    optimal, FEASIBLE otherwise.  A merged assignment is returned only when
    every component produced one — a partial union would not satisfy the
    original model — and the merged objective is re-evaluated on the original
    model, so pinned variables and objective constants are accounted for
    exactly once.
    """
    statuses = [solution.status for solution in solutions]
    stats: dict[str, float] = {
        "components_timed_out": float(
            sum(1 for s in statuses if s is SolveStatus.TIME_LIMIT)
        ),
        "components_infeasible": float(
            sum(1 for s in statuses if s is SolveStatus.INFEASIBLE)
        ),
    }
    for solution in solutions:
        for key, value in solution.stats.items():
            if key.endswith("_seconds"):
                # Summed across components: CPU time, not wall clock.
                stats[key] = stats.get(key, 0.0) + float(value)
    messages = [
        f"component {submodel.index}: {solution.message}"
        for submodel, solution in zip(split.components, solutions)
        if solution.message
    ]
    message = "; ".join(messages)

    status = next((s for s in _MERGE_PRECEDENCE if s in statuses), None)
    if status is not None or not all(s.has_solution for s in statuses):
        return Solution(
            status=status if status is not None else SolveStatus.ERROR,
            values={},
            message=message,
            stats=stats,
        )

    values = dict(split.pinned_values)
    for solution in solutions:
        values.update(solution.values)
    status = (
        SolveStatus.OPTIMAL
        if all(s is SolveStatus.OPTIMAL for s in statuses)
        else SolveStatus.FEASIBLE
    )
    return Solution(
        status=status,
        objective=model.objective_value(values),
        values=values,
        message=message,
        stats=stats,
    )


class DecomposingSolver(Solver):
    """Solve a model by splitting it into components first.

    ``inner`` names the backend (via the solver registry) that solves each
    component; models that do not split (one component or fewer) are handed
    to the inner backend whole, so enabling decomposition is always safe.
    A :class:`~repro.parallel.ComponentScheduler` turns the component loop
    into a parallel fan-out sharing the engine's worker pool; without one the
    components run sequentially.  The configured ``time_limit`` is one shared
    wall-clock budget: each component gets whatever remains when it starts.
    """

    name = "decomposed"

    def __init__(
        self,
        *,
        inner: str = "highs",
        time_limit: float | None = None,
        mip_gap: float = 1e-6,
        use_presolve: bool = True,
        scheduler: "ComponentScheduler | None" = None,
        min_group_vars: int = 256,
    ) -> None:
        super().__init__(time_limit=time_limit, mip_gap=mip_gap)
        # A decomposing inner backend would recurse forever on unsplittable
        # models; fall back to the default elementary backend instead.
        self.inner = "highs" if inner == self.name else inner
        self.use_presolve = use_presolve
        self.scheduler = scheduler
        #: Batch threshold for tiny components (see :func:`split_model`).
        self.min_group_vars = max(1, int(min_group_vars))

    def _inner_solver(self, time_limit: float | None) -> Solver:
        from repro.milp.solvers.registry import get_solver

        return get_solver(
            self.inner,
            time_limit=time_limit,
            mip_gap=self.mip_gap,
            use_presolve=self.use_presolve,
        )

    def _remaining(self, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        return max(0.0, deadline - time.perf_counter())

    def solve(
        self, model: Model, *, warm_start: Mapping[str, float] | None = None
    ) -> Solution:
        start = time.perf_counter()
        deadline = start + self.time_limit if self.time_limit is not None else None

        with obs.span("solver.decompose", solver=self.inner) as span:
            split = split_model(
                model,
                use_presolve=self.use_presolve,
                min_group_vars=self.min_group_vars,
            )
            span.set_attribute("components", split.component_count)
            span.set_attribute("largest_component_vars", split.largest_component_vars)
            span.set_attribute("solve_groups", len(split.components))
            span.set_attribute("infeasible", split.infeasible)
        decompose_seconds = time.perf_counter() - start
        stats = {
            "components": float(split.component_count),
            "largest_component_vars": float(split.largest_component_vars),
            "solve_groups": float(len(split.components)),
            "decompose_seconds": decompose_seconds,
        }

        if split.infeasible:
            return Solution(
                status=SolveStatus.INFEASIBLE,
                solve_seconds=time.perf_counter() - start,
                solver_name=self.name,
                message=f"decompose: {split.reason}",
                stats=stats,
            )

        if len(split.components) <= 1:
            # Nothing to fan out: the inner backend solves the whole model
            # (its own presolve re-derives anything the split computed).
            inner = self._inner_solver(self._remaining(deadline))
            solution = solve_with_warm_start(
                inner, model, dict(warm_start) if warm_start else None
            )
            solution.stats.update(stats)
            solution.solver_name = self.name
            solution.solve_seconds = time.perf_counter() - start
            return solution

        tasks = [
            self._component_task(submodel, _component_hint(warm_start, submodel), deadline)
            for submodel in split.components
        ]
        if self.scheduler is not None:
            results = self.scheduler.map(tasks)
        else:
            results = [task() for task in tasks]

        merged = merge_solutions(model, split, results)
        merged.stats.update(stats)
        merged.solver_name = self.name
        merged.solve_seconds = time.perf_counter() - start
        return merged

    def _component_task(
        self,
        submodel: SubModel,
        hint: "dict[str, float] | None",
        deadline: float | None,
    ) -> Callable[[], Solution]:
        def run() -> Solution:
            remaining = self._remaining(deadline)
            if remaining is not None and remaining <= 0.0:
                return Solution(
                    status=SolveStatus.TIME_LIMIT,
                    solver_name=self.name,
                    message="time budget exhausted before the component started",
                )
            try:
                with obs.span(
                    "solver.component",
                    component=submodel.index,
                    variables=submodel.model.num_variables,
                ):
                    inner = self._inner_solver(remaining)
                    return solve_with_warm_start(inner, submodel.model, hint)
            except Exception as error:  # noqa: BLE001 - a component must never
                # take down its siblings; the merge reports the error status.
                return Solution(
                    status=SolveStatus.ERROR,
                    solver_name=self.name,
                    message=f"component {submodel.index}: {error}",
                )

        return run


def _component_hint(
    warm_start: Mapping[str, float] | None, submodel: SubModel
) -> dict[str, float] | None:
    """Partition a whole-model warm start down to one component.

    The hint is kept only when it covers every variable of the component and
    respects the (possibly presolve-tightened) cloned bounds — mirroring
    :meth:`EncodedProblem.solution_hint`, a stale value for a variable that
    was pinned or folded away must never seed an incumbent.
    """
    if not warm_start:
        return None
    hint: dict[str, float] = {}
    for variable in submodel.model.variables:
        value = warm_start.get(variable.name)
        if value is None:
            return None
        value = float(value)
        if value < variable.lower - _ROW_TOLERANCE or value > variable.upper + _ROW_TOLERANCE:
            return None
        hint[variable.name] = value
    return hint
