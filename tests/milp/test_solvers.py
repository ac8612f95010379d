"""Tests for the MILP solver backends (HiGHS and branch-and-bound)."""

import itertools

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers import available_solvers, finalize_solution_values, get_solver
from repro.milp.solvers.branch_and_bound import BranchAndBoundSolver, _Node


def _knapsack_model():
    """A small 0/1 knapsack: maximize 6x1+5x2+4x3 s.t. 5x1+4x2+3x3 <= 8."""
    model = Model("knapsack")
    x1 = model.add_binary("x1")
    x2 = model.add_binary("x2")
    x3 = model.add_binary("x3")
    model.add_le(5 * x1 + 4 * x2 + 3 * x3, 8)
    model.set_objective(-(6 * x1 + 5 * x2 + 4 * x3))
    return model


def _infeasible_model():
    model = Model("infeasible")
    x = model.add_continuous("x", 0, 1)
    model.add_ge(x, 2)
    return model


@pytest.fixture(params=["highs", "branch-and-bound"])
def solver(request):
    return get_solver(request.param, time_limit=30.0)


class TestSolverBackends:
    def test_knapsack_optimum(self, solver):
        solution = solver.solve(_knapsack_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-10.0)
        # x1 and x3 selected (weight 8, value 10).
        assert solution.value("x1") == pytest.approx(1.0)
        assert solution.value("x3") == pytest.approx(1.0)

    def test_infeasible_detected(self, solver):
        solution = solver.solve(_infeasible_model())
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution

    def test_continuous_lp(self, solver):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_le(x + y, 6)
        model.set_objective(-(x + 2 * y))
        solution = solver.solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-12.0)
        assert solution.value("y") == pytest.approx(6.0)

    def test_empty_model(self, solver):
        solution = solver.solve(Model())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 0.0

    def test_solution_satisfies_model(self, solver):
        model = _knapsack_model()
        solution = solver.solve(model)
        assert model.evaluate_solution(solution)


class TestBackendsAgree:
    def test_same_objective_on_mixed_model(self):
        model = Model()
        x = model.add_integer("x", 0, 5)
        y = model.add_continuous("y", 0, 5)
        model.add_le(2 * x + y, 7)
        model.add_ge(y, 0.5)
        model.set_objective(-(3 * x + y))
        objectives = []
        for name in ("highs", "branch-and-bound"):
            solution = get_solver(name).solve(model)
            assert solution.status is SolveStatus.OPTIMAL
            objectives.append(solution.objective)
        assert objectives[0] == pytest.approx(objectives[1], abs=1e-6)


class _RootBoundsSolver(BranchAndBoundSolver):
    """The historical (pre-fix) solver: no presolve, root-bounds branch checks.

    Reproduces verbatim the two buggy guards of the old ``solve`` loop
    (``matrices["lb_var"]`` / ``matrices["ub_var"]`` instead of the node's
    tightened bounds) so the regression test can compare node counts.
    """

    def __init__(self, **options):
        options["use_presolve"] = False
        super().__init__(**options)
        self._root_lower = None
        self._root_upper = None

    def solve(self, model):
        matrices = model.to_matrices()
        self._root_lower = np.asarray(matrices["lb_var"], dtype=float)
        self._root_upper = np.asarray(matrices["ub_var"], dtype=float)
        return super().solve(model)

    def _child_nodes(self, node, branch_index, floor_value, bound, counter):
        down_upper = node.upper.copy()
        down_upper[branch_index] = floor_value
        if self._root_lower[branch_index] <= floor_value:
            yield _Node(bound, next(counter), node.lower.copy(), down_upper)
        up_lower = node.lower.copy()
        up_lower[branch_index] = floor_value + 1.0
        if self._root_upper[branch_index] >= floor_value + 1.0:
            yield _Node(bound, next(counter), up_lower, node.upper.copy())


def _fractionally_capped_model():
    """Integer variables with wide raw bounds capped by fractional singleton rows.

    Presolve folds the caps into tight integral bounds; the historical path
    keeps the wide raw bounds and re-proves each cap with an LP per branch,
    so the root-bounds check admits strictly more nodes.
    """
    model = Model("caps")
    xs = [model.add_integer(f"x{i}", 0, 100) for i in range(4)]
    for x in xs:
        model.add_le(x, 3.5)
    model.add_le(xs[0] + 2 * xs[1] + 2 * xs[2] + 2 * xs[3], 8.2)
    model.set_objective(-(xs[0] + xs[1] + xs[2] + xs[3]))
    return model


class TestNodeBoundsRegression:
    def test_root_bounds_check_explores_strictly_more_nodes(self):
        fixed = BranchAndBoundSolver().solve(_fractionally_capped_model())
        buggy = _RootBoundsSolver().solve(_fractionally_capped_model())
        assert fixed.status is SolveStatus.OPTIMAL
        assert buggy.status is SolveStatus.OPTIMAL
        assert fixed.objective == pytest.approx(buggy.objective, abs=1e-6)
        assert fixed.stats["nodes_explored"] < buggy.stats["nodes_explored"]

    def test_node_bounds_never_admit_an_empty_box(self):
        """The fixed guard skips a child whose box branching has emptied.

        The state below arises when an LP relaxation drifts just below a
        node's tightened lower bound: branching at floor(value) = lower - 1
        must not enqueue the [lower, lower - 1] box.  The historical guard
        compared against the root bounds and enqueued it.
        """
        solver = BranchAndBoundSolver()
        counter = itertools.count()
        node = _Node(0.0, next(counter), np.array([2.0]), np.array([5.0]))
        children = list(solver._child_nodes(node, 0, 1.0, 0.0, counter))
        assert all((child.lower <= child.upper).all() for child in children)
        assert len(children) == 1  # only the up branch survives
        # The historical root-bounds guard (root box [0, 10]) would have
        # admitted the down branch too: lower=[2] > upper=[1], an empty box
        # costing one LP solve.


class TestTimeLimitHandling:
    def test_immediate_time_limit_is_not_reported_infeasible(self):
        solver = BranchAndBoundSolver(time_limit=0.0)
        solution = solver.solve(_knapsack_model())
        assert solution.status is SolveStatus.TIME_LIMIT
        assert "time limit" in solution.message

    def test_lp_timeout_is_not_reported_infeasible(self, monkeypatch):
        """An LP that hits its budget must surface as TIME_LIMIT.

        The pre-PR loop only saw ``lp is None`` and re-checked the clock; a
        relaxation killed by HiGHS's own time limit just before the deadline
        read as an infeasible box.  The status-aware outcome keeps the two
        apart even when every LP times out instantly.
        """
        from repro.milp.relaxation import LPOutcome, RelaxationEngine

        monkeypatch.setattr(
            RelaxationEngine,
            "solve_batch",
            lambda self, boxes, *, time_limit=None: [
                LPOutcome("timeout") for _ in boxes
            ],
        )
        solution = BranchAndBoundSolver(time_limit=30.0).solve(_knapsack_model())
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.status is not SolveStatus.INFEASIBLE

    def test_node_limit_with_incumbent_reports_feasible(self):
        solver = BranchAndBoundSolver(max_nodes=1, use_presolve=False)
        model = Model()
        x = model.add_integer("x", 0, 10)
        y = model.add_integer("y", 0, 10)
        model.add_le(2 * x + 3 * y, 11.5)
        model.set_objective(-(2 * x + 3 * y))
        solution = solver.solve(model)
        # One node cannot both find and prove an incumbent here.
        assert solution.status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE)
        assert solution.status is not SolveStatus.INFEASIBLE

    def test_infeasible_messages_distinguish_lp_from_integer(self):
        lp_infeasible = Model()
        x = lp_infeasible.add_continuous("x", 0, 1)
        lp_infeasible.add_ge(x, 2)
        solution = BranchAndBoundSolver(use_presolve=False).solve(lp_infeasible)
        assert solution.status is SolveStatus.INFEASIBLE
        assert "relaxation infeasible" in solution.message

        integer_infeasible = Model()
        y = integer_infeasible.add_integer("y", 0, 5)
        integer_infeasible.add_equal(2 * y, 3)  # y = 1.5: LP-feasible only
        solution = BranchAndBoundSolver(use_presolve=False).solve(integer_infeasible)
        assert solution.status is SolveStatus.INFEASIBLE
        assert "integer infeasible" in solution.message


class TestLPKnobs:
    def test_reuse_and_batching_knobs_do_not_change_the_answer(self):
        reference = BranchAndBoundSolver().solve(_fractionally_capped_model())
        assert reference.status is SolveStatus.OPTIMAL
        for lp_reuse in (True, False):
            for lp_batch_size in (1, 4):
                solution = BranchAndBoundSolver(
                    lp_reuse=lp_reuse, lp_batch_size=lp_batch_size
                ).solve(_fractionally_capped_model())
                assert solution.status is SolveStatus.OPTIMAL
                assert solution.objective == pytest.approx(
                    reference.objective, abs=1e-6
                )
                assert solution.stats["lp_relaxations"] >= 1.0
                if lp_batch_size == 1:
                    assert solution.stats["lp_batched"] == 0.0
                if not lp_reuse:
                    assert solution.stats["lp_skipped"] == 0.0


class TestRoundingValidation:
    def test_rounded_values_validated_against_model(self):
        # A big coefficient amplifies sub-tolerance drift: x = 1 - 5e-7 is
        # integral within tolerance, but rounding to 1.0 violates the row by
        # 0.5, far beyond the feasibility tolerance.
        model = Model()
        x = model.add_integer("x", 0, 1)
        model.add_le(1e6 * x, 1e6 * (1.0 - 5e-7))
        with pytest.warns(UserWarning, match="falling back to the unrounded"):
            values, warning = finalize_solution_values(model, {"x": 1.0 - 5e-7})
        assert warning
        assert values["x"] == pytest.approx(1.0 - 5e-7)

    def test_clean_rounding_passes_through(self):
        model = Model()
        x = model.add_integer("x", 0, 5)
        model.add_le(x, 3)
        values, warning = finalize_solution_values(model, {"x": 2.9999997})
        assert warning == ""
        assert values["x"] == 3.0

    def test_backends_return_validated_integral_values(self):
        for name in ("highs", "branch-and-bound"):
            solution = get_solver(name).solve(_knapsack_model())
            model = _knapsack_model()
            assert not model.check_assignment(solution.values)
            assert all(value == int(value) for value in solution.values.values())


class TestRegistry:
    def test_available_and_aliases(self):
        names = available_solvers()
        assert "highs" in names and "branch-and-bound" in names
        assert get_solver("scipy").name == "highs"
        assert get_solver("bnb").name == "branch-and-bound"

    def test_unknown_solver(self):
        with pytest.raises(SolverError):
            get_solver("gurobi")

    def test_solution_value_lookup(self):
        solution = get_solver("highs").solve(_knapsack_model())
        with pytest.raises(KeyError):
            solution.value("missing")
        assert solution.value("missing", default=0.0) == 0.0
