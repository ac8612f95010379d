"""Component splitting, solution merging, and the decomposed solver wrapper."""

import pytest

from repro.milp.decompose import (
    DecomposingSolver,
    ModelSplit,
    merge_solutions,
    split_model,
)
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers import get_solver


def block_model(blocks: int = 3) -> Model:
    """``blocks`` independent 2-variable blocks: min x+y s.t. x+y >= 4."""
    model = Model("blocks")
    for index in range(blocks):
        x = model.add_continuous(f"x{index}", lower=0.0, upper=10.0)
        y = model.add_continuous(f"y{index}", lower=0.0, upper=10.0)
        model.add_ge(x + y, 4.0, f"cover{index}")
        model.add_to_objective(x + y)
    return model


class TestSplitModel:
    def test_detects_true_components(self):
        split = split_model(block_model(3), use_presolve=False)
        assert not split.infeasible
        assert split.component_count == 3
        assert split.largest_component_vars == 2
        assert len(split.components) == 3
        names = [name for sub in split.components for name in sub.variable_names]
        assert sorted(names) == ["x0", "x1", "x2", "y0", "y1", "y2"]
        # Partition: every variable appears exactly once across submodels.
        assert len(names) == len(set(names))

    def test_batches_small_components_into_groups(self):
        split = split_model(block_model(3), use_presolve=False, min_group_vars=4)
        # Two 2-var components fill the first group, the third stands alone.
        assert split.component_count == 3
        assert split.largest_component_vars == 2
        assert len(split.components) == 2
        assert split.stats["components"] == 3.0
        assert split.stats["solve_groups"] == 2.0

    def test_batched_groups_preserve_constraints(self):
        unbatched = split_model(block_model(4), use_presolve=False)
        batched = split_model(block_model(4), use_presolve=False, min_group_vars=100)
        assert len(batched.components) == 1
        total = sum(sub.model.num_constraints for sub in unbatched.components)
        assert batched.components[0].model.num_constraints == total

    def test_empty_model_has_no_components(self):
        split = split_model(Model("empty"), use_presolve=False)
        assert split.component_count == 0
        assert split.components == []
        assert not split.infeasible

    def test_pinned_bounds_do_not_bridge_components(self):
        model = Model("bridged")
        x = model.add_continuous("x", lower=0.0, upper=10.0)
        y = model.add_continuous("y", lower=0.0, upper=10.0)
        shared = model.add_continuous("shared", lower=2.0, upper=2.0)
        model.add_ge(x + shared, 4.0, "left")
        model.add_ge(y + shared, 4.0, "right")
        model.set_objective(x + y)
        split = split_model(model, use_presolve=False)
        # ``shared`` is pinned by its bounds, so x and y stay independent.
        assert split.pinned_values["shared"] == pytest.approx(2.0)
        assert split.component_count == 2


    def test_reads_the_variables_once(self, monkeypatch):
        # Model.variables copies the whole variable list on every access, so
        # reading it per pinned, isolated or cloned variable made the split
        # quadratic in model size.
        model = block_model(4)
        pinned = model.add_continuous("pinned", lower=2.0, upper=2.0)
        model.add_continuous("isolated", lower=1.0, upper=3.0)
        model.add_le(pinned + model.get_variable("x0"), 9.0, "bridge")
        accesses = []
        variables = Model.variables
        monkeypatch.setattr(
            Model, "variables", property(lambda self: accesses.append(self) or variables.fget(self))
        )
        split = split_model(model, use_presolve=True)
        assert split.component_count == 4
        assert set(split.pinned_values) == {"pinned", "isolated"}
        assert len(accesses) == 1


class TestMergeSolutions:
    def _split(self, blocks: int = 2) -> "tuple[Model, ModelSplit]":
        model = block_model(blocks)
        return model, split_model(model, use_presolve=False)

    def _component_solutions(self, split, status=SolveStatus.OPTIMAL):
        solutions = []
        for sub in split.components:
            values = {}
            for name in sub.variable_names:
                values[name] = 4.0 if name.startswith("x") else 0.0
            solutions.append(Solution(status=status, values=values))
        return solutions

    def test_all_optimal_merges_to_optimal_union(self):
        model, split = self._split()
        merged = merge_solutions(model, split, self._component_solutions(split))
        assert merged.status is SolveStatus.OPTIMAL
        assert merged.objective == pytest.approx(8.0)
        assert set(merged.values) == {"x0", "y0", "x1", "y1"}

    def test_any_feasible_downgrades_to_feasible(self):
        model, split = self._split()
        solutions = self._component_solutions(split)
        solutions[1] = Solution(
            status=SolveStatus.FEASIBLE, values=dict(solutions[1].values)
        )
        merged = merge_solutions(model, split, solutions)
        assert merged.status is SolveStatus.FEASIBLE
        assert merged.values  # union still returned: every component has one

    def test_infeasible_component_wins_and_clears_values(self):
        model, split = self._split()
        solutions = self._component_solutions(split)
        solutions[0] = Solution(status=SolveStatus.INFEASIBLE)
        merged = merge_solutions(model, split, solutions)
        assert merged.status is SolveStatus.INFEASIBLE
        assert merged.values == {}
        assert merged.stats["components_infeasible"] == 1.0

    def test_timeout_component_reports_time_limit(self):
        model, split = self._split()
        solutions = self._component_solutions(split)
        solutions[1] = Solution(status=SolveStatus.TIME_LIMIT)
        merged = merge_solutions(model, split, solutions)
        assert merged.status is SolveStatus.TIME_LIMIT
        assert merged.values == {}
        assert merged.stats["components_timed_out"] == 1.0

    def test_infeasible_outranks_timeout(self):
        model, split = self._split()
        solutions = self._component_solutions(split)
        solutions[0] = Solution(status=SolveStatus.TIME_LIMIT)
        solutions[1] = Solution(status=SolveStatus.INFEASIBLE)
        merged = merge_solutions(model, split, solutions)
        assert merged.status is SolveStatus.INFEASIBLE

    def test_phase_seconds_are_summed_across_components(self):
        model, split = self._split()
        solutions = self._component_solutions(split)
        solutions[0].stats["search_seconds"] = 0.25
        solutions[1].stats["search_seconds"] = 0.5
        merged = merge_solutions(model, split, solutions)
        assert merged.stats["search_seconds"] == pytest.approx(0.75)


class TestDecomposingSolver:
    def test_matches_monolithic_objective(self):
        model = block_model(5)
        mono = get_solver("highs").solve(model)
        deco = DecomposingSolver(inner="highs", min_group_vars=1).solve(model)
        assert mono.status is SolveStatus.OPTIMAL
        assert deco.status is SolveStatus.OPTIMAL
        assert deco.objective == pytest.approx(mono.objective)
        assert deco.stats["components"] == 5.0

    def test_batching_does_not_change_the_optimum(self):
        model = block_model(5)
        fine = DecomposingSolver(inner="highs", min_group_vars=1).solve(model)
        coarse = DecomposingSolver(inner="highs", min_group_vars=10_000).solve(model)
        assert coarse.objective == pytest.approx(fine.objective)
        # Same true components either way; only the grouping differs.
        assert coarse.stats["components"] == fine.stats["components"] == 5.0
        assert coarse.stats["solve_groups"] < fine.stats["solve_groups"]

    def test_single_component_delegates_to_inner(self):
        model = Model("whole")
        x = model.add_continuous("x", lower=0.0, upper=10.0)
        y = model.add_continuous("y", lower=0.0, upper=10.0)
        model.add_ge(x + y, 3.0, "link")
        model.set_objective(x + y)
        solution = DecomposingSolver(inner="highs").solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert solution.solver_name == "decomposed"

    def test_decomposed_inner_falls_back_to_elementary_backend(self):
        solver = DecomposingSolver(inner="decomposed")
        assert solver.inner == "highs"

    def test_registry_builds_decomposed_with_inner(self):
        solver = get_solver("decomposed", inner="highs", time_limit=5.0)
        assert isinstance(solver, DecomposingSolver)
        assert solver.inner == "highs"


def integer_block_model(blocks: int = 3) -> Model:
    """Independent integer blocks: min x+y s.t. 2x+3y >= 7 (forces branching)."""
    model = Model("int-blocks")
    for index in range(blocks):
        x = model.add_integer(f"x{index}", lower=0, upper=10)
        y = model.add_integer(f"y{index}", lower=0, upper=10)
        model.add_ge(2 * x + 3 * y, 7.0, f"cover{index}")
        model.add_to_objective(x + y)
    return model


class TestTightDeadlines:
    """A timed-out component must merge to TIME_LIMIT, never INFEASIBLE.

    Regression for the PR 10 status-conflation fix: the pre-PR
    branch-and-bound loop read "the LP returned nothing" as an infeasible
    box, so a component whose budget expired mid-LP could flip a perfectly
    feasible repair to INFEASIBLE after the worst-status-wins merge.
    """

    @pytest.mark.parametrize("inner", ["branch-and-bound", "highs"])
    @pytest.mark.parametrize("time_limit", [0.0, 1e-7])
    def test_near_zero_budget_reports_time_limit(self, inner, time_limit):
        solver = DecomposingSolver(
            inner=inner, min_group_vars=1, time_limit=time_limit
        )
        solution = solver.solve(integer_block_model(3))
        assert solution.status is SolveStatus.TIME_LIMIT, (
            solution.status,
            solution.message,
        )
        assert solution.status is not SolveStatus.INFEASIBLE

    def test_generous_budget_still_solves(self):
        solution = DecomposingSolver(
            inner="branch-and-bound", min_group_vars=1, time_limit=60.0
        ).solve(integer_block_model(3))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(9.0)  # 3 blocks x (x=2, y=1)
