"""Pure-Python branch-and-bound MILP solver.

This backend exists for two reasons: it demonstrates that the QFix encoding
does not depend on any particular solver, and it provides a slow-but-simple
cross-check for the HiGHS backend in the test suite (both must return repairs
of identical objective value on small instances).

The algorithm is best-first branch-and-bound over the sparse matrix export,
with the LP hot path factored into :mod:`repro.milp.relaxation`:

1. run the matrix presolve (bound tightening, fixed-variable elimination,
   big-M tightening, trivial-infeasibility screening) once per model;
2. pop up to ``lp_batch_size`` frontier nodes per iteration and solve their
   relaxations concurrently through the shared
   :class:`~repro.milp.relaxation.RelaxationEngine` pool (HiGHS releases
   the GIL); when a relaxation is integral record it as the incumbent,
   otherwise branch on the most fractional integer variable, pruning nodes
   whose bound cannot beat the incumbent;
3. after branching, try to *inherit* the parent's LP optimum into each
   child (clamp the branching variable to the child bound, verify row
   feasibility via one sparse column delta): a child whose optimum is
   proven this way never pays an LP solve (``lp_skipped``).

LP failures are status-aware: a relaxation that hits the time budget stops
the search with TIME_LIMIT and is never mistaken for an infeasible box.

Branch feasibility is checked against the *current node's* tightened bounds,
not the root bounds: the root-bounds check admits child boxes that the node's
own branching already emptied (``lower > upper``), each of which costs a
wasted LP solve and counts against ``max_nodes``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.milp.model import Model
from repro.milp.presolve import presolve
from repro.milp.relaxation import LPOutcome, RelaxationEngine
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.base import Solver, finalize_solution_values
from repro.obs import trace as obs

#: Tolerance within which a relaxation value counts as integral.
INTEGRALITY_TOLERANCE = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound search node (ordered by relaxation bound)."""

    bound: float
    sequence: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    #: The node's known LP optimum, inherited from its parent at branch time
    #: (None when the node must solve its own relaxation).
    inherited_x: "np.ndarray | None" = field(compare=False, default=None)


class BranchAndBoundSolver(Solver):
    """Best-first branch-and-bound over LP relaxations."""

    name = "branch-and-bound"

    def __init__(
        self,
        *,
        time_limit: float | None = None,
        mip_gap: float = 1e-6,
        max_nodes: int = 50_000,
        use_presolve: bool = True,
        lp_reuse: bool = True,
        lp_batch_size: int = 4,
    ) -> None:
        super().__init__(time_limit=time_limit, mip_gap=mip_gap)
        self.max_nodes = max_nodes
        self.use_presolve = use_presolve
        #: Gate for the parent-solution inheritance check (see module doc).
        self.lp_reuse = lp_reuse
        #: Frontier nodes whose relaxations are solved concurrently per
        #: iteration; 1 restores strict one-node-at-a-time best-first order.
        self.lp_batch_size = max(1, int(lp_batch_size))

    def solve(self, model: Model) -> Solution:
        start = time.perf_counter()
        matrices = model.to_matrices()
        n = len(matrices["c"])
        if n == 0:
            violated = model.check_assignment({})
            if violated:
                return Solution(SolveStatus.INFEASIBLE, None, {}, 0.0, self.name)
            return Solution(SolveStatus.OPTIMAL, 0.0, {}, 0.0, self.name)

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
                elapsed = time.perf_counter() - start
                return Solution(
                    SolveStatus.INFEASIBLE, None, {}, elapsed, self.name,
                    message=f"presolve: {reduction.reason}", stats=stats,
                )
            matrices = reduction.matrices

        integer_indices = np.flatnonzero(matrices["integrality"] == 1)
        engine = RelaxationEngine(
            matrices, batch_size=self.lp_batch_size, reuse=self.lp_reuse
        )

        incumbent_x: np.ndarray | None = None
        incumbent_obj = np.inf
        counter = itertools.count()
        explored = 0
        incumbent_updates = 0
        hit_limit = False
        limit_reason = ""

        root = _Node(-np.inf, next(counter), matrices["lb_var"].copy(), matrices["ub_var"].copy())
        heap = [root]
        relaxation_feasible_somewhere = False

        search_start = time.perf_counter()
        with obs.span("solver.search", solver=self.name) as search_span:
            while heap and not hit_limit:
                if explored >= self.max_nodes:
                    hit_limit, limit_reason = True, "node limit"
                    break
                remaining = self._remaining_time(start)
                if remaining is not None and remaining <= 0.0:
                    hit_limit, limit_reason = True, "time limit"
                    break

                gap = self.mip_gap * max(1.0, abs(incumbent_obj))
                batch: list[_Node] = []
                batch_cap = min(self.lp_batch_size, self.max_nodes - explored)
                while heap and len(batch) < batch_cap:
                    node = heapq.heappop(heap)
                    if node.bound >= incumbent_obj - gap:
                        continue
                    batch.append(node)
                if not batch:
                    continue

                need_lp = [node for node in batch if node.inherited_x is None]
                outcomes: dict[int, LPOutcome] = {}
                if need_lp:
                    results = engine.solve_batch(
                        [(node.lower, node.upper) for node in need_lp],
                        time_limit=remaining,
                    )
                    for node, outcome in zip(need_lp, results):
                        outcomes[node.sequence] = outcome

                for node in batch:
                    explored += 1
                    if node.inherited_x is not None:
                        engine.lp_skipped += 1
                        outcome = LPOutcome(
                            "optimal", node.bound, node.inherited_x, inherited=True
                        )
                    else:
                        outcome = outcomes[node.sequence]
                    if outcome.status == "timeout":
                        # The relaxation hit the remaining budget: stop with a
                        # limit, never with a spurious infeasibility verdict.
                        hit_limit, limit_reason = True, "time limit"
                        break
                    if not outcome.ok:
                        continue
                    relaxation_feasible_somewhere = True
                    lp_obj, lp_x = outcome.objective, outcome.x
                    if lp_obj >= incumbent_obj - self.mip_gap * max(1.0, abs(incumbent_obj)):
                        continue
                    branch_index = _most_fractional(lp_x, integer_indices)
                    if branch_index is None:
                        incumbent_obj = lp_obj
                        incumbent_x = lp_x
                        incumbent_updates += 1
                        search_span.add_event(
                            "incumbent", objective=float(lp_obj), node=explored
                        )
                        continue
                    children = list(self._child_nodes(
                        node, branch_index, np.floor(lp_x[branch_index]), lp_obj, counter
                    ))
                    if children and self.lp_reuse:
                        activity = engine.row_activity(lp_x)
                        for child in children:
                            child.inherited_x = engine.try_inherit(
                                lp_x, lp_obj, activity, branch_index,
                                child.lower, child.upper,
                            )
                    for child in children:
                        heapq.heappush(heap, child)
            search_span.set_attribute("nodes_explored", explored)
            search_span.set_attribute("lp_relaxations", engine.lp_calls)
            search_span.set_attribute("lp_skipped", engine.lp_skipped)
            search_span.set_attribute("lp_batched", engine.lp_batched)
            search_span.set_attribute("incumbent_updates", incumbent_updates)

        elapsed = time.perf_counter() - start
        stats["nodes_explored"] = float(explored)
        stats["search_seconds"] = time.perf_counter() - search_start
        stats["lp_seconds"] = engine.lp_seconds
        stats["lp_relaxations"] = float(engine.lp_calls)
        stats["lp_skipped"] = float(engine.lp_skipped)
        stats["lp_batched"] = float(engine.lp_batched)
        stats["incumbent_updates"] = float(incumbent_updates)
        if incumbent_x is not None:
            raw = {
                variable.name: float(incumbent_x[variable.index])
                for variable in model.variables
            }
            values, warning = finalize_solution_values(model, raw)
            status = SolveStatus.FEASIBLE if hit_limit else SolveStatus.OPTIMAL
            message = warning or (f"stopped by {limit_reason}" if hit_limit else "")
            return Solution(
                status, float(incumbent_obj), values, elapsed, self.name,
                message=message, stats=stats,
            )
        if hit_limit:
            # Pruned search, no integer point yet: this is a limit, not a
            # proof of infeasibility.
            return Solution(
                SolveStatus.TIME_LIMIT, None, {}, elapsed, self.name,
                message=f"stopped by {limit_reason} before an integer-feasible point",
                stats=stats,
            )
        message = (
            "search exhausted: integer infeasible (LP relaxation was feasible)"
            if relaxation_feasible_somewhere
            else "LP relaxation infeasible"
        )
        return Solution(
            SolveStatus.INFEASIBLE, None, {}, elapsed, self.name,
            message=message, stats=stats,
        )

    # -- search steps ------------------------------------------------------------

    def _child_nodes(
        self,
        node: _Node,
        branch_index: int,
        floor_value: float,
        bound: float,
        counter: "itertools.count[int]",
    ) -> Iterator[_Node]:
        """Yield the down/up children of ``node`` whose boxes are non-empty.

        Feasibility is checked against ``node.lower`` / ``node.upper`` — the
        bounds the child actually inherits.  The historical code compared
        against the *root* bounds instead, admitting boxes that branching had
        already emptied; the regression test reproduces that by overriding
        this method.
        """
        # Down branch: x <= floor(value)
        if node.lower[branch_index] <= floor_value:
            down_upper = node.upper.copy()
            down_upper[branch_index] = floor_value
            yield _Node(bound, next(counter), node.lower.copy(), down_upper)
        # Up branch: x >= floor(value) + 1
        if node.upper[branch_index] >= floor_value + 1.0:
            up_lower = node.lower.copy()
            up_lower[branch_index] = floor_value + 1.0
            yield _Node(bound, next(counter), up_lower, node.upper.copy())

    def _remaining_time(self, start: float) -> float | None:
        if self.time_limit is None:
            return None
        return self.time_limit - (time.perf_counter() - start)


def _most_fractional(x: np.ndarray, integer_indices: np.ndarray) -> int | None:
    """Index of the integer variable farthest from an integer value, or None."""
    if integer_indices.size == 0:
        return None
    values = x[integer_indices]
    fractional = np.abs(values - np.round(values))
    worst = int(np.argmax(fractional))
    if fractional[worst] <= INTEGRALITY_TOLERANCE:
        return None
    return int(integer_indices[worst])
