"""Tuple-slicing refinement step (Section 5.1, Step 2).

When only the complaint tuples are encoded, the repair may over-generalize and
sweep up non-complaint tuples (Figure 5b in the paper).  The refinement step
re-solves a much smaller MILP over ``C+ = C ∪ NC`` — the complaints plus the
non-complaint tuples newly affected by the step-1 repair — parameterizing only
the repaired queries and minimizing the number of affected non-complaint
tuples (their constraints are soft, weighted binaries).
"""

from __future__ import annotations

import time

from repro.core.complaints import ComplaintSet
from repro.core.config import QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.repair import RepairResult, build_repair_result
from repro.db.database import Database
from repro.db.schema import Schema
from repro.milp.solvers import Solver
from repro.queries.compiled import CompiledLog
from repro.queries.executor import replay
from repro.queries.log import QueryLog

#: Objective weight of one affected non-complaint tuple relative to one unit of
#: parameter movement.  Large enough that excluding a tuple always wins.
SOFT_WEIGHT = 1.0

#: Weight of the parameter-distance tie-breaker in the refinement objective.
PARAM_WEIGHT = 1e-3


def affected_non_complaints(
    initial: Database,
    dirty: Database,
    repaired_log: QueryLog,
    complaints: ComplaintSet,
    *,
    tolerance: float = 1e-6,
    repaired_state: Database | None = None,
    compiled: CompiledLog | None = None,
) -> list[int]:
    """Non-complaint tuples whose values change under the repaired log (``NC``).

    ``repaired_state`` short-circuits the replay when the caller already holds
    ``replay(initial, repaired_log)`` (e.g. :attr:`RepairResult.repaired_state`
    cached by the step-1 finalization); otherwise the replay runs on
    ``compiled``.
    """
    if repaired_state is None:
        repaired_state = replay(initial, repaired_log, compiled=compiled)
    affected = []
    rids = sorted(set(dirty.rids) | set(repaired_state.rids))
    for rid in rids:
        if rid in complaints:
            continue
        dirty_row = dirty.get(rid)
        repaired_row = repaired_state.get(rid)
        if (dirty_row is None) != (repaired_row is None):
            affected.append(rid)
            continue
        if dirty_row is None or repaired_row is None:
            continue
        if not dirty_row.same_values(repaired_row, tolerance=tolerance):
            affected.append(rid)
    return affected


def refine_repair(
    schema: Schema,
    initial: Database,
    final: Database,
    original_log: QueryLog,
    complaints: ComplaintSet,
    step1: RepairResult,
    *,
    config: QFixConfig,
    solver: Solver,
    compiled: CompiledLog | None = None,
) -> RepairResult:
    """Run the refinement MILP; return the improved result (or ``step1`` unchanged).

    ``compiled`` is the diagnosis's compiled log: the step-1 repair keeps
    every untouched query by identity, so its kernels carry over.
    """
    if not step1.feasible or not step1.changed_query_indices:
        return step1
    if compiled is None:
        compiled = CompiledLog(schema)
    nc_rids = affected_non_complaints(
        initial,
        final,
        step1.repaired_log,
        complaints,
        repaired_state=step1.repaired_state,
        compiled=compiled,
    )
    if not nc_rids:
        return step1

    rids = list(complaints.rids) + nc_rids
    soft = {rid: SOFT_WEIGHT for rid in nc_rids}

    encode_start = time.perf_counter()
    encoder = LogEncoder(
        schema,
        initial,
        final,
        step1.repaired_log,
        complaints,
        config,
        parameterized=step1.changed_query_indices,
        rids=rids,
        encoded_attributes=None,
        candidate_indices=None,
        soft_rids=soft,
        param_objective_weight=PARAM_WEIGHT,
        compiled=compiled,
    )
    problem = encoder.encode()
    encode_seconds = time.perf_counter() - encode_start

    solution = solver.solve(problem.model)
    if not solution.status.has_solution:
        return step1

    refined = build_repair_result(
        initial,
        step1.repaired_log,
        problem,
        solution,
        complaints,
        config=config,
        encode_seconds=encode_seconds,
        solve_seconds=solution.solve_seconds,
        compiled=compiled,
    )
    if not refined.feasible:
        return step1

    # Express the refined log as a repair of the *original* log so that
    # distances and changed-query indices stay comparable.
    from repro.queries.log import changed_queries, log_distance  # local import, no cycle

    final_log = refined.repaired_log
    return RepairResult(
        original_log=original_log,
        repaired_log=final_log,
        feasible=True,
        status=refined.status,
        changed_query_indices=tuple(changed_queries(original_log, final_log)),
        parameter_values={**step1.parameter_values, **refined.parameter_values},
        distance=log_distance(original_log, final_log),
        encode_seconds=step1.encode_seconds + encode_seconds,
        solve_seconds=step1.solve_seconds + refined.solve_seconds,
        total_seconds=step1.total_seconds + refined.total_seconds,
        windows_tried=step1.windows_tried,
        refined=True,
        repaired_state=refined.repaired_state,
        problem_stats=dict(step1.problem_stats),
        message=refined.message,
        # Warm starts replay against the step-1 encoding (the refinement
        # model has a different variable universe), so cache those values.
        solution_values=dict(step1.solution_values),
    )
