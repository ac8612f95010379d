"""The incremental repair algorithm ``Inc_k`` (Algorithm 3).

The incremental repairer targets the common case of a single corrupted query.
It walks the log from the most recent query towards the oldest in batches of
``k`` consecutive queries, parameterizing only the current batch (everything
else stays at its logged constants, so the encoder constant-folds it away),
and returns the first batch that yields a feasible repair.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from repro.core.complaints import ComplaintSet
from repro.core.config import QFixConfig
from repro.core.encoder import LogEncoder, insert_rids
from repro.core.refinement import refine_repair
from repro.core.repair import (
    RepairResult,
    build_repair_result,
    repair_resolves_complaints,
)
from repro.core.slicing import (
    all_full_impacts,
    compact_log,
    relevant_attributes,
    relevant_queries,
)
from repro.db.database import Database
from repro.db.schema import Schema
from repro.milp.solution import SolveStatus
from repro.milp.solvers import Solver
from repro.obs import trace as obs
from repro.queries.compiled import CompiledLog
from repro.queries.log import QueryLog


def windows_newest_first(log_size: int, batch: int) -> Iterator[tuple[int, ...]]:
    """Yield index windows of size ``batch`` from the newest query to the oldest."""
    if batch < 1:
        raise ValueError("batch size must be at least 1")
    end = log_size
    while end > 0:
        start = max(0, end - batch)
        yield tuple(range(start, end))
        end = start


class IncrementalRepairer:
    """Window-by-window repair search (``Inc_k``)."""

    def __init__(self, config: QFixConfig | None = None, solver: Solver | None = None) -> None:
        self.config = config if config is not None else QFixConfig.fully_optimized()
        if solver is not None:
            self.solver = solver
        else:
            from repro.core.basic import _default_solver

            self.solver = _default_solver(self.config)

    def repair(
        self,
        schema: Schema,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
    ) -> RepairResult:
        """Search the log newest-to-oldest for a window whose repair resolves ``complaints``."""
        config = self.config
        start_time = time.perf_counter()
        complaint_attrs = complaints.complaint_attributes(final)

        impacts = None
        if config.query_slicing or config.attribute_slicing or config.decompose:
            impacts = all_full_impacts(log, schema)

        if config.query_slicing:
            candidates = set(
                relevant_queries(
                    log,
                    complaint_attrs,
                    schema,
                    single_fault=config.single_fault,
                    impacts=impacts,
                )
            )
        else:
            candidates = set(range(len(log)))

        encoded_attrs = None
        # Without query slicing, the decompose branch below derives its own
        # attribute set from the complaint-relevant candidates.
        if config.attribute_slicing and (config.query_slicing or not config.decompose):
            encoded_attrs = relevant_attributes(
                log, sorted(candidates), complaint_attrs, schema, impacts=impacts
            )

        # Compaction (decompose pipeline): drop queries that provably cannot
        # reach the encoded attributes, then run the window search over the
        # compacted log.  Candidates always survive compaction (their impact
        # intersects the complaint attributes), so the sequence of non-empty
        # windows is unchanged — older windows just arrive sooner.
        compaction = None
        encode_log = log
        if config.decompose:
            compact_candidates = sorted(candidates)
            if not config.query_slicing:
                # Same candidate restriction as BasicRepairer: without it the
                # relevant-attribute closure covers the whole schema and
                # compaction cannot drop anything.  single_fault=False keeps
                # the restriction sound regardless of the config's fault
                # assumption.
                compact_candidates = relevant_queries(
                    log, complaint_attrs, schema, single_fault=False, impacts=impacts
                )
            if config.query_slicing and encoded_attrs is not None:
                target_attrs = encoded_attrs
            else:
                target_attrs = relevant_attributes(
                    log, compact_candidates, complaint_attrs, schema, impacts=impacts
                )
            compaction = compact_log(log, target_attrs, schema, impacts=impacts)
            encode_log = compaction.log
            candidates = set(compaction.remap(compact_candidates))
            encoded_attrs = target_attrs

        rids = complaints.rids if config.tuple_slicing else None
        # One compiled log serves every window's encode and every replay of
        # this diagnosis.
        compiled = CompiledLog(schema)
        searched = candidates
        if rids is not None:
            # An INSERT writes only the tuple it creates.  Parameterizing one
            # whose tuple is not encoded changes nothing the encoded tuples
            # see, so a window of such INSERTs is always trivially infeasible.
            encoded = set(rids)
            searched = candidates - {
                index
                for index, rid in insert_rids(
                    compiled.of(encode_log), initial.table.next_rid
                ).items()
                if rid not in encoded
            }

        total_encode = 0.0
        total_solve = 0.0
        windows_tried = 0
        last_status = SolveStatus.INFEASIBLE
        last_message = ""
        last_stats: dict[str, float] = {}

        for window in windows_newest_first(len(encode_log), config.incremental_batch):
            parameterized = [index for index in window if index in searched]
            if not parameterized:
                continue
            windows_tried += 1

            encode_start = time.perf_counter()
            with obs.span(
                "solver.encode", window=windows_tried, candidates=len(parameterized)
            ) as encode_span:
                encoder = LogEncoder(
                    schema,
                    initial,
                    final,
                    encode_log,
                    complaints,
                    config,
                    parameterized=parameterized,
                    rids=rids,
                    encoded_attributes=encoded_attrs,
                    candidate_indices=(
                        sorted(candidates)
                        if (config.query_slicing or config.decompose)
                        else None
                    ),
                    compiled=compiled,
                )
                problem = encoder.encode()
                encode_span.set_attribute("variables", problem.model.num_variables)
            encode_seconds = time.perf_counter() - encode_start
            total_encode += encode_seconds
            if compaction is not None:
                problem.restore_original_indices(compaction)
            last_stats = dict(problem.stats)

            if problem.trivially_infeasible:
                last_status = SolveStatus.INFEASIBLE
                continue

            solution = self.solver.solve(problem.model)
            total_solve += solution.solve_seconds
            last_status = solution.status
            last_message = solution.message
            if not solution.status.has_solution:
                continue

            result = build_repair_result(
                initial,
                log,
                problem,
                solution,
                complaints,
                config=config,
                encode_seconds=total_encode,
                solve_seconds=total_solve,
                windows_tried=windows_tried,
                compiled=compiled,
            )
            if not result.feasible:
                continue
            if not repair_resolves_complaints(
                initial,
                result.repaired_log,
                complaints,
                final_state=result.repaired_state,
            ):
                # The solver satisfied the encoded constraints but the concrete
                # replay disagrees (e.g. sentinel-encoding corner cases); keep
                # searching older windows.
                continue
            if config.tuple_slicing and config.refinement:
                result = refine_repair(
                    schema,
                    initial,
                    final,
                    log,
                    complaints,
                    result,
                    config=config,
                    solver=self.solver,
                    compiled=compiled,
                )
            result.total_seconds = time.perf_counter() - start_time
            result.windows_tried = windows_tried
            return result

        return RepairResult(
            original_log=log,
            repaired_log=log,
            feasible=False,
            status=last_status,
            encode_seconds=total_encode,
            solve_seconds=total_solve,
            total_seconds=time.perf_counter() - start_time,
            windows_tried=windows_tried,
            problem_stats=last_stats,
            message=last_message or "no window produced a feasible repair",
        )


def single_query_windows(
    log: QueryLog | Sequence[object], candidates: Sequence[int]
) -> list[tuple[int, ...]]:
    """Helper used in tests: the Inc_1 windows restricted to candidate queries."""
    size = len(list(log))
    windows = []
    for window in windows_newest_first(size, 1):
        if window[0] in candidates:
            windows.append(window)
    return windows
