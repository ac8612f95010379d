"""The ``basic`` repair algorithm (Algorithm 1) with optional slicing.

``BasicRepairer`` parameterizes every candidate query at once, encodes the
whole log (all tuples, or only the complaint tuples when tuple slicing is
enabled), solves a single MILP, and converts the assignment into a repaired
log.  The slicing optimizations of Section 5 are toggled through
:class:`~repro.core.config.QFixConfig`.
"""

from __future__ import annotations

import time

from repro.core.complaints import ComplaintSet
from repro.core.config import QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.refinement import refine_repair
from repro.core.repair import RepairResult, build_repair_result
from repro.core.slicing import (
    all_full_impacts,
    compact_log,
    relevant_attributes,
    relevant_queries,
)
from repro.db.database import Database
from repro.db.schema import Schema
from repro.milp.solvers import Solver, get_solver
from repro.obs import trace as obs
from repro.queries.compiled import CompiledLog
from repro.queries.log import QueryLog


def _default_solver(config: QFixConfig) -> Solver:
    """The solver a repairer builds when none is injected.

    With ``config.decompose`` the backend named by ``config.solver`` becomes
    the *inner* solver of the decomposed backend, so component splitting
    engages without callers having to know the wrapper exists.  The engine
    injects its own :class:`DecomposingSolver` (with a shared component
    scheduler) instead of going through here.
    """
    name = "decomposed" if config.decompose else config.solver
    options: dict[str, object] = dict(
        time_limit=config.time_limit,
        mip_gap=config.mip_gap,
        use_presolve=config.use_presolve,
    )
    if config.decompose:
        options["inner"] = config.solver
    return get_solver(name, **options)


class BasicRepairer:
    """Single-shot MILP repair over the whole query log."""

    def __init__(self, config: QFixConfig | None = None, solver: Solver | None = None) -> None:
        self.config = config if config is not None else QFixConfig.basic()
        self.solver = solver if solver is not None else _default_solver(self.config)

    def repair(
        self,
        schema: Schema,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
    ) -> RepairResult:
        """Diagnose ``complaints`` and return a repaired log."""
        config = self.config
        complaint_attrs = complaints.complaint_attributes(final)

        impacts = None
        if config.query_slicing or config.attribute_slicing or config.decompose:
            impacts = all_full_impacts(log, schema)

        if config.query_slicing:
            candidates = relevant_queries(
                log, complaint_attrs, schema, single_fault=False, impacts=impacts
            )
        else:
            candidates = list(range(len(log)))

        encoded_attrs = None
        # Without query slicing, the decompose branch below derives its own
        # attribute set from the complaint-relevant candidates.
        if config.attribute_slicing and (config.query_slicing or not config.decompose):
            encoded_attrs = relevant_attributes(
                log, candidates, complaint_attrs, schema, impacts=impacts
            )

        compaction = None
        encode_log = log
        encode_candidates = list(candidates)
        if config.decompose:
            compact_candidates = list(candidates)
            if not config.query_slicing:
                # Compaction keys on the attribute set the encoding must
                # track; with every query a candidate that set is the whole
                # schema and nothing can be dropped.  Restricting candidates
                # to the complaint-relevant queries first is exactness-
                # preserving — an irrelevant parameter cannot influence any
                # encoded complaint cell, so every optimum leaves it at its
                # logged value — and is what lets compaction discard queries
                # belonging to foreign components.
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
            encode_candidates = compaction.remap(compact_candidates)
            encoded_attrs = target_attrs

        rids = complaints.rids if config.tuple_slicing else None
        # One compiled log serves the encode and every replay of this diagnosis.
        compiled = CompiledLog(schema)

        encode_start = time.perf_counter()
        with obs.span(
            "solver.encode",
            queries=len(encode_log),
            candidates=len(encode_candidates),
            compacted=compaction.dropped if compaction is not None else 0,
        ) as encode_span:
            encoder = LogEncoder(
                schema,
                initial,
                final,
                encode_log,
                complaints,
                config,
                parameterized=encode_candidates,
                rids=rids,
                encoded_attributes=encoded_attrs,
                candidate_indices=(
                    encode_candidates
                    if (config.query_slicing or config.decompose)
                    else None
                ),
                compiled=compiled,
            )
            problem = encoder.encode()
            encode_span.set_attribute("variables", problem.model.num_variables)
        encode_seconds = time.perf_counter() - encode_start
        if compaction is not None:
            problem.restore_original_indices(compaction)

        solution = self.solver.solve(problem.model)
        result = build_repair_result(
            initial,
            log,
            problem,
            solution,
            complaints,
            config=config,
            encode_seconds=encode_seconds,
            solve_seconds=solution.solve_seconds,
            compiled=compiled,
        )
        if result.feasible and config.tuple_slicing and config.refinement:
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
        return result
