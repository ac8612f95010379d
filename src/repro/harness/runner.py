"""The harness runner: specs in, a checked :class:`HarnessReport` out.

The runner deliberately exercises the *production* path: every cell becomes a
:class:`~repro.service.types.DiagnosisRequest` and is served through
:meth:`DiagnosisEngine.run_matrix` (the same submit / thread-pool machinery
behind the CLI ``batch`` command and the HTTP ``/v1/batch`` endpoint), so a
sweep validates the stack end to end rather than a test-only code path.

Execution is organized scenario by scenario:

1. each distinct :class:`~repro.workload.spec.ScenarioSpec` is materialized
   once (and fingerprinted) no matter how many cells share it;
2. the scenario's cells go through ``run_matrix`` in one batch;
3. the per-cell and cross-cell oracles run over everything that executed.

A time budget cuts the sweep between scenario batches: cells that never ran
are reported as ``skipped`` (never as violations), so a budgeted CI run stays
honest about its coverage.  Scenario fingerprints are recorded even for
budget-skipped groups, keeping the report's determinism check independent of
where the budget happened to cut.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.metrics import evaluate_states
from repro.harness.grid import CellSpec
from repro.harness.oracle import check_cell, check_matrix
from repro.harness.report import CellResult, HarnessReport
from repro.queries.executor import replay
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest, DiagnosisResponse
from repro.workload.scenario import Scenario
from repro.workload.spec import build_spec_scenario, scenario_fingerprint


class HarnessRunner:
    """Drive a list of cells through the engine and the oracle.

    Parameters
    ----------
    engine:
        The :class:`DiagnosisEngine` to sweep through.  A private engine is
        created when omitted.  Cells carry their own full configuration, so
        the engine's default config never leaks into cell outcomes.
    """

    def __init__(self, engine: DiagnosisEngine | None = None) -> None:
        self.engine = engine if engine is not None else DiagnosisEngine()

    def run(
        self,
        cells: Sequence[CellSpec],
        *,
        grid_name: str = "",
        seed: int = 0,
        budget_seconds: float | None = None,
        max_workers: int | None = None,
        executor: str | None = None,
        max_inflight: int | None = None,
    ) -> HarnessReport:
        """Execute ``cells`` and return the checked report.

        ``executor`` / ``max_inflight`` override the engine's execution
        strategy per sweep (e.g. ``executor="process"`` certifies the
        multi-core path with the same oracles as the default sweep).
        """
        start = time.perf_counter()
        deadline = start + budget_seconds if budget_seconds is not None else None

        report = HarnessReport(grid=grid_name, seed=seed, budget_seconds=budget_seconds)
        scenarios: dict[str, Scenario] = {}
        executed: list[tuple[CellSpec, CellResult]] = []

        for scenario_label, group in _group_by_scenario(cells):
            # Scenarios are materialized and fingerprinted even when the
            # budget has already expired (building is cheap next to solving):
            # same-seed runs then report byte-identical fingerprints no
            # matter where their budgets happened to cut.
            scenario = build_spec_scenario(group[0].scenario)
            fingerprint = scenario_fingerprint(scenario)
            scenarios[scenario_label] = scenario
            report.scenario_fingerprints[scenario_label] = fingerprint

            if deadline is not None and time.perf_counter() > deadline:
                for cell in group:
                    report.cells.append(
                        _skipped_row(cell, reason="budget", fingerprint=fingerprint)
                    )
                continue

            if len(scenario.complaints) == 0:
                # The corruption produced no observable (reported) data error;
                # there is nothing to diagnose and nothing to hold an oracle to.
                for cell in group:
                    report.cells.append(
                        _skipped_row(cell, reason="vacuous", fingerprint=fingerprint)
                    )
                continue

            responses = self.engine.run_matrix(
                [(cell.cell_id, _cell_request(cell, scenario)) for cell in group],
                max_workers=max_workers,
                executor=executor,
                max_inflight=max_inflight,
            )

            for cell in group:
                response = responses[cell.cell_id]
                row = _result_row(cell, scenario, fingerprint, response)
                report.cells.append(row)
                executed.append((cell, row))
                report.violations.extend(check_cell(cell, scenario, response, row))

        report.violations.extend(check_matrix(executed, scenarios))
        report.elapsed_seconds = time.perf_counter() - start
        return report


def run_grid(
    cells: Sequence[CellSpec],
    *,
    grid_name: str = "",
    seed: int = 0,
    budget_seconds: float | None = None,
    max_workers: int | None = None,
    executor: str | None = None,
    max_inflight: int | None = None,
    engine: DiagnosisEngine | None = None,
) -> HarnessReport:
    """Convenience wrapper: one call from cells to a checked report."""
    runner = HarnessRunner(engine)
    return runner.run(
        cells,
        grid_name=grid_name,
        seed=seed,
        budget_seconds=budget_seconds,
        max_workers=max_workers,
        executor=executor,
        max_inflight=max_inflight,
    )


def _group_by_scenario(
    cells: Iterable[CellSpec],
) -> list[tuple[str, list[CellSpec]]]:
    """Cells grouped by scenario label, preserving first-seen order."""
    groups: dict[str, list[CellSpec]] = {}
    for cell in cells:
        groups.setdefault(cell.scenario.label(), []).append(cell)
    return list(groups.items())


def _cell_request(cell: CellSpec, scenario: Scenario) -> DiagnosisRequest:
    return DiagnosisRequest(
        initial=scenario.initial,
        log=scenario.corrupted_log,
        complaints=scenario.complaints,
        final=scenario.dirty,
        diagnoser=cell.diagnoser,
        config=cell.config(),
        request_id=cell.cell_id,
    )


def _skipped_row(
    cell: CellSpec, *, reason: str, fingerprint: str = ""
) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id,
        scenario_label=cell.scenario.label(),
        scenario_fingerprint=fingerprint,
        diagnoser=cell.diagnoser,
        solver=cell.solver,
        use_presolve=cell.use_presolve,
        decompose=cell.decompose,
        status=reason,
        skipped=True,
    )


def _result_row(
    cell: CellSpec,
    scenario: Scenario,
    fingerprint: str,
    response: DiagnosisResponse,
) -> CellResult:
    accuracy = None
    if response.ok and response.result is not None:
        # Score against the ground truth the scenario recorded at build time.
        # The repaired final state is replayed here (not trusted from the
        # response) so the score reflects what the repair actually does.
        repaired = replay(scenario.initial, response.result.repaired_log)
        accuracy = evaluate_states(scenario.dirty, scenario.truth, repaired)
    return CellResult(
        cell_id=cell.cell_id,
        scenario_label=cell.scenario.label(),
        scenario_fingerprint=fingerprint,
        diagnoser=cell.diagnoser,
        solver=cell.solver,
        use_presolve=cell.use_presolve,
        decompose=cell.decompose,
        ok=response.ok,
        feasible=response.feasible,
        status=response.status,
        distance=response.distance,
        changed_query_indices=tuple(response.changed_query_indices),
        accuracy=accuracy,
        complaints=len(scenario.complaints),
        full_complaints=len(scenario.full_complaints),
        elapsed_seconds=response.elapsed_seconds,
        error_type=response.error_type,
        error_message=response.error_message,
        phase_seconds=_phase_seconds(response.summary),
        components=_int_stat(response.summary, "stats.components"),
        largest_component_vars=_int_stat(response.summary, "stats.largest_component_vars"),
        compacted_queries=_int_stat(response.summary, "stats.compacted_queries"),
        lp_relaxations=_int_stat(response.summary, "stats.lp_relaxations"),
        lp_skipped=_int_stat(response.summary, "stats.lp_skipped"),
        bigm_tightened=_int_stat(response.summary, "stats.presolve_bigm_tightened"),
        highs_presolve_retry=_int_stat(response.summary, "stats.highs_presolve_retry"),
    )


def _int_stat(summary: "dict[str, object]", key: str) -> int:
    """An integer-valued counter from a response summary (0 when absent)."""
    try:
        return int(float(summary.get(key, 0)))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0


def _phase_seconds(summary: "dict[str, object]") -> dict[str, float]:
    """Phase-level timings from a response summary.

    ``encode_seconds`` / ``solve_seconds`` are top-level summary fields; the
    solver backends additionally report ``stats.presolve_seconds`` /
    ``stats.search_seconds`` / ``stats.lp_seconds`` — each becomes a phase
    named by its stripped key (``encode``, ``solve``, ``presolve``, …).
    """
    phases: dict[str, float] = {}
    for key, value in summary.items():
        name = key[len("stats."):] if key.startswith("stats.") else key
        if not name.endswith("_seconds") or name == "total_seconds":
            continue
        try:
            phases[name[: -len("_seconds")]] = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
    return phases
