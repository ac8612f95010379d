"""The differential oracle: invariants the paper guarantees, checked per sweep.

Example-based tests pin *outputs*; the oracle pins *properties* that must hold
for every cell of the matrix, whatever the scenario:

* **resolution** — a feasible repair from an exact (MILP-backed) diagnoser,
  replayed over the initial state, resolves every reported complaint
  (Theorem 1 territory: the encoding is sound).
* **agreement** — cells that differ only in solver backend or presolve (same
  scenario, same diagnoser) agree on feasibility and on repair quality (the
  minimized parameter-space distance): both backends solve the same MILP to
  optimality, and presolve is quality-preserving.
* **convergence** — on single-fault scenarios, the windowed incremental
  search finds a repair whenever the global basic encoding does (Section 5.4:
  the window walk degenerates to basic at the latest when it reaches the
  corrupted query).  Distances are *not* compared across the two algorithms:
  tuple slicing plus refinement legitimately trades repair distance for
  collateral-damage control, so only identical-config cells (the agreement
  oracle) are held to equal distance.
* **decomposition** — a cell routed through the decompose-and-conquer
  pipeline (log compaction + component splitting) agrees with its monolithic
  twin: same feasibility verdict whenever both made a claim, and the same
  repair distance and changed-query fingerprint whenever both proved
  optimality.  The pipeline is an exactness-preserving transformation, so any
  disagreement is a bug, not a trade-off.
* **scoring** — reported accuracy metrics follow from their own tuple counts,
  and the ground-truth bookkeeping matches the scenario: ``true_errors``
  equals the full complaint set, and resolving a *complete* complaint set
  implies perfect recall.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.repair import repair_resolves_complaints
from repro.harness.grid import CellSpec
from repro.harness.report import CellResult, OracleViolation
from repro.service.types import DiagnosisResponse
from repro.workload.scenario import Scenario

#: Absolute tolerance when comparing repair distances across backends.  The
#: MILPs are solved to a 1e-6 relative gap; 1e-3 absorbs rounding of integral
#: parameters without masking genuine quality differences (>= one unit).
DISTANCE_TOLERANCE = 1e-3


def check_cell(
    cell: CellSpec,
    scenario: Scenario,
    response: DiagnosisResponse,
    result_row: CellResult,
) -> list[OracleViolation]:
    """Per-cell invariants: resolution + scoring consistency."""
    violations: list[OracleViolation] = []
    cell_id = cell.cell_id

    if not response.ok:
        if cell.exact:
            violations.append(
                OracleViolation(
                    "no-crash",
                    cell_id,
                    f"exact diagnoser raised {response.error_type}: {response.error_message}",
                )
            )
        return violations

    if response.feasible and cell.exact:
        repaired_log = (
            response.result.repaired_log if response.result is not None else None
        )
        if repaired_log is None:
            violations.append(
                OracleViolation(
                    "resolution", cell_id, "feasible response carries no repaired log"
                )
            )
        elif not repair_resolves_complaints(
            scenario.initial, repaired_log, scenario.complaints
        ):
            violations.append(
                OracleViolation(
                    "resolution",
                    cell_id,
                    "replaying the returned repair does not resolve every reported complaint",
                )
            )

    accuracy = result_row.accuracy
    if accuracy is not None:
        for problem in accuracy.consistency_errors():
            violations.append(OracleViolation("scoring", cell_id, problem))
        if accuracy.true_errors != len(scenario.full_complaints):
            violations.append(
                OracleViolation(
                    "scoring",
                    cell_id,
                    f"true_errors {accuracy.true_errors} != ground-truth complaint "
                    f"count {len(scenario.full_complaints)}",
                )
            )
        complete = cell.scenario.complaint_fraction >= 1.0
        if (
            complete
            and cell.exact
            and response.feasible
            and not violations
            and accuracy.recall < 1.0 - 1e-9
        ):
            violations.append(
                OracleViolation(
                    "scoring",
                    cell_id,
                    "repair resolves a complete complaint set but recall is "
                    f"{accuracy.recall} (every true error should be fixed)",
                )
            )
    return violations


def _made_a_claim(row: CellResult) -> bool:
    """Whether the cell's solver made a claim about repair *existence*.

    ``optimal`` and ``feasible`` both exhibit a repair; ``infeasible`` proves
    there is none.  ``time_limit`` (and ``error`` et al.) claim nothing —
    comparing such a cell against one that finished would turn a budget
    artifact into a phantom violation.
    """
    return row.status in ("optimal", "feasible", "infeasible")


def _proved_optimal(row: CellResult) -> bool:
    """Whether the cell's distance is a proven optimum.

    A ``feasible`` status is an incumbent a budget cut short of proof — its
    distance is an upper bound, not the optimum, so it must not enter the
    exact-distance agreement comparison.
    """
    return row.status == "optimal"


def _differential_groups(
    rows: Iterable[tuple[CellSpec, CellResult]],
) -> dict[tuple[str, str], list[tuple[CellSpec, CellResult]]]:
    """Group executed, decided, exact cells by (scenario, diagnoser)."""
    groups: dict[tuple[str, str], list[tuple[CellSpec, CellResult]]] = {}
    for cell, row in rows:
        if row.skipped or not row.ok or not cell.exact or not _made_a_claim(row):
            continue
        groups.setdefault((cell.scenario.label(), cell.diagnoser), []).append((cell, row))
    return groups


def check_agreement(
    rows: Iterable[tuple[CellSpec, CellResult]],
) -> list[OracleViolation]:
    """Backend / presolve agreement within each differential group."""
    violations: list[OracleViolation] = []
    for (scenario_label, diagnoser), members in _differential_groups(rows).items():
        if len(members) < 2:
            continue
        reference_cell, reference = members[0]
        for cell, row in members[1:]:
            if row.feasible != reference.feasible:
                violations.append(
                    OracleViolation(
                        "agreement",
                        cell.cell_id,
                        f"feasibility {row.feasible} disagrees with "
                        f"{reference_cell.cell_id} ({reference.feasible}) on "
                        f"{scenario_label}/{diagnoser}",
                    )
                )
        # Exact-distance agreement only among proven optima: a 'feasible'
        # incumbent that a time limit cut short is a legitimate upper bound,
        # not a disagreement about the optimum.
        optima = [(cell, row) for cell, row in members if row.feasible and _proved_optimal(row)]
        if len(optima) < 2:
            continue
        reference_cell, reference = optima[0]
        for cell, row in optima[1:]:
            if abs(row.distance - reference.distance) > DISTANCE_TOLERANCE:
                violations.append(
                    OracleViolation(
                        "agreement",
                        cell.cell_id,
                        f"repair distance {row.distance} disagrees with "
                        f"{reference_cell.cell_id} ({reference.distance})",
                    )
                )
    return violations


def check_convergence(
    rows: Iterable[tuple[CellSpec, CellResult]],
    scenarios: Mapping[str, Scenario],
) -> list[OracleViolation]:
    """Incremental-vs-basic convergence on single-fault scenarios.

    Only scenarios with exactly one corrupted query are in scope: the
    incremental search parameterizes one window at a time, so a multi-query
    corruption can legitimately defeat every window while the global basic
    encoding still finds a repair.
    """
    violations: list[OracleViolation] = []
    by_scenario: dict[str, dict[str, tuple[CellSpec, CellResult]]] = {}
    for cell, row in rows:
        if row.skipped or not row.ok or not cell.use_presolve:
            continue
        if cell.solver != "highs" or not cell.exact or not _made_a_claim(row):
            continue
        by_scenario.setdefault(cell.scenario.label(), {})[cell.diagnoser] = (cell, row)
    for scenario_label, cells in by_scenario.items():
        if "basic" not in cells or "incremental" not in cells:
            continue
        scenario = scenarios.get(scenario_label)
        if scenario is None or len(scenario.corrupted_indices) != 1:
            continue
        _, basic = cells["basic"]
        incremental_cell, incremental = cells["incremental"]
        if basic.feasible and not incremental.feasible:
            violations.append(
                OracleViolation(
                    "convergence",
                    incremental_cell.cell_id,
                    f"basic found a repair on {scenario_label} but the "
                    "incremental window walk did not",
                )
            )
    return violations


def check_decomposition(
    rows: Iterable[tuple[CellSpec, CellResult]],
) -> list[OracleViolation]:
    """Decomposed-vs-monolithic equivalence for otherwise identical cells.

    Log compaction drops only queries that provably cannot reach the
    complaint set, and component splitting partitions an exactly equivalent
    MILP — so a decomposed cell must reach the *same verdict* as its
    monolithic twin whenever both made a claim, and the *same repair*
    (distance and changed-query fingerprint) whenever both proved optimality.
    A twin that timed out claims nothing: decomposition finishing where the
    monolith ran out of budget is the point, not a violation.
    """
    violations: list[OracleViolation] = []
    twins: dict[tuple[str, str, str, bool], dict[bool, tuple[CellSpec, CellResult]]] = {}
    for cell, row in rows:
        if row.skipped or not row.ok or not cell.exact or not _made_a_claim(row):
            continue
        key = (
            cell.scenario.label(),
            cell.diagnoser,
            cell.solver,
            cell.use_presolve,
        )
        twins.setdefault(key, {})[cell.decompose] = (cell, row)
    for pair in twins.values():
        if False not in pair or True not in pair:
            continue
        mono_cell, mono = pair[False]
        deco_cell, deco = pair[True]
        if deco.feasible != mono.feasible:
            violations.append(
                OracleViolation(
                    "decomposition",
                    deco_cell.cell_id,
                    f"feasibility {deco.feasible} disagrees with monolithic twin "
                    f"{mono_cell.cell_id} ({mono.feasible})",
                )
            )
            continue
        if not (deco.feasible and _proved_optimal(deco) and _proved_optimal(mono)):
            continue
        if abs(deco.distance - mono.distance) > DISTANCE_TOLERANCE:
            violations.append(
                OracleViolation(
                    "decomposition",
                    deco_cell.cell_id,
                    f"repair distance {deco.distance} disagrees with monolithic "
                    f"twin {mono_cell.cell_id} ({mono.distance})",
                )
            )
        if deco.changed_query_indices != mono.changed_query_indices:
            violations.append(
                OracleViolation(
                    "decomposition",
                    deco_cell.cell_id,
                    f"repair fingerprint {list(deco.changed_query_indices)} disagrees "
                    f"with monolithic twin {mono_cell.cell_id} "
                    f"({list(mono.changed_query_indices)})",
                )
            )
    return violations


def check_matrix(
    rows: "list[tuple[CellSpec, CellResult]]",
    scenarios: Mapping[str, Scenario],
) -> list[OracleViolation]:
    """All cross-cell oracles over one sweep's executed cells."""
    return (
        check_agreement(rows)
        + check_convergence(rows, scenarios)
        + check_decomposition(rows)
    )
