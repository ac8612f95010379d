"""Harness runner, run_matrix, oracles, and report round-trips."""

from __future__ import annotations

import pytest

from repro.exceptions import ReproError
from repro.harness import (
    CellSpec,
    available_grids,
    get_grid,
    run_grid,
)
from repro.harness.oracle import check_agreement, check_cell, check_convergence
from repro.harness.report import CellResult, HarnessReport, OracleViolation
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest, DiagnosisResponse
from repro.workload import ScenarioSpec, build_spec_scenario


@pytest.fixture(scope="module")
def micro_report():
    """One micro-grid sweep shared by the assertions below."""
    cells = get_grid("micro", seed=1)
    return run_grid(cells, grid_name="micro", seed=1), cells


class TestGrids:
    def test_builtin_grids_registered(self):
        for name in ("micro", "smoke", "full"):
            assert name in available_grids()

    def test_unknown_grid_raises(self):
        with pytest.raises(ReproError, match="unknown grid"):
            get_grid("nope")

    def test_smoke_grid_is_at_least_24_cells_and_unique(self):
        cells = get_grid("smoke", seed=1)
        assert len(cells) >= 24
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids)

    def test_cell_config_carries_all_axes(self):
        cell = CellSpec(
            scenario=ScenarioSpec(seed=3),
            diagnoser="incremental",
            solver="branch-and-bound",
            use_presolve=False,
            time_limit=7.0,
        )
        config = cell.config()
        assert config.diagnoser == "incremental"
        assert config.solver == "branch-and-bound"
        assert config.use_presolve is False
        assert config.time_limit == 7.0
        assert "nopresolve" in cell.cell_id


class TestRunMatrix:
    def test_keys_map_to_responses(self, small_scenario):
        engine = DiagnosisEngine()
        request = DiagnosisRequest(
            initial=small_scenario.initial,
            log=small_scenario.corrupted_log,
            complaints=small_scenario.complaints,
            final=small_scenario.dirty,
        )
        responses = engine.run_matrix({"a": request, "b": request})
        assert set(responses) == {"a", "b"}
        assert responses["a"].request_id == "a"
        assert responses["b"].request_id == "b"
        assert responses["a"].ok and responses["a"].feasible

    def test_duplicate_cell_ids_rejected(self, small_scenario):
        engine = DiagnosisEngine()
        request = DiagnosisRequest(
            initial=small_scenario.initial,
            log=small_scenario.corrupted_log,
            complaints=small_scenario.complaints,
        )
        with pytest.raises(ReproError, match="duplicate matrix cell id"):
            engine.run_matrix([("x", request), ("x", request)])

    def test_empty_matrix(self):
        assert DiagnosisEngine().run_matrix([]) == {}


class TestMicroSweep:
    def test_every_cell_executes_without_violations(self, micro_report):
        report, cells = micro_report
        assert len(report.cells) == len(cells)
        assert not report.violations
        assert all(cell.ok for cell in report.cells)
        assert all(not cell.skipped for cell in report.cells)

    def test_backends_agree_cell_by_cell(self, micro_report):
        report, _ = micro_report
        by_group: dict[tuple[str, str], set[float]] = {}
        for cell in report.cells:
            by_group.setdefault((cell.scenario_label, cell.diagnoser), set()).add(
                round(cell.distance, 3)
            )
        for group, distances in by_group.items():
            assert len(distances) == 1, (group, distances)

    def test_accuracy_present_and_consistent(self, micro_report):
        report, _ = micro_report
        for cell in report.cells:
            assert cell.accuracy is not None
            assert cell.accuracy.consistency_errors() == []
            assert cell.full_complaints == cell.accuracy.true_errors

    def test_report_round_trips_through_json(self, micro_report):
        report, _ = micro_report
        clone = HarnessReport.from_json(report.to_json())
        assert clone.stable_dict() == report.stable_dict()
        assert clone.summary()["cells"] == report.summary()["cells"]
        assert clone.fingerprint_digest() == report.fingerprint_digest()

    def test_budget_skips_are_reported_not_violated(self):
        cells = get_grid("micro", seed=1)
        report = run_grid(
            cells, grid_name="micro", seed=1, budget_seconds=1e-9
        )
        assert len(report.cells) == len(cells)
        skipped = [cell for cell in report.cells if cell.skipped]
        assert skipped, "an expired budget must skip at least the later scenarios"
        assert not report.violations
        # Fingerprints must be budget-proof: every scenario in the grid is
        # fingerprinted even when its cells were all skipped, so same-seed
        # runs compare byte-identical wherever their budgets cut.
        expected_labels = {cell.scenario.label() for cell in cells}
        assert set(report.scenario_fingerprints) == expected_labels
        full = run_grid(cells, grid_name="micro", seed=1)
        assert report.fingerprint_digest() == full.fingerprint_digest()


class TestOracles:
    def _row(self, cell, **overrides):
        defaults = dict(
            cell_id=cell.cell_id,
            scenario_label=cell.scenario.label(),
            diagnoser=cell.diagnoser,
            solver=cell.solver,
            ok=True,
            feasible=True,
            status="optimal",
            distance=10.0,
        )
        defaults.update(overrides)
        return CellResult(**defaults)

    def test_agreement_flags_distance_divergence(self):
        scenario = ScenarioSpec(seed=1)
        a = CellSpec(scenario=scenario, diagnoser="incremental", solver="highs")
        b = CellSpec(
            scenario=scenario, diagnoser="incremental", solver="branch-and-bound"
        )
        rows = [(a, self._row(a)), (b, self._row(b, distance=12.0))]
        violations = check_agreement(rows)
        assert len(violations) == 1
        assert violations[0].invariant == "agreement"

    def test_agreement_ignores_time_limited_cells(self):
        scenario = ScenarioSpec(seed=1)
        a = CellSpec(scenario=scenario, diagnoser="incremental", solver="highs")
        b = CellSpec(
            scenario=scenario, diagnoser="incremental", solver="branch-and-bound"
        )
        rows = [
            (a, self._row(a)),
            (b, self._row(b, feasible=False, status="time_limit", distance=0.0)),
        ]
        assert check_agreement(rows) == []

    def test_agreement_treats_suboptimal_incumbents_as_upper_bounds(self):
        """A 'feasible' (not proven-optimal) incumbent never enters the
        distance comparison, but still participates in feasibility."""
        scenario = ScenarioSpec(seed=1)
        a = CellSpec(scenario=scenario, diagnoser="incremental", solver="highs")
        b = CellSpec(
            scenario=scenario, diagnoser="incremental", solver="branch-and-bound"
        )
        rows = [
            (a, self._row(a, status="optimal", distance=10.0)),
            (b, self._row(b, status="feasible", distance=42.0)),
        ]
        assert check_agreement(rows) == []
        rows_disagreeing = [
            (a, self._row(a, status="optimal", distance=10.0)),
            (b, self._row(b, status="feasible", feasible=False, distance=0.0)),
        ]
        violations = check_agreement(rows_disagreeing)
        assert [v.invariant for v in violations] == ["agreement"]

    def test_convergence_flags_incremental_miss_on_single_fault(self):
        spec = ScenarioSpec(n_tuples=10, n_queries=4, seed=1)
        scenario = build_spec_scenario(spec)
        assert len(scenario.corrupted_indices) == 1
        basic = CellSpec(scenario=spec, diagnoser="basic", solver="highs")
        incremental = CellSpec(scenario=spec, diagnoser="incremental", solver="highs")
        rows = [
            (basic, self._row(basic)),
            (incremental, self._row(incremental, feasible=False, status="infeasible")),
        ]
        violations = check_convergence(rows, {spec.label(): scenario})
        assert [v.invariant for v in violations] == ["convergence"]

    def test_resolution_violation_when_repair_does_not_resolve(self):
        spec = ScenarioSpec(n_tuples=10, n_queries=4, seed=1)
        scenario = build_spec_scenario(spec)
        cell = CellSpec(scenario=spec, diagnoser="incremental", solver="highs")
        # Claim feasibility but hand back the *corrupted* log as the repair.
        from repro.core.repair import RepairResult
        from repro.milp.solution import SolveStatus

        fake = RepairResult(
            original_log=scenario.corrupted_log,
            repaired_log=scenario.corrupted_log,
            feasible=True,
            status=SolveStatus.OPTIMAL,
        )
        response = DiagnosisResponse.from_result("cell", "incremental", fake)
        row = self._row(cell)
        row.accuracy = None
        violations = check_cell(cell, scenario, response, row)
        assert any(v.invariant == "resolution" for v in violations)

    def test_exact_crash_is_a_violation_and_dectree_is_exempt(self):
        spec = ScenarioSpec(seed=1)
        scenario = build_spec_scenario(spec)
        exact = CellSpec(scenario=spec, diagnoser="incremental", solver="highs")
        heuristic = CellSpec(scenario=spec, diagnoser="dectree", solver="highs")
        crash = DiagnosisResponse.from_error("cell", "incremental", RuntimeError("boom"))
        assert any(
            v.invariant == "no-crash"
            for v in check_cell(exact, scenario, crash, self._row(exact, ok=False))
        )
        assert (
            check_cell(heuristic, scenario, crash, self._row(heuristic, ok=False)) == []
        )

    def test_violation_round_trip(self):
        violation = OracleViolation("agreement", "cell-1", "boom")
        assert OracleViolation.from_dict(violation.to_dict()) == violation

