"""Harness reports: per-cell outcomes, oracle violations, and JSON round-trip.

A :class:`HarnessReport` is the machine-readable artifact of one matrix sweep:
one :class:`CellResult` per cell (what ran, how fast, how accurate), the
scenario fingerprints that make seed-determinism checkable across runs, and
every :class:`OracleViolation` the differential oracle raised.  Reports are
JSON-native both ways so CI can archive them and a golden file can pin the
stable slice of a reference run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.core.metrics import RepairAccuracy


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant: which cell(s), which oracle, and what happened."""

    invariant: str
    cell_id: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleViolation":
        return cls(
            invariant=str(data.get("invariant", "")),
            cell_id=str(data.get("cell_id", "")),
            message=str(data.get("message", "")),
        )


@dataclass
class CellResult:
    """Outcome of one matrix cell.

    ``ok`` mirrors :class:`~repro.service.types.DiagnosisResponse`: the request
    was served without raising.  ``skipped`` cells were cut by the time budget
    and carry no outcome at all — they are never oracle violations.
    """

    cell_id: str
    scenario_label: str = ""
    scenario_fingerprint: str = ""
    diagnoser: str = ""
    solver: str = ""
    use_presolve: bool = True
    decompose: bool = False
    ok: bool = False
    feasible: bool = False
    status: str = ""
    distance: float = 0.0
    changed_query_indices: tuple[int, ...] = ()
    accuracy: RepairAccuracy | None = None
    complaints: int = 0
    full_complaints: int = 0
    elapsed_seconds: float = 0.0
    error_type: str = ""
    error_message: str = ""
    skipped: bool = False
    #: Phase-level timing pulled from the response summary (encode, solve,
    #: presolve, search, lp…).  Timing detail, so it is serialized with the
    #: cell but — like ``elapsed_seconds`` — kept out of :meth:`stable_dict`.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Decomposition counters from the response summary: how many independent
    #: components the MILP split into, the variable count of the largest one,
    #: and how many log queries compaction dropped before encoding.  Zero on
    #: monolithic cells.  Diagnostics, not verdicts — serialized with the
    #: cell but kept out of :meth:`stable_dict` (component counts can shift
    #: with presolve tightening without the repair changing).
    components: int = 0
    largest_component_vars: int = 0
    compacted_queries: int = 0
    #: Solver hot-path counters from the response summary: LP relaxations
    #: solved vs skipped by the branch-and-bound engine, big-M coefficients
    #: tightened by the matrix presolve, and whether the HiGHS Status-4
    #: fallback retry fired (pinned to zero on the big-M harness families).
    #: Diagnostics like the decomposition counters — serialized, but out of
    #: :meth:`stable_dict`.
    lp_relaxations: int = 0
    lp_skipped: int = 0
    bigm_tightened: int = 0
    highs_presolve_retry: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-native encoding (round-trips through :meth:`from_dict`)."""
        return {
            "cell_id": self.cell_id,
            "scenario_label": self.scenario_label,
            "scenario_fingerprint": self.scenario_fingerprint,
            "diagnoser": self.diagnoser,
            "solver": self.solver,
            "use_presolve": self.use_presolve,
            "decompose": self.decompose,
            "ok": self.ok,
            "feasible": self.feasible,
            "status": self.status,
            "distance": self.distance,
            "changed_query_indices": list(self.changed_query_indices),
            "accuracy": self.accuracy.as_dict() if self.accuracy is not None else None,
            "complaints": self.complaints,
            "full_complaints": self.full_complaints,
            "elapsed_seconds": self.elapsed_seconds,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "skipped": self.skipped,
            "phase_seconds": dict(self.phase_seconds),
            "components": self.components,
            "largest_component_vars": self.largest_component_vars,
            "compacted_queries": self.compacted_queries,
            "lp_relaxations": self.lp_relaxations,
            "lp_skipped": self.lp_skipped,
            "bigm_tightened": self.bigm_tightened,
            "highs_presolve_retry": self.highs_presolve_retry,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        accuracy = data.get("accuracy")
        return cls(
            cell_id=str(data.get("cell_id", "")),
            scenario_label=str(data.get("scenario_label", "")),
            scenario_fingerprint=str(data.get("scenario_fingerprint", "")),
            diagnoser=str(data.get("diagnoser", "")),
            solver=str(data.get("solver", "")),
            use_presolve=bool(data.get("use_presolve", True)),
            decompose=bool(data.get("decompose", False)),
            ok=bool(data.get("ok", False)),
            feasible=bool(data.get("feasible", False)),
            status=str(data.get("status", "")),
            distance=float(data.get("distance", 0.0)),
            changed_query_indices=tuple(
                int(i) for i in data.get("changed_query_indices", ())
            ),
            accuracy=RepairAccuracy.from_dict(accuracy) if accuracy else None,
            complaints=int(data.get("complaints", 0)),
            full_complaints=int(data.get("full_complaints", 0)),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            error_type=str(data.get("error_type", "")),
            error_message=str(data.get("error_message", "")),
            skipped=bool(data.get("skipped", False)),
            phase_seconds={
                str(k): float(v) for k, v in data.get("phase_seconds", {}).items()
            },
            components=int(data.get("components", 0)),
            largest_component_vars=int(data.get("largest_component_vars", 0)),
            compacted_queries=int(data.get("compacted_queries", 0)),
            lp_relaxations=int(data.get("lp_relaxations", 0)),
            lp_skipped=int(data.get("lp_skipped", 0)),
            bigm_tightened=int(data.get("bigm_tightened", 0)),
            highs_presolve_retry=int(data.get("highs_presolve_retry", 0)),
        )

    def stable_dict(self) -> dict[str, Any]:
        """The deterministic slice of the cell, for golden-file comparisons.

        Timings are excluded (they vary run to run); distances are rounded so
        solver tie-breaking noise below the oracle tolerance cannot churn the
        golden file.
        """
        return {
            "cell_id": self.cell_id,
            "scenario_fingerprint": self.scenario_fingerprint,
            "ok": self.ok,
            "feasible": self.feasible,
            "distance": round(self.distance, 3),
            "complaints": self.complaints,
            "full_complaints": self.full_complaints,
            "skipped": self.skipped,
        }


@dataclass
class HarnessReport:
    """The full outcome of one matrix sweep."""

    grid: str = ""
    seed: int = 0
    cells: list[CellResult] = field(default_factory=list)
    violations: list[OracleViolation] = field(default_factory=list)
    scenario_fingerprints: dict[str, str] = field(default_factory=dict)
    budget_seconds: float | None = None
    elapsed_seconds: float = 0.0

    # -- aggregation -------------------------------------------------------------

    @property
    def executed_cells(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.skipped]

    def summary(self) -> dict[str, Any]:
        """Aggregate counts and latency/accuracy rollups."""
        executed = self.executed_cells
        feasible = [cell for cell in executed if cell.feasible]
        scored = [cell for cell in executed if cell.accuracy is not None]
        return {
            "cells": len(self.cells),
            "executed": len(executed),
            "skipped": len(self.cells) - len(executed),
            "ok": sum(1 for cell in executed if cell.ok),
            "feasible": len(feasible),
            "violations": len(self.violations),
            "mean_f1": (
                sum(cell.accuracy.f1 for cell in scored) / len(scored) if scored else None
            ),
            "mean_cell_seconds": (
                sum(cell.elapsed_seconds for cell in executed) / len(executed)
                if executed
                else None
            ),
            "phase_seconds": self._phase_rollup(executed),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @staticmethod
    def _phase_rollup(executed: list[CellResult]) -> dict[str, float]:
        """Total seconds per solver phase across every executed cell."""
        totals: dict[str, float] = {}
        for cell in executed:
            for phase, seconds in cell.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return {phase: round(seconds, 6) for phase, seconds in sorted(totals.items())}

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "grid": self.grid,
            "seed": self.seed,
            "budget_seconds": self.budget_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "summary": self.summary(),
            "scenario_fingerprints": dict(sorted(self.scenario_fingerprints.items())),
            "cells": [cell.to_dict() for cell in self.cells],
            "violations": [violation.to_dict() for violation in self.violations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HarnessReport":
        budget = data.get("budget_seconds")
        return cls(
            grid=str(data.get("grid", "")),
            seed=int(data.get("seed", 0)),
            cells=[CellResult.from_dict(item) for item in data.get("cells", [])],
            violations=[
                OracleViolation.from_dict(item) for item in data.get("violations", [])
            ],
            scenario_fingerprints={
                str(k): str(v) for k, v in data.get("scenario_fingerprints", {}).items()
            },
            budget_seconds=float(budget) if budget is not None else None,
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HarnessReport":
        return cls.from_dict(json.loads(text))

    def stable_dict(self) -> dict[str, Any]:
        """Deterministic slice of the whole report, for golden files."""
        return {
            "grid": self.grid,
            "seed": self.seed,
            "scenario_fingerprints": dict(sorted(self.scenario_fingerprints.items())),
            "cells": [cell.stable_dict() for cell in self.cells],
            "violations": [violation.to_dict() for violation in self.violations],
        }

    def fingerprint_digest(self) -> str:
        """One line that two same-seed runs must reproduce byte-identically."""
        return json.dumps(
            dict(sorted(self.scenario_fingerprints.items())),
            sort_keys=True,
            separators=(",", ":"),
        )
