"""Repair results and conversion of solver assignments back into query logs.

``ConvertQLog`` in the paper's Algorithm 1 corresponds to
:func:`extract_param_values` + :meth:`QueryLog.with_params` here; the
surrounding :class:`RepairResult` captures everything the experiment harness
needs to report (timings, problem sizes, solver status, repaired queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.complaints import ComplaintKind, ComplaintSet
from repro.core.config import QFixConfig
from repro.core.encoder import EncodedProblem
from repro.db.database import Database
from repro.milp.solution import Solution, SolveStatus
from repro.queries.compiled import CompiledLog
from repro.queries.executor import replay
from repro.queries.log import QueryLog, changed_queries, log_distance


@dataclass
class RepairResult:
    """Outcome of a diagnosis run.

    ``feasible`` is true when the solver produced a repair that satisfies the
    encoded constraints.  ``repaired_log`` equals ``original_log`` when no
    repair was found, so callers can always replay it safely.
    """

    original_log: QueryLog
    repaired_log: QueryLog
    feasible: bool
    status: SolveStatus
    changed_query_indices: tuple[int, ...] = ()
    parameter_values: dict[str, float] = field(default_factory=dict)
    distance: float = 0.0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    windows_tried: int = 0
    refined: bool = False
    problem_stats: dict[str, float] = field(default_factory=dict)
    message: str = ""
    #: Raw solver assignment (variable name -> value) of the winning solve.
    #: Cached by the service layer and replayed as a warm start when the same
    #: (log, complaints, config) encoding is solved again.
    solution_values: dict[str, float] = field(default_factory=dict)
    #: Cached ``replay(initial, repaired_log)`` state, populated as a
    #: by-product of the complaint-resolution check in ``finalize_repair``.
    #: Downstream passes (refinement's NC scan, the incremental window
    #: search's sanity replay) reuse it instead of replaying the full log
    #: again.  Never serialized; excluded from ``summary()``.
    repaired_state: Database | None = field(default=None, repr=False, compare=False)

    @property
    def changed_queries(self) -> tuple[int, ...]:
        """Alias kept for readability in the experiment harness."""
        return self.changed_query_indices

    def summary(self) -> dict[str, object]:
        """Compact dictionary used by the experiment reports.

        Problem statistics are namespaced under ``stats.<name>`` keys so a
        stat that happens to share a name with a top-level field (e.g. a
        solver reporting its own ``distance``) can never silently overwrite
        the repair's value.
        """
        return {
            "feasible": self.feasible,
            "status": self.status.value,
            "changed_queries": list(self.changed_query_indices),
            "distance": self.distance,
            "encode_seconds": round(self.encode_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "windows_tried": self.windows_tried,
            "refined": self.refined,
            **{f"stats.{name}": value for name, value in self.problem_stats.items()},
        }


def extract_param_values(
    problem: EncodedProblem,
    solution: Solution,
    *,
    config: QFixConfig,
) -> dict[str, float]:
    """Read repaired parameter values out of a solver solution.

    When ``round_integral_params`` is enabled, parameters whose original value
    was integral are rounded to the nearest integer; :func:`finalize_repair`
    later verifies that the rounded repair still resolves the complaints and
    falls back to the fractional values otherwise.
    """
    values: dict[str, float] = {}
    for name, variable in problem.param_variables.items():
        raw = solution.value(variable)
        original = problem.param_originals[name]
        if config.encoding.round_integral_params and float(original).is_integer():
            values[name] = float(round(raw))
        else:
            values[name] = float(raw)
    return values


def raw_param_values(problem: EncodedProblem, solution: Solution) -> dict[str, float]:
    """Parameter values exactly as returned by the solver (no rounding)."""
    return {
        name: float(solution.value(variable))
        for name, variable in problem.param_variables.items()
    }


def repair_resolves_complaints(
    initial: Database,
    repaired_log: QueryLog,
    complaints: ComplaintSet,
    *,
    tolerance: float = 1e-6,
    final_state: Database | None = None,
) -> bool:
    """Replay ``repaired_log`` and check that every complaint is resolved.

    Pass ``final_state`` when ``replay(initial, repaired_log)`` has already
    been computed (e.g. :attr:`RepairResult.repaired_state`) to skip the
    replay; the caller is responsible for the state actually matching the
    log.
    """
    final = final_state if final_state is not None else replay(initial, repaired_log)
    return _complaints_resolved(final, complaints, tolerance=tolerance)


def _complaints_resolved(
    final: Database, complaints: ComplaintSet, *, tolerance: float = 1e-6
) -> bool:
    for complaint in complaints:
        row = final.get(complaint.rid)
        if complaint.kind is ComplaintKind.REMOVE:
            if row is not None:
                return False
            continue
        if row is None:
            return False
        target = complaint.target_values()
        for name, value in target.items():
            if abs(row.values[name] - value) > tolerance:
                return False
    return True


def finalize_repair(
    initial: Database,
    original_log: QueryLog,
    problem: EncodedProblem,
    solution: Solution,
    complaints: ComplaintSet,
    *,
    config: QFixConfig,
) -> tuple[QueryLog, dict[str, float]]:
    """Turn a solver solution into a repaired log (ConvertQLog).

    Rounded parameter values are preferred when they still resolve every
    complaint; otherwise the solver's fractional values are kept verbatim.
    """
    repaired_log, values, _ = _finalize_repair(
        initial, original_log, problem, solution, complaints, config=config
    )
    return repaired_log, values


def _finalize_repair(
    initial: Database,
    original_log: QueryLog,
    problem: EncodedProblem,
    solution: Solution,
    complaints: ComplaintSet,
    *,
    config: QFixConfig,
    compiled: CompiledLog | None = None,
) -> tuple[QueryLog, dict[str, float], Database | None]:
    """:func:`finalize_repair` plus the replayed state of the chosen log.

    The complaint-resolution check already replays the candidate log; the
    resulting :class:`Database` is returned so downstream passes (refinement,
    the incremental sanity check) never replay the same log twice.
    ``compiled`` is the diagnosis's compiled log: the candidate logs share
    every untouched query with ``original_log``, and with them its kernels.
    """
    rounded = extract_param_values(problem, solution, config=config)
    candidate = original_log.with_params(rounded)
    if not rounded:
        return candidate, rounded, None
    candidate_state = replay(initial, candidate, compiled=compiled)
    if not _complaints_resolved(candidate_state, complaints):
        raw = raw_param_values(problem, solution)
        if raw != rounded:
            fallback = original_log.with_params(raw)
            fallback_state = replay(initial, fallback, compiled=compiled)
            if _complaints_resolved(fallback_state, complaints):
                return fallback, raw, fallback_state
    return candidate, rounded, candidate_state


def build_repair_result(
    initial: Database,
    original_log: QueryLog,
    problem: EncodedProblem,
    solution: Solution,
    complaints: ComplaintSet,
    *,
    config: QFixConfig,
    encode_seconds: float,
    solve_seconds: float,
    windows_tried: int = 1,
    compiled: CompiledLog | None = None,
) -> RepairResult:
    """Assemble a :class:`RepairResult` from a solved encoding.

    ``compiled`` is the diagnosis's compiled log, reused by the replays that
    check the repair.
    """
    if not solution.status.has_solution:
        return RepairResult(
            original_log=original_log,
            repaired_log=original_log,
            feasible=False,
            status=solution.status,
            encode_seconds=encode_seconds,
            solve_seconds=solve_seconds,
            total_seconds=encode_seconds + solve_seconds,
            windows_tried=windows_tried,
            problem_stats={**problem.stats, **solution.stats},
            message=solution.message,
        )
    repaired_log, values, repaired_state = _finalize_repair(
        initial, original_log, problem, solution, complaints, config=config, compiled=compiled
    )
    changed = tuple(changed_queries(original_log, repaired_log))
    distance = log_distance(original_log, repaired_log)
    return RepairResult(
        solution_values=dict(solution.values),
        repaired_state=repaired_state,
        original_log=original_log,
        repaired_log=repaired_log,
        feasible=True,
        status=solution.status,
        changed_query_indices=changed,
        parameter_values=values,
        distance=distance,
        encode_seconds=encode_seconds,
        solve_seconds=solve_seconds,
        total_seconds=encode_seconds + solve_seconds,
        windows_tried=windows_tried,
        problem_stats={**problem.stats, **solution.stats},
        message=solution.message,
    )


def merge_parameter_values(
    base: Mapping[str, float], update: Mapping[str, float]
) -> dict[str, float]:
    """Overlay refined parameter values on top of the step-1 values."""
    merged = dict(base)
    merged.update(update)
    return merged
