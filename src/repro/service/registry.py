"""Diagnoser protocol and registry: look up diagnosis algorithms by name.

The registry mirrors :mod:`repro.milp.solvers.registry` for solver backends:
algorithms register a factory under a short name and the engine instantiates
them per request.  Unlike the solver registry, duplicate registration is an
error unless ``replace=True`` is passed — a service wiring bug that silently
swapped the production diagnoser would otherwise be invisible.

Built-in diagnosers:

``basic``
    One MILP over the whole log (:class:`~repro.core.basic.BasicRepairer`).
``incremental``
    The windowed ``Inc_k`` search
    (:class:`~repro.core.incremental.IncrementalRepairer`).
``auto``
    Picks ``incremental`` when the config assumes a single corrupted query
    (``single_fault``) and ``basic`` otherwise — the historical behaviour of
    ``QFix.diagnose(method="auto")``.
``dectree``
    The decision-tree baseline of the paper's Appendix A, adapted to the
    common :class:`~repro.core.repair.RepairResult` shape.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Protocol, runtime_checkable

from repro.core.basic import BasicRepairer
from repro.core.complaints import ComplaintSet
from repro.core.config import QFixConfig
from repro.core.incremental import IncrementalRepairer
from repro.core.repair import RepairResult
from repro.db.database import Database
from repro.exceptions import RepairError, ReproError
from repro.milp.solution import SolveStatus
from repro.milp.solvers import Solver
from repro.queries.log import QueryLog


@runtime_checkable
class Diagnoser(Protocol):
    """A named diagnosis algorithm.

    Implementations are stateless per call: ``diagnose`` receives everything
    it needs and returns a :class:`RepairResult`.  Raising a
    :class:`~repro.exceptions.ReproError` is the sanctioned way to report an
    unprocessable case; the engine converts it into a failure response.
    """

    name: str

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        config: QFixConfig,
        solver: Solver,
    ) -> RepairResult:
        """Produce a log repair that resolves ``complaints``."""
        ...


class BasicDiagnoser:
    """Single-shot MILP over the whole log."""

    name = "basic"

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        config: QFixConfig,
        solver: Solver,
    ) -> RepairResult:
        repairer = BasicRepairer(config, solver)
        return repairer.repair(final.schema, initial, final, log, complaints)


class IncrementalDiagnoser:
    """Windowed ``Inc_k`` search, newest window first."""

    name = "incremental"

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        config: QFixConfig,
        solver: Solver,
    ) -> RepairResult:
        repairer = IncrementalRepairer(config, solver)
        return repairer.repair(final.schema, initial, final, log, complaints)


class AutoDiagnoser:
    """Pick ``incremental`` or ``basic`` from the config's fault assumption."""

    name = "auto"

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        config: QFixConfig,
        solver: Solver,
    ) -> RepairResult:
        delegate = IncrementalDiagnoser() if config.single_fault else BasicDiagnoser()
        return delegate.diagnose(
            initial, final, log, complaints, config=config, solver=solver
        )


class DecTreeDiagnoser:
    """Adapter exposing the Appendix-A baseline through the common interface.

    DecTree is a heuristic — it learns a WHERE clause rather than proving one
    — so successful repairs are reported with :attr:`SolveStatus.FEASIBLE`
    (never ``OPTIMAL``) and a zero distance: the learned clause can differ
    structurally from the original query, so the parameter-space distance the
    MILP minimizes is undefined for it.
    """

    name = "dectree"

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        config: QFixConfig,
        solver: Solver,
    ) -> RepairResult:
        # Imported lazily so the service layer does not pull numpy-heavy
        # baseline code unless the baseline is actually requested.
        from repro.baselines.dectree_repair import DecTreeRepairer

        start = time.perf_counter()
        try:
            outcome = DecTreeRepairer().repair(
                final.schema, initial, final, log, complaints
            )
        except RepairError as error:
            elapsed = time.perf_counter() - start
            return RepairResult(
                original_log=log,
                repaired_log=log,
                feasible=False,
                status=SolveStatus.ERROR,
                total_seconds=elapsed,
                message=str(error),
            )
        return RepairResult(
            original_log=log,
            repaired_log=outcome.repaired_log,
            feasible=outcome.feasible,
            status=SolveStatus.FEASIBLE if outcome.feasible else SolveStatus.INFEASIBLE,
            changed_query_indices=(outcome.repaired_index,),
            parameter_values=dict(outcome.set_values),
            total_seconds=outcome.total_seconds,
            message=outcome.message,
        )


_FACTORIES: Dict[str, Callable[[], Diagnoser]] = {}


def register_diagnoser(
    name: str, factory: Callable[[], Diagnoser], *, replace: bool = False
) -> None:
    """Register a diagnoser factory under ``name``.

    Re-registering an existing name raises :class:`ReproError` unless
    ``replace=True`` is passed explicitly.
    """
    if name in _FACTORIES and not replace:
        raise ReproError(
            f"diagnoser '{name}' is already registered; pass replace=True to override"
        )
    _FACTORIES[name] = factory


def available_diagnosers() -> tuple[str, ...]:
    """Names of the registered diagnosers, sorted."""
    return tuple(sorted(_FACTORIES))


def get_diagnoser(name: str) -> Diagnoser:
    """Instantiate a diagnoser by name.

    Raises :class:`ReproError` for unknown names, listing what is available.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown diagnoser '{name}'; available: {', '.join(available_diagnosers())}"
        ) from None
    return factory()


register_diagnoser(BasicDiagnoser.name, BasicDiagnoser)
register_diagnoser(IncrementalDiagnoser.name, IncrementalDiagnoser)
register_diagnoser(AutoDiagnoser.name, AutoDiagnoser)
register_diagnoser(DecTreeDiagnoser.name, DecTreeDiagnoser)
