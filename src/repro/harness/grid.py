"""Matrix cells and named grids.

A :class:`CellSpec` pairs one data-side :class:`~repro.workload.spec.ScenarioSpec`
with one algorithm-side configuration — diagnoser, MILP backend, presolve
on/off, monolithic vs. decomposed — so a grid is just a list of cells.
Named grids live in a registry (``smoke``, ``micro``, ``full``,
``longlog``) so the CLI, CI, and tests all sweep the same cells by name.

The cell's :meth:`~CellSpec.config` chooses the algorithm configuration the
way the paper's ablations do: the ``basic`` diagnoser runs the global
all-queries-parameterized encoding (with tuple slicing so tiny grid cells stay
tiny), ``incremental`` runs the fully optimized ``Inc_1`` search, and
``dectree`` runs the Appendix-A baseline, which is heuristic — the oracle
holds it to weaker invariants (``exact = False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence

from repro.core.config import QFixConfig
from repro.exceptions import ReproError
from repro.workload.spec import ScenarioSpec, expand_scenario_grid

#: Diagnosers whose repairs are exact (MILP-backed): the oracle requires a
#: feasible repair to resolve every reported complaint.  Heuristic baselines
#: (dectree) are exempt from the resolution and agreement invariants.
EXACT_DIAGNOSERS = frozenset({"basic", "incremental", "auto"})


@dataclass(frozen=True)
class CellSpec:
    """One cell of the matrix: a scenario crossed with an algorithm setup."""

    scenario: ScenarioSpec
    diagnoser: str = "incremental"
    solver: str = "highs"
    use_presolve: bool = True
    #: Route this cell through the decompose-and-conquer pipeline (log
    #: compaction + connected-component splitting).  The decomposition
    #: differential oracle compares each decomposed cell against its
    #: monolithic twin.
    decompose: bool = False
    #: Per-solve time limit for this cell (bounds worst-case sweep time).
    time_limit: float = 30.0

    @property
    def cell_id(self) -> str:
        """Unique, stable identifier used as the request/report key."""
        parts = [self.scenario.label(), self.diagnoser, self.solver]
        if not self.use_presolve:
            parts.append("nopresolve")
        if self.decompose:
            parts.append("decomposed")
        return "|".join(parts)

    @property
    def exact(self) -> bool:
        """Whether this cell's diagnoser guarantees complaint resolution."""
        return self.diagnoser in EXACT_DIAGNOSERS

    def config(self) -> QFixConfig:
        """The :class:`QFixConfig` this cell submits through the engine."""
        if self.diagnoser == "basic":
            base = QFixConfig.basic(
                tuple_slicing=True, refinement=True, attribute_slicing=True
            )
        else:
            base = QFixConfig.fully_optimized()
        return base.with_overrides(
            diagnoser=self.diagnoser,
            solver=self.solver,
            use_presolve=self.use_presolve,
            decompose=self.decompose,
            time_limit=self.time_limit,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "diagnoser": self.diagnoser,
            "solver": self.solver,
            "use_presolve": self.use_presolve,
            "decompose": self.decompose,
            "time_limit": self.time_limit,
        }


def expand_cells(
    scenarios: Iterable[ScenarioSpec],
    *,
    diagnosers: Sequence[str] = ("incremental",),
    solvers: Sequence[str] = ("highs",),
    presolve: Sequence[bool] = (True,),
    decompose: Sequence[bool] = (False,),
    time_limit: float = 30.0,
) -> list[CellSpec]:
    """Cartesian product of the algorithm-side axes over ``scenarios``."""
    cells = []
    for scenario in scenarios:
        for diagnoser in diagnosers:
            for solver in solvers:
                for use_presolve in presolve:
                    for is_decomposed in decompose:
                        cells.append(
                            CellSpec(
                                scenario=scenario,
                                diagnoser=diagnoser,
                                solver=solver,
                                use_presolve=use_presolve,
                                decompose=is_decomposed,
                                time_limit=time_limit,
                            )
                        )
    return cells


# -- named grids ----------------------------------------------------------------------

GridFactory = Callable[[int], "list[CellSpec]"]

_GRIDS: Dict[str, GridFactory] = {}


def register_grid(name: str, factory: GridFactory, *, replace: bool = False) -> None:
    """Register a named grid (``factory(seed) -> cells``)."""
    if name in _GRIDS and not replace:
        raise ReproError(
            f"grid '{name}' is already registered; pass replace=True to override"
        )
    _GRIDS[name] = factory


def available_grids() -> tuple[str, ...]:
    """Names of the registered grids, sorted."""
    return tuple(sorted(_GRIDS))


def get_grid(name: str, seed: int = 0) -> list[CellSpec]:
    """Materialize a named grid for ``seed``."""
    try:
        factory = _GRIDS[name]
    except KeyError:
        raise ReproError(
            f"unknown grid '{name}'; available: {', '.join(available_grids())}"
        ) from None
    return factory(seed)


def _micro_grid(seed: int) -> list[CellSpec]:
    """A minimal differential slice: 2 scenarios x {basic,incremental} x {highs,bnb}.

    Small enough for tier-1 tests and the golden report; still crosses every
    differential oracle (backend agreement, presolve invariance via the
    smoke grid, incremental-vs-basic convergence).
    """
    scenarios = [
        ScenarioSpec(
            family="synthetic",
            n_tuples=20,
            n_queries=6,
            corruption="predicate",
            position="early",
            seed=seed,
        ),
        ScenarioSpec(
            family="tatp",
            n_tuples=30,
            n_queries=8,
            corruption="workload",
            position="late",
            seed=seed,
        ),
    ]
    return expand_cells(
        scenarios,
        diagnosers=("basic", "incremental"),
        solvers=("highs", "branch-and-bound"),
        time_limit=20.0,
    )


def _smoke_grid(seed: int) -> list[CellSpec]:
    """The CI grid: every axis represented, sized to finish in well under a minute.

    Six scenarios (three workload families, four corruption classes, early /
    late / spread placement, complete and incomplete complaint sets) crossed
    with both diagnosers and both MILP backends, plus presolve-off and
    dectree riders on the first synthetic scenario.
    """
    base = dict(n_tuples=25, n_queries=8, seed=seed)
    scenarios = [
        ScenarioSpec(corruption="predicate", position="early", **base),
        ScenarioSpec(corruption="set-clause", position="late", **base),
        ScenarioSpec(corruption="multi-param", position="spread", n_corruptions=2, **base),
        ScenarioSpec(family="synthetic-point", corruption="workload", position="early", complaint_fraction=0.6, **base),
        ScenarioSpec(family="tpcc", corruption="workload", position="late", **base),
        ScenarioSpec(family="tatp", corruption="workload", position="early", **base),
    ]
    cells = expand_cells(
        scenarios,
        diagnosers=("basic", "incremental"),
        solvers=("highs", "branch-and-bound"),
        time_limit=20.0,
    )
    riders_on = scenarios[0]
    cells += expand_cells(
        [riders_on],
        diagnosers=("incremental",),
        solvers=("highs",),
        presolve=(False,),
        time_limit=20.0,
    )
    cells += expand_cells(
        [riders_on], diagnosers=("dectree",), solvers=("highs",), time_limit=20.0
    )
    # Long-history riders: clustered long-log scenarios in monolithic /
    # decomposed pairs, so CI runs the decomposition differential oracle on
    # every sweep (including a complaint set spanning two components).
    longlog = [
        ScenarioSpec(
            family="long-log",
            n_tuples=32,
            n_queries=64,
            corruption="set-clause",
            position="early",
            seed=seed,
        ),
        ScenarioSpec(
            family="long-log",
            n_tuples=32,
            n_queries=64,
            corruption="workload",
            position="spread",
            n_corruptions=2,
            seed=seed,
        ),
    ]
    cells += expand_cells(
        longlog,
        diagnosers=("basic", "incremental"),
        solvers=("highs",),
        decompose=(False, True),
        time_limit=20.0,
    )
    return cells


def _full_grid(seed: int) -> list[CellSpec]:
    """The exhaustive sweep: every family x corruption x position x completeness."""
    scenarios = expand_scenario_grid(
        families=("synthetic", "synthetic-relative", "synthetic-point", "tpcc", "tatp"),
        corruptions=("workload", "multi-param", "predicate", "set-clause"),
        positions=("early", "late"),
        complaint_fractions=(1.0, 0.5),
        n_tuples=40,
        n_queries=10,
        seed=seed,
    )
    cells = expand_cells(
        scenarios,
        diagnosers=("basic", "incremental"),
        solvers=("highs", "branch-and-bound"),
        time_limit=30.0,
    )
    cells += expand_cells(
        scenarios[:4],
        diagnosers=("incremental",),
        solvers=("highs",),
        presolve=(False,),
        time_limit=30.0,
    )
    return cells


def _longlog_grid(seed: int) -> list[CellSpec]:
    """The long-history differential sweep: decomposed vs monolithic at 1k queries.

    Every cell appears twice — with and without ``decompose`` — so the
    decomposition differential oracle certifies identical verdicts and repairs
    at the scale the pipeline is built for.  The generous time limit lets the
    monolithic twin finish (or honestly time out) instead of crashing the
    comparison.
    """
    scenarios = [
        ScenarioSpec(
            family="long-log",
            n_tuples=64,
            n_queries=1000,
            corruption="set-clause",
            position="late",
            seed=seed,
        ),
        ScenarioSpec(
            family="long-log",
            n_tuples=64,
            n_queries=1000,
            corruption="workload",
            position="spread",
            n_corruptions=2,
            seed=seed,
        ),
    ]
    return expand_cells(
        scenarios,
        diagnosers=("basic", "incremental"),
        solvers=("highs",),
        decompose=(False, True),
        time_limit=120.0,
    )


register_grid("micro", _micro_grid)
register_grid("smoke", _smoke_grid)
register_grid("full", _full_grid)
register_grid("longlog", _longlog_grid)
