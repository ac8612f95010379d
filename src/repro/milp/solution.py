"""Solver results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.milp.variables import Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a variable assignment is available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """Result of solving a :class:`~repro.milp.model.Model`.

    ``values`` is keyed by variable name.  For statuses without a solution the
    mapping is empty and ``objective`` is ``None``.
    """

    status: SolveStatus
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    solver_name: str = ""
    message: str = ""
    #: Backend-specific solve statistics (node counts, presolve
    #: reductions).  Purely informational.
    stats: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status.has_solution

    def value(self, variable: "Variable | str", default: float | None = None) -> float:
        """Value of ``variable`` in the solution.

        Accepts a :class:`Variable` or a variable name.  Raises ``KeyError``
        if the variable is absent and no ``default`` is supplied.
        """
        name = variable.name if isinstance(variable, Variable) else variable
        if name in self.values:
            return self.values[name]
        if default is not None:
            return default
        raise KeyError(name)

    def value_map(self, variables: Mapping[str, "Variable"]) -> dict[str, float]:
        """Values for a named collection of variables."""
        return {key: self.value(var) for key, var in variables.items()}
