"""Linear constraints for the MILP modeling layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.milp.expr import LinExpr
from repro.milp.variables import Variable


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True, slots=True)
class Constraint:
    """A linear constraint ``expr SENSE rhs``.

    The right-hand side is always a plain number; constant terms of the
    expression are folded into it by :meth:`repro.milp.model.Model.add_constraint`.
    A model stores its rows flat and hands out constraints as views of them;
    ``row`` is the view's row index in that model (-1 when free-standing).
    """

    name: str
    expr: LinExpr
    sense: Sense
    rhs: float
    row: int = field(default=-1, compare=False)

    def satisfied_by(
        self,
        assignment: Mapping[Variable, float] | Mapping[str, float],
        *,
        tolerance: float = 1e-6,
    ) -> bool:
        """Whether ``assignment`` satisfies the constraint within ``tolerance``."""
        value = self.expr.evaluate(assignment)
        if self.sense is Sense.LE:
            return value <= self.rhs + tolerance
        if self.sense is Sense.GE:
            return value >= self.rhs - tolerance
        return abs(value - self.rhs) <= tolerance

    def violation(
        self, assignment: Mapping[Variable, float] | Mapping[str, float]
    ) -> float:
        """Magnitude by which ``assignment`` violates the constraint (0 if satisfied)."""
        value = self.expr.evaluate(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - value)
        return abs(value - self.rhs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self.name!r}: {self.expr!r} {self.sense.value} {self.rhs})"
