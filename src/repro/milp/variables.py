"""Decision variables for the MILP modeling layer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import ModelError


class VarType(enum.Enum):
    """Kind of decision variable."""

    CONTINUOUS = "continuous"
    BINARY = "binary"
    INTEGER = "integer"


@dataclass(frozen=True, eq=False)
class Variable:
    """A decision variable.

    Variables are created through :meth:`repro.milp.model.Model.add_variable`,
    which assigns the column ``index`` and enforces name uniqueness.  Identity
    (not name equality) is used for hashing so that expressions remain valid
    even if two models happen to reuse a name.
    """

    name: str
    index: int
    lower: float
    upper: float
    var_type: VarType = VarType.CONTINUOUS

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("variable name must be non-empty")
        if self.lower > self.upper:
            raise ModelError(
                f"variable '{self.name}' has lower bound {self.lower} above "
                f"upper bound {self.upper}"
            )
        if self.var_type is VarType.BINARY and (self.lower < 0.0 or self.upper > 1.0):
            raise ModelError(f"binary variable '{self.name}' must have bounds within [0, 1]")

    @property
    def is_integral(self) -> bool:
        """Whether the variable is required to take integer values."""
        return self.var_type in (VarType.BINARY, VarType.INTEGER)

    # -- expression sugar -------------------------------------------------------
    # Importing LinExpr lazily avoids a circular import at module load time.

    def _as_expr(self) -> "LinExpr":
        from repro.milp.expr import LinExpr

        return LinExpr._of({self: 1.0}, 0.0)

    def __add__(self, other):  # type: ignore[no-untyped-def]
        return self._as_expr() + other

    def __radd__(self, other):  # type: ignore[no-untyped-def]
        return self._as_expr() + other

    def __sub__(self, other):  # type: ignore[no-untyped-def]
        return self._as_expr() - other

    def __rsub__(self, other):  # type: ignore[no-untyped-def]
        return (-1.0) * self._as_expr() + other

    def __mul__(self, factor):  # type: ignore[no-untyped-def]
        return self._as_expr() * factor

    def __rmul__(self, factor):  # type: ignore[no-untyped-def]
        return self._as_expr() * factor

    def __neg__(self):  # type: ignore[no-untyped-def]
        return self._as_expr() * -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}], {self.var_type.value})"
