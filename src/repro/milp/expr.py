"""Linear expressions over MILP decision variables."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.exceptions import ModelError
from repro.milp.variables import Variable

Number = (int, float)


class LinExpr:
    """An affine expression ``sum(coeff_i * var_i) + constant``.

    Instances are immutable from the caller's perspective: every arithmetic
    operation returns a new expression.  Variables with zero coefficient are
    dropped eagerly to keep constraint matrices sparse.
    """

    __slots__ = ("_terms", "constant")

    def __init__(
        self,
        terms: Mapping[Variable, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self._terms: Dict[Variable, float] = {}
        if terms:
            for variable, coeff in terms.items():
                if not isinstance(variable, Variable):
                    raise ModelError(f"expected Variable, got {type(variable).__name__}")
                if coeff != 0.0:
                    self._terms[variable] = float(coeff)
        self.constant = float(constant)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_constant(cls, value: float) -> "LinExpr":
        """An expression with no variables."""
        return cls._of({}, float(value))

    @classmethod
    def _of(cls, terms: Dict[Variable, float], constant: float) -> "LinExpr":
        """Wrap an already-built term dict (no copy, no checks)."""
        expr = cls.__new__(cls)
        expr._terms = terms
        expr.constant = constant
        return expr

    @classmethod
    def sum(cls, expressions: Iterable["LinExpr | Variable | float"]) -> "LinExpr":
        """Sum an iterable of expressions / variables / numbers.

        Accumulates into a single private result rather than chaining
        ``__add__`` (which copies the growing term dict each step and turns a
        long summation quadratic).
        """
        total = cls()
        terms = total._terms
        constant = 0.0
        for item in expressions:
            if isinstance(item, Number):
                constant += float(item)
            elif isinstance(item, Variable):
                updated = terms.get(item, 0.0) + 1.0
                if updated == 0.0:
                    terms.pop(item, None)
                else:
                    terms[item] = updated
            elif isinstance(item, LinExpr):
                for variable, coeff in item._terms.items():
                    updated = terms.get(variable, 0.0) + coeff
                    if updated == 0.0:
                        terms.pop(variable, None)
                    else:
                        terms[variable] = updated
                constant += item.constant
            else:
                raise ModelError(f"cannot sum {item!r} into a linear expression")
        total.constant = constant
        return total

    # -- inspection -------------------------------------------------------------

    @property
    def terms(self) -> Dict[Variable, float]:
        """The variable -> coefficient mapping (a copy is *not* made)."""
        return self._terms

    def variables(self) -> tuple[Variable, ...]:
        """Variables with non-zero coefficients."""
        return tuple(self._terms)

    def coefficient(self, variable: Variable) -> float:
        """Coefficient of ``variable`` (0 if absent)."""
        return self._terms.get(variable, 0.0)

    def is_constant(self) -> bool:
        """Whether the expression has no variable terms."""
        return not self._terms

    def evaluate(self, assignment: Mapping[Variable, float] | Mapping[str, float]) -> float:
        """Evaluate the expression under a variable assignment.

        ``assignment`` may be keyed by :class:`Variable` or by variable name.
        """
        total = self.constant
        for variable, coeff in self._terms.items():
            if variable in assignment:  # type: ignore[operator]
                value = assignment[variable]  # type: ignore[index]
            elif variable.name in assignment:  # type: ignore[operator]
                value = assignment[variable.name]  # type: ignore[index]
            else:
                raise ModelError(f"assignment missing variable '{variable.name}'")
            total += coeff * float(value)
        return total

    # -- arithmetic -------------------------------------------------------------

    def _copy(self) -> "LinExpr":
        return LinExpr._of(dict(self._terms), self.constant)

    def __add__(self, other: "LinExpr | Variable | float") -> "LinExpr":
        result = self._copy()
        if isinstance(other, Number):
            result.constant += float(other)
            return result
        if isinstance(other, Variable):
            result._terms[other] = result._terms.get(other, 0.0) + 1.0
            if result._terms[other] == 0.0:
                del result._terms[other]
            return result
        if isinstance(other, LinExpr):
            for variable, coeff in other._terms.items():
                updated = result._terms.get(variable, 0.0) + coeff
                if updated == 0.0:
                    result._terms.pop(variable, None)
                else:
                    result._terms[variable] = updated
            result.constant += other.constant
            return result
        return NotImplemented

    def __radd__(self, other: "float") -> "LinExpr":
        return self + other

    def __sub__(self, other: "LinExpr | Variable | float") -> "LinExpr":
        if isinstance(other, Number):
            return self + (-float(other))
        if isinstance(other, Variable):
            return self + (other * -1.0)
        if isinstance(other, LinExpr):
            # ``self + other * -1.0`` without the intermediate expression.
            result = self._copy()
            accumulate(result._terms, other._terms, -1.0)
            result.constant += other.constant * -1.0
            return result
        return NotImplemented

    def __rsub__(self, other: "float") -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, factor: float) -> "LinExpr":
        if not isinstance(factor, Number):
            raise ModelError("LinExpr can only be multiplied by a scalar")
        terms = {var: coeff * factor for var, coeff in self._terms.items()} if factor != 0.0 else {}
        return LinExpr._of(terms, self.constant * float(factor))

    def __rmul__(self, factor: float) -> "LinExpr":
        return self * factor

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coeff:+g}*{var.name}" for var, coeff in self._terms.items()]
        parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def accumulate(terms: Dict[Variable, float], other: Mapping[Variable, float], factor: float) -> None:
    """Add ``factor * other`` into ``terms`` in place, exactly as ``+`` does.

    Each coefficient is scaled first and then added, and a sum of exactly
    zero drops the variable — the same float operations, in the same order,
    as ``expr + other_expr * factor`` (which :meth:`LinExpr.__mul__` skips
    entirely for a zero factor).
    """
    if factor == 0.0:
        return
    for variable, coeff in other.items():
        updated = terms.get(variable, 0.0) + coeff * factor
        if updated == 0.0:
            terms.pop(variable, None)
        else:
            terms[variable] = updated


def as_linexpr(value: "LinExpr | Variable | float") -> LinExpr:
    """Coerce a variable or number into a :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Variable):
        return LinExpr._of({value: 1.0}, 0.0)
    if isinstance(value, Number):
        return LinExpr.from_constant(float(value))
    raise ModelError(f"cannot convert {value!r} to a linear expression")
