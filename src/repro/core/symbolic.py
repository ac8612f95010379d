"""Symbolic tuple values used while encoding the query log.

While the encoder walks the query log it maintains, for every encoded tuple
and attribute, a *symbolic value*: either a concrete float (when nothing
upstream depends on an undetermined parameter) or a linear expression over
MILP variables together with interval bounds.  Constant folding is what makes
the incremental algorithm cheap: queries outside the parameterized window
usually evaluate concretely and contribute no constraints at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ModelError
from repro.milp.expr import LinExpr, accumulate, as_linexpr
from repro.milp.variables import Variable
from repro.queries.expressions import Affine


@dataclass(slots=True)
class SymbolicValue:
    """A value that is either a known constant or a bounded linear expression.

    ``expr`` is a float for constants, otherwise a :class:`LinExpr` (or a
    :class:`Variable`).  ``lower`` / ``upper`` are interval bounds that hold
    for every feasible assignment — they size the big-M constants.

    The arithmetic below is exact to the float: every result carries the
    float operations (in order, including the sign of every zero) that the
    same sums and products of ``LinExpr`` objects would perform, but builds
    one term dict per result instead of one expression per step.
    """

    expr: "float | LinExpr | Variable"
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if isinstance(self.expr, Variable):
            self.expr = as_linexpr(self.expr)
        if self.lower > self.upper + 1e-9:
            raise ModelError(
                f"symbolic value has inverted bounds [{self.lower}, {self.upper}]"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "SymbolicValue":
        """A fully known value."""
        return cls(float(value), float(value), float(value))

    @classmethod
    def from_variable(cls, variable: Variable) -> "SymbolicValue":
        """A symbolic value equal to a single decision variable."""
        return cls(as_linexpr(variable), variable.lower, variable.upper)

    # -- inspection -------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        """Whether the value is a plain float."""
        return isinstance(self.expr, float)

    def as_float(self) -> float:
        """The constant value; raises if the value is symbolic."""
        if not isinstance(self.expr, float):
            raise ModelError("symbolic value is not constant")
        return self.expr

    def as_expr(self) -> "LinExpr | float":
        """The value as something accepted by the MILP layer."""
        return self.expr

    # -- arithmetic -------------------------------------------------------------

    def subtract(self, other: "SymbolicValue") -> "SymbolicValue":
        """Difference of two symbolic values: ``self + other * -1.0``.

        Bounds add, with ``other``'s scaled bounds sorted (a constant's
        bounds are its value).
        """
        if self.is_constant and other.is_constant:
            return SymbolicValue.constant(self.expr + other.expr * -1.0)  # type: ignore[operator]
        if isinstance(self.expr, float):
            terms: dict[Variable, float] = {}
            constant = self.expr
        else:
            terms = dict(self.expr.terms)  # type: ignore[union-attr]
            constant = self.expr.constant  # type: ignore[union-attr]
        if isinstance(other.expr, float):
            low = high = other.expr * -1.0
            constant += low
        else:
            accumulate(terms, other.expr.terms, -1.0)  # type: ignore[union-attr]
            constant += other.expr.constant * -1.0  # type: ignore[union-attr]
            low, high = _scaled_bounds(other.lower, other.upper, -1.0)
        return SymbolicValue(LinExpr._of(terms, constant), self.lower + low, self.upper + high)


def _scaled_bounds(lower: float, upper: float, factor: float) -> tuple[float, float]:
    """``sorted((lower * factor, upper * factor))``."""
    low, high = lower * factor, upper * factor
    return (high, low) if high < low else (low, high)


def affine_to_symbolic(
    affine: Affine,
    attribute_values: Mapping[str, SymbolicValue],
    param_variables: Mapping[str, Variable],
    param_bounds: Mapping[str, tuple[float, float]],
    constants: Mapping[str, float] | None = None,
) -> SymbolicValue:
    """Instantiate an :class:`~repro.queries.expressions.Affine` form.

    Attribute references are substituted with the tuple's current symbolic
    values — from ``attribute_values``, else the plain floats of
    ``constants`` (the tuple's concrete shadow values); parameters become
    decision variables when the owning query is parameterized (present in
    ``param_variables``) and plain numbers otherwise.

    The result is ``constant(affine.constant)`` plus each term scaled by its
    coefficient, summed left to right: one term dict and one constant are
    accumulated with the float operations of that chain of sums.
    """
    constant = lower = upper = float(affine.constant)
    terms: dict[Variable, float] | None = None
    for name, coeff in affine.attr_coeffs.items():
        if coeff == 0.0:
            continue
        value = attribute_values.get(name)
        if value is None:
            if constants is None or name not in constants:
                raise ModelError(f"no symbolic value available for attribute '{name}'")
            expr: "float | LinExpr" = float(constants[name])
        else:
            expr = value.expr
        if isinstance(expr, float):
            scaled = expr * coeff
            constant += scaled
            lower += scaled
            upper += scaled
            continue
        if terms is None:
            terms = {}
        accumulate(terms, expr.terms, coeff)
        constant += expr.constant * coeff
        low, high = _scaled_bounds(value.lower, value.upper, coeff)  # type: ignore[union-attr]
        lower += low
        upper += high
    for name, coeff in affine.param_coeffs.items():
        if coeff == 0.0:
            continue
        if name in param_variables:
            variable = param_variables[name]
            bound_low, bound_high = param_bounds.get(name, (variable.lower, variable.upper))
            if terms is None:
                terms = {}
            accumulate(terms, {variable: 1.0}, coeff)
            constant += 0.0 * coeff
            low, high = _scaled_bounds(bound_low, bound_high, coeff)
            lower += low
            upper += high
        else:
            scaled = float(affine.param_values[name]) * coeff
            constant += scaled
            lower += scaled
            upper += scaled
    if terms is None:
        return SymbolicValue(constant, constant, constant)
    return SymbolicValue(LinExpr._of(terms, constant), lower, upper)
