"""Expression trees and their canonical affine form.

QFix repairs the *constants* of queries, never their structure.  We therefore
distinguish two kinds of numeric literals:

* :class:`Const` — a plain constant that is considered structurally fixed;
* :class:`Param` — a named, repairable constant.  Every parameter of a
  parameterized query becomes an undetermined variable in the MILP.

Expressions are restricted to affine (linear) combinations of attributes and
literals, matching the paper's problem scope.  :meth:`Expr.to_affine` reduces
any supported expression tree to the canonical :class:`Affine` form used by
both the executor and the MILP encoder; non-linear trees raise
:class:`~repro.exceptions.NonLinearExpressionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.exceptions import NonLinearExpressionError, QueryModelError


class Expr:
    """Base class for all scalar expressions."""

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", _wrap(other), self)

    def __neg__(self) -> "Expr":
        return BinOp("*", Const(-1.0), self)

    # -- core protocol --------------------------------------------------------

    def to_affine(self) -> "Affine":
        """Reduce the expression to canonical affine form."""
        raise NotImplementedError

    def affine(self) -> "Affine":
        """Memoized affine form (expressions are immutable, so caching is safe).

        The memo lives on the instance and dies with it.  It is not a
        dataclass field, so equality, hashing and ``repr`` ignore it, and
        :meth:`__getstate__` leaves it out of pickles.
        """
        try:
            return self._affine  # type: ignore[attr-defined]
        except AttributeError:
            affine = self.to_affine()
            object.__setattr__(self, "_affine", affine)
            return affine

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_affine", None)
        return state

    def evaluate(
        self,
        row: Mapping[str, float] | None = None,
        param_overrides: Mapping[str, float] | None = None,
    ) -> float:
        """Evaluate against a row (attribute -> value) and parameter overrides."""
        return self.affine().evaluate(row, param_overrides)

    def attributes(self) -> frozenset[str]:
        """Attribute names referenced by the expression."""
        return self.affine().attributes()

    def params(self) -> tuple["Param", ...]:
        """Parameters referenced by the expression, in canonical order."""
        return self.affine().params()

    def render_sql(self) -> str:
        """Render the expression as SQL text."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A structurally fixed numeric literal."""

    value: float

    def to_affine(self) -> "Affine":
        return Affine(constant=float(self.value))

    def render_sql(self) -> str:
        return _format_number(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """A named repairable constant.

    ``name`` must be unique within a query; the query constructors enforce
    uniqueness.  ``value`` is the current (possibly corrupted) constant.
    """

    name: str
    value: float

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryModelError("parameter name must be non-empty")

    def to_affine(self) -> "Affine":
        return Affine(param_coeffs={self.name: 1.0}, param_values={self.name: float(self.value)})

    def with_value(self, value: float) -> "Param":
        """Return a copy of this parameter with a different value."""
        return Param(self.name, float(value))

    def render_sql(self) -> str:
        return _format_number(self.value)


@dataclass(frozen=True)
class Attr(Expr):
    """A reference to an attribute of the tuple being processed."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryModelError("attribute name must be non-empty")

    def to_affine(self) -> "Affine":
        return Affine(attr_coeffs={self.name: 1.0})

    def render_sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation (``+``, ``-`` or ``*``).

    Multiplication is only supported when at least one side reduces to a
    constant (no attributes and no parameters with non-constant coefficients),
    which keeps every expression affine.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in {"+", "-", "*"}:
            raise QueryModelError(f"unsupported operator '{self.op}'")

    def to_affine(self) -> "Affine":
        left = self.left.to_affine()
        right = self.right.to_affine()
        if self.op == "+":
            return left.add(right)
        if self.op == "-":
            return left.add(right.scale(-1.0))
        # multiplication: one side must be a pure constant
        if right.is_constant():
            return left.scale(right.constant)
        if left.is_constant():
            return right.scale(left.constant)
        raise NonLinearExpressionError(
            "multiplication requires at least one constant operand; "
            f"got {self.render_sql()!r}"
        )

    def render_sql(self) -> str:
        left = self.left.render_sql()
        right = self.right.render_sql()
        if self.op == "*":
            left = f"({left})" if isinstance(self.left, BinOp) and self.left.op != "*" else left
            right = f"({right})" if isinstance(self.right, BinOp) and self.right.op != "*" else right
        return f"{left} {self.op} {right}"


@dataclass(frozen=True)
class Affine:
    """Canonical affine form ``sum(a_i * attr_i) + sum(c_j * param_j) + constant``.

    ``param_values`` records the current numeric value of each referenced
    parameter so the affine form can be evaluated without the original query.
    """

    attr_coeffs: Mapping[str, float] = field(default_factory=dict)
    param_coeffs: Mapping[str, float] = field(default_factory=dict)
    param_values: Mapping[str, float] = field(default_factory=dict)
    constant: float = 0.0

    # -- algebra --------------------------------------------------------------

    def add(self, other: "Affine") -> "Affine":
        """Return the sum of two affine forms."""
        attr = dict(self.attr_coeffs)
        for name, coeff in other.attr_coeffs.items():
            attr[name] = attr.get(name, 0.0) + coeff
        params = dict(self.param_coeffs)
        for name, coeff in other.param_coeffs.items():
            params[name] = params.get(name, 0.0) + coeff
        values = dict(self.param_values)
        values.update(other.param_values)
        return Affine(attr, params, values, self.constant + other.constant)

    def scale(self, factor: float) -> "Affine":
        """Return this affine form multiplied by a scalar."""
        return Affine(
            {name: coeff * factor for name, coeff in self.attr_coeffs.items()},
            {name: coeff * factor for name, coeff in self.param_coeffs.items()},
            dict(self.param_values),
            self.constant * factor,
        )

    # -- inspection -----------------------------------------------------------

    def is_constant(self) -> bool:
        """Whether the form references no attributes and no parameters."""
        return not self.attr_coeffs and not self.param_coeffs

    def attributes(self) -> frozenset[str]:
        return frozenset(name for name, coeff in self.attr_coeffs.items() if coeff != 0.0)

    def params(self) -> tuple[Param, ...]:
        return tuple(
            Param(name, self.param_values.get(name, 0.0))
            for name in self.param_coeffs
        )

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        row: Mapping[str, float] | None = None,
        param_overrides: Mapping[str, float] | None = None,
    ) -> float:
        """Numerically evaluate the affine form.

        ``row`` supplies attribute values; ``param_overrides`` replaces the
        recorded parameter values (used when evaluating a candidate repair).
        """
        total = self.constant
        for name, coeff in self.attr_coeffs.items():
            if coeff == 0.0:
                continue
            if row is None or name not in row:
                raise QueryModelError(f"missing value for attribute '{name}'")
            total += coeff * float(row[name])
        for name, coeff in self.param_coeffs.items():
            if coeff == 0.0:
                continue
            if param_overrides is not None and name in param_overrides:
                value = float(param_overrides[name])
            else:
                value = float(self.param_values[name])
            total += coeff * value
        return total

    def substitute_params(self, mapping: Mapping[str, float]) -> "Affine":
        """Return a copy with updated recorded parameter values."""
        values = dict(self.param_values)
        for name in self.param_coeffs:
            if name in mapping:
                values[name] = float(mapping[name])
        return Affine(dict(self.attr_coeffs), dict(self.param_coeffs), values, self.constant)


def _wrap(value: "Expr | float | int") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise QueryModelError(f"cannot use {value!r} in an expression")


def _format_number(value: float) -> str:
    """Render a float without a trailing ``.0`` when it is integral."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def rebuild_expression(expr: Expr, mapping: Mapping[str, float]) -> Expr:
    """Return ``expr`` with every :class:`Param` replaced per ``mapping``.

    Parameters not present in ``mapping`` keep their current values.  The
    structure of the expression (and hence the rendered SQL) is preserved.
    """
    if isinstance(expr, Param):
        if expr.name in mapping:
            return expr.with_value(mapping[expr.name])
        return expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            rebuild_expression(expr.left, mapping),
            rebuild_expression(expr.right, mapping),
        )
    return expr


def contains_attribute(expr: Expr) -> bool:
    """Whether the expression tree references any attribute."""
    if isinstance(expr, Attr):
        return True
    if isinstance(expr, BinOp):
        return contains_attribute(expr.left) or contains_attribute(expr.right)
    return False


def demote_params(expr: Expr) -> Expr:
    """Replace every :class:`Param` in ``expr`` with an equal :class:`Const`.

    Used when a literal appears in a position where it cannot be repaired
    without making the encoding non-linear — e.g. a coefficient that
    multiplies an attribute (``income * 0.3``).
    """
    if isinstance(expr, Param):
        return Const(expr.value)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, demote_params(expr.left), demote_params(expr.right))
    return expr


def collect_params(expr: Expr) -> Dict[str, float]:
    """Return ``{param name: current value}`` for every parameter in ``expr``.

    Unlike :meth:`Expr.params` this walks the original tree, so parameters
    that cancel out in the affine form are still reported.
    """
    found: Dict[str, float] = {}
    _collect_params_into(expr, found)
    return found


def _collect_params_into(expr: Expr, found: Dict[str, float]) -> None:
    if isinstance(expr, Param):
        if expr.name in found and found[expr.name] != expr.value:
            raise QueryModelError(
                f"parameter '{expr.name}' used with conflicting values"
            )
        found[expr.name] = expr.value
    elif isinstance(expr, BinOp):
        _collect_params_into(expr.left, found)
        _collect_params_into(expr.right, found)
