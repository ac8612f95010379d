"""Big-M / indicator linearization helpers.

These helpers implement, over the generic :class:`~repro.milp.model.Model`,
the linearization tricks the paper applies to its query encoding:

* :func:`add_binary_times_affine` — the four-inequality envelope of the
  paper's Equation (3), generalized from a ``[0, M]`` domain to an arbitrary
  bounded domain ``[lower, upper]``, producing a variable equal to
  ``binary * expr``.
* :func:`add_comparison_indicator` — ties a binary variable to the truth value
  of a linear comparison (the ``x_{q,t} = sigma_q(t)`` step, Equation (1)).
* :func:`add_conjunction` / :func:`add_disjunction` — combine indicator
  variables for AND / OR WHERE clauses.
* :func:`add_absolute_value` — the standard two-inequality reformulation used
  to express the Manhattan-distance objective (Section 4.3).

Every helper writes its rows straight into the model's row buffers
(:meth:`~repro.milp.model.Model._add_row`).  Each row is normalized with
:func:`~repro.milp.model.difference` from the two sides the docstrings show,
and each side is built with the float operations ``LinExpr`` arithmetic
would use for the same expression (noted beside every row), so the stored
rows are exactly those ``Model.add_constraint`` would store.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ModelError
from repro.milp.expr import LinExpr, accumulate, as_linexpr
from repro.milp.model import EQ, GE, LE, Model, difference
from repro.milp.variables import Variable

#: Operators accepted by :func:`add_comparison_indicator`.
INDICATOR_OPS = ("<=", ">=", "<", ">", "=", "!=")


def _times(variable: Variable, factor: float) -> dict[Variable, float]:
    """The terms of ``variable * factor`` (no term for a zero factor)."""
    return {variable: 1.0 * factor} if factor != 0.0 else {}


def _plus(terms: dict[Variable, float], variable: Variable, factor: float) -> dict[Variable, float]:
    """The terms of ``expr + variable * factor`` for ``expr`` with ``terms``."""
    merged = dict(terms)
    accumulate(merged, {variable: 1.0}, factor)
    return merged


def _row(
    model: Model,
    left: "dict[Variable, float]",
    left_constant: float,
    right: "dict[Variable, float]",
    right_constant: float,
    sense: int,
    name: str,
    big_m: float | None = None,
) -> None:
    terms, rhs = difference(left, left_constant, right, right_constant)
    model._add_row(terms, sense, rhs, name, big_m)


def add_binary_times_affine(
    model: Model,
    binary: Variable,
    expr: "LinExpr | Variable | float",
    *,
    lower: float,
    upper: float,
    name: str,
) -> Variable:
    """Create ``u = binary * expr`` where ``expr`` is bounded in ``[lower, upper]``.

    The returned continuous variable ``u`` equals ``expr`` when ``binary`` is 1
    and 0 when ``binary`` is 0, enforced through the McCormick-style envelope::

        u <= upper * binary              u >= lower * binary
        u <= expr - lower * (1 - binary) u >= expr - upper * (1 - binary)
    """
    if lower > upper:
        raise ModelError(f"invalid bounds for product linearization: [{lower}, {upper}]")
    expression = as_linexpr(expr)
    u = model.add_continuous(name, lower=min(lower, 0.0), upper=max(upper, 0.0))
    own = {u: 1.0}
    terms, constant = expression.terms, expression.constant
    if not terms:
        # binary * constant is already linear: one equality instead of the
        # four-inequality envelope (a large model-size saving for UPDATE
        # deltas that constant-fold).
        # u == binary * constant
        _row(model, own, 0.0, _times(binary, constant), 0.0 * constant, EQ, f"{name}_const")
        return u
    # u <= binary * upper ; u >= binary * lower
    _row(model, own, 0.0, _times(binary, upper), 0.0 * upper, LE, f"{name}_ub_bin")
    _row(model, own, 0.0, _times(binary, lower), 0.0 * lower, GE, f"{name}_lb_bin")
    # u <= expr - lower + binary * lower ; u >= expr - upper + binary * upper
    _row(
        model, own, 0.0, _plus(terms, binary, lower),
        (constant + -float(lower)) + 0.0 * lower, LE, f"{name}_ub_expr",
    )
    _row(
        model, own, 0.0, _plus(terms, binary, upper),
        (constant + -float(upper)) + 0.0 * upper, GE, f"{name}_lb_expr",
    )
    return u


def add_absolute_value(
    model: Model,
    expr: "LinExpr | Variable | float",
    *,
    name: str,
    upper: float | None = None,
) -> Variable:
    """Create ``d >= |expr|`` for use in a minimization objective.

    Because the objective minimizes ``d``, at any optimum ``d`` equals the
    absolute value exactly; no binaries are needed.
    """
    expression = as_linexpr(expr)
    bound = upper if upper is not None else 1e9
    d = model.add_continuous(name, lower=0.0, upper=bound)
    terms, constant = expression.terms, expression.constant
    # d >= expr ; d >= -1.0 * expr
    _row(model, {d: 1.0}, 0.0, terms, constant, GE, f"{name}_pos")
    negated = {variable: coeff * -1.0 for variable, coeff in terms.items()}
    _row(model, {d: 1.0}, 0.0, negated, constant * -1.0, GE, f"{name}_neg")
    return d


def add_comparison_indicator(
    model: Model,
    binary: Variable,
    lhs: "LinExpr | Variable | float",
    op: str,
    rhs: "LinExpr | Variable | float",
    *,
    big_m: float,
    epsilon: float,
    name: str,
) -> None:
    """Constrain ``binary`` to be 1 exactly when ``lhs op rhs`` holds.

    ``big_m`` must bound ``|lhs - rhs|`` over the variable domains; ``epsilon``
    is the margin used to model strict inequalities (with integer-valued data
    an epsilon of 0.5 makes the encoding exact).
    """
    if op not in INDICATOR_OPS:
        raise ModelError(f"unsupported comparison operator '{op}'")
    left, right = as_linexpr(lhs), as_linexpr(rhs)
    # diff = lhs - rhs
    diff = dict(left.terms)
    accumulate(diff, right.terms, -1.0)
    _indicator(
        model, binary, diff, left.constant + right.constant * -1.0, op,
        big_m=big_m, epsilon=epsilon, name=name,
    )


def _indicator(
    model: Model,
    binary: Variable,
    diff: dict[Variable, float],
    constant: float,
    op: str,
    *,
    big_m: float,
    epsilon: float,
    name: str,
) -> None:
    """The rows of :func:`add_comparison_indicator` for ``diff op 0``.

    ``diff`` / ``constant`` are the terms and constant of ``lhs - rhs``.
    Every on/off row is tagged with its big-M constant: the presolve's
    tightening pass reports (and the benchmarks histogram) declared-vs-
    effective M per row.
    """
    on, off = f"{name}_on", f"{name}_off"
    if op == ">=":
        # binary = 1  =>  diff >= 0 ; binary = 0  =>  diff <= -epsilon
        # diff >= binary * big_m - big_m ; diff <= binary * big_m - epsilon
        row_m = _times(binary, big_m)
        _row(model, diff, constant, row_m, 0.0 * big_m + -float(big_m), GE, on, big_m)
        _row(model, diff, constant, row_m, 0.0 * big_m + -float(epsilon), LE, off, big_m)
    elif op == "<=":
        # diff <= big_m - binary * big_m ; diff >= epsilon - binary * big_m
        row_m = {v: c * -1.0 for v, c in _times(binary, big_m).items()}
        flipped = (0.0 * big_m) * -1.0
        _row(model, diff, constant, row_m, flipped + big_m, LE, on, big_m)
        _row(model, diff, constant, row_m, flipped + epsilon, GE, off, big_m)
    elif op == ">":
        # binary = 1  =>  diff >= epsilon ; binary = 0  =>  diff <= 0
        # diff >= binary * (big_m + epsilon) - big_m ; diff <= binary * big_m
        wide = big_m + epsilon
        _row(
            model, diff, constant, _times(binary, wide), 0.0 * wide + -float(big_m),
            GE, on, wide,
        )
        _row(model, diff, constant, _times(binary, big_m), 0.0 * big_m, LE, off, big_m)
    elif op == "<":
        # diff <= big_m - binary * (big_m + epsilon) ; diff >= -1.0 * binary * big_m
        wide = big_m + epsilon
        row_wide = {v: c * -1.0 for v, c in _times(binary, wide).items()}
        _row(model, diff, constant, row_wide, (0.0 * wide) * -1.0 + big_m, LE, on, wide)
        _row(
            model, diff, constant, _times(binary, -1.0 * big_m), (0.0 * -1.0) * big_m,
            GE, off, big_m,
        )
    elif op == "=":
        # Equality needs two one-sided indicators conjoined.
        ge_bin = model.add_binary(f"{name}_ge")
        le_bin = model.add_binary(f"{name}_le")
        # The recursion compares ``diff - 0.0``.
        inner = constant + 0.0 * -1.0
        _indicator(
            model, ge_bin, dict(diff), inner, ">=",
            big_m=big_m, epsilon=epsilon, name=f"{name}_geq",
        )
        _indicator(
            model, le_bin, dict(diff), inner, "<=",
            big_m=big_m, epsilon=epsilon, name=f"{name}_leq",
        )
        add_conjunction(model, binary, [ge_bin, le_bin], name=f"{name}_and")
    else:  # "!="
        eq_bin = model.add_binary(f"{name}_eq")
        _indicator(
            model, eq_bin, dict(diff), constant + 0.0 * -1.0, "=",
            big_m=big_m, epsilon=epsilon, name=f"{name}_inner",
        )
        # binary + eq_bin == 1
        _row(model, _plus({binary: 1.0}, eq_bin, 1.0), 0.0, {}, 1.0, EQ, f"{name}_neg")


def add_conjunction(
    model: Model,
    binary: Variable,
    children: Sequence[Variable],
    *,
    name: str,
) -> None:
    """Constrain ``binary`` to equal the logical AND of ``children``."""
    own = {binary: 1.0}
    if not children:
        _row(model, own, 0.0, {}, 1.0, EQ, f"{name}_empty")
        return
    for index, child in enumerate(children):
        # binary <= child
        child_expr = as_linexpr(child)
        _row(
            model, own, 0.0, child_expr.terms, child_expr.constant, LE,
            f"{name}_le_{index}",
        )
    total = LinExpr.sum(children)
    # binary >= sum(children) - (len(children) - 1)
    _row(
        model, own, 0.0, total.terms, total.constant + -float(len(children) - 1), GE,
        f"{name}_ge",
    )


def add_disjunction(
    model: Model,
    binary: Variable,
    children: Sequence[Variable],
    *,
    name: str,
) -> None:
    """Constrain ``binary`` to equal the logical OR of ``children``."""
    own = {binary: 1.0}
    if not children:
        _row(model, own, 0.0, {}, 0.0, EQ, f"{name}_empty")
        return
    for index, child in enumerate(children):
        # binary >= child
        child_expr = as_linexpr(child)
        _row(
            model, own, 0.0, child_expr.terms, child_expr.constant, GE,
            f"{name}_ge_{index}",
        )
    total = LinExpr.sum(children)
    # binary <= sum(children)
    _row(model, own, 0.0, total.terms, total.constant, LE, f"{name}_le")
