"""Compiled queries: WHERE and SET clauses as float kernels.

Replay, the encoder's shadow replay and the encoder's constant folding all
evaluate the same expression trees on plain floats, many times per query —
once per scanned row, once per encoded tuple.  A :class:`CompiledLog` turns
each query into *kernels*, closures over the query's affine forms that take a
row (attribute -> float) and return a float or a truth value, and keeps them
for the rest of one diagnosis.

**Exactness.**  A kernel performs the float operations of
:meth:`Predicate.evaluate` / :meth:`Affine.evaluate` in the same order, so its
result is bit-identical.  An affine kernel starts from the constant, adds
``coeff * row[attr]`` per attribute and then ``coeff * value`` per parameter
(that product is taken once, at compile time — it is the same product).  A
comparison against a constant adds the tolerance to the constant once, which
is the ``rhs + tolerance`` the interpreter computes on every call.  The one
liberty taken is dropping ``0.0 + 1.0 *`` around a lone attribute inside a
comparison: that can only change the sign of a zero, which no comparison
sees.  Kernels expect rows of floats, which is what tables hold.

**Lifetime.**  Pieces of a :class:`CompiledQuery` are built on first use
(compile only where a kernel is reused: a point UPDATE that the replay index
probes never needs its WHERE kernel), memoized by query identity inside one
:class:`CompiledLog`, and dropped with it.  Nothing compiled is stored on
query objects, so queries pickle and compare exactly as before.  A repaired
log built by :meth:`QueryLog.with_params` keeps its untouched queries by
identity and so reuses their kernels.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Mapping

from repro.db.schema import Schema
from repro.exceptions import QueryModelError
from repro.queries.expressions import Affine, Expr
from repro.queries.predicates import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)
from repro.queries.query import WILDCARD, DeleteQuery, InsertQuery, Query, UpdateQuery

#: A compiled SET expression: row -> value.
Kernel = Callable[[Mapping[str, float]], float]
#: A compiled WHERE clause: row -> match.
Test = Callable[[Mapping[str, float]], bool]

#: ``op -> holds(lhs, rhs, tolerance)``: the float semantics of
#: :meth:`Comparison.evaluate`, shared by every kernel and by the encoder's
#: folding of comparisons between two constants.
COMPARE: dict[str, Callable[[float, float, float], bool]] = {
    "<=": lambda lhs, rhs, tolerance: lhs <= rhs + tolerance,
    ">=": lambda lhs, rhs, tolerance: lhs >= rhs - tolerance,
    "<": lambda lhs, rhs, tolerance: lhs < rhs - tolerance,
    ">": lambda lhs, rhs, tolerance: lhs > rhs + tolerance,
    "=": lambda lhs, rhs, tolerance: abs(lhs - rhs) <= tolerance,
    "!=": lambda lhs, rhs, tolerance: abs(lhs - rhs) > tolerance,
}

#: Query kinds, compared by identity.
UPDATE, INSERT, DELETE = "update", "insert", "delete"


# -- expressions ----------------------------------------------------------------------


def _reads_attributes(affine: Affine) -> bool:
    # ``Affine.evaluate`` skips zero coefficients, and only zeros are falsy.
    return any(affine.attr_coeffs.values())


def _parameter_terms(affine: Affine) -> list[float]:
    """``coeff * value`` per parameter, the products ``Affine.evaluate`` adds last."""
    return [
        coeff * float(affine.param_values[name])
        for name, coeff in affine.param_coeffs.items()
        if coeff != 0.0
    ]


def _constant_value(affine: Affine) -> float:
    """``affine.evaluate()`` for a form that reads no attribute, summed in its order."""
    value = affine.constant
    if affine.param_coeffs:
        for term in _parameter_terms(affine):
            value += term
    return value


def _compile_affine(affine: Affine, known: Collection[str]) -> Kernel:
    """The float kernel of ``affine.evaluate(row)``.

    ``known`` names the attributes every row carries.  A form that reads any
    other attribute keeps the interpreter, so the missing value raises the
    same :class:`QueryModelError` it always did.
    """
    if not _reads_attributes(affine):
        value = _constant_value(affine)
        return lambda row: value
    terms = tuple((name, coeff) for name, coeff in affine.attr_coeffs.items() if coeff != 0.0)
    if any(name not in known for name, _ in terms):
        return affine.evaluate
    constant = affine.constant
    tail = _parameter_terms(affine)
    if len(terms) == 1 and len(tail) <= 1:
        ((name, coeff),) = terms
        if not tail:
            return lambda row: constant + coeff * row[name]
        (term,) = tail
        return lambda row: constant + coeff * row[name] + term

    def kernel(row: Mapping[str, float]) -> float:
        total = constant
        for name, coeff in terms:
            total += coeff * row[name]
        for term in tail:
            total += term
        return total

    return kernel


def compile_expr(expr: Expr, known: Collection[str]) -> Kernel:
    """The float kernel of ``expr.evaluate(row)``."""
    return _compile_affine(expr.affine(), known)


# -- predicates -----------------------------------------------------------------------


def _lone_attribute(affine: Affine, known: Collection[str]) -> str | None:
    """The attribute ``a`` when ``affine`` is exactly ``0 + 1 * a`` over a known attribute.

    Forms padded with zero coefficients answer ``None`` and take the general
    kernel, which is just as exact.
    """
    attrs = affine.attr_coeffs
    if len(attrs) != 1 or affine.constant != 0.0 or affine.param_coeffs:
        return None
    ((name, coeff),) = attrs.items()
    return name if coeff == 1.0 and name in known else None


def _attribute_versus_constant(
    comparison: Comparison, known: Collection[str]
) -> tuple[str, float] | None:
    """``(attribute, constant)`` when ``comparison`` tests a lone attribute against a constant.

    Equality and inequality are symmetric, so for them the attribute may sit
    on either side; ordered comparisons need it on the left.
    """
    left, right = comparison.left.affine(), comparison.right.affine()
    if comparison.op in ("=", "!=") and not _reads_attributes(left):
        left, right = right, left
    if _reads_attributes(right):
        return None
    name = _lone_attribute(left, known)
    if name is None:
        return None
    return name, _constant_value(right)


def _compile_comparison(comparison: Comparison, known: Collection[str]) -> Test:
    op, tolerance = comparison.op, comparison.tolerance
    shape = _attribute_versus_constant(comparison, known)
    if shape is not None:
        name, value = shape
        if op == "<=":
            bound = value + tolerance
            return lambda row: row[name] <= bound
        if op == ">=":
            bound = value - tolerance
            return lambda row: row[name] >= bound
        if op == "<":
            bound = value - tolerance
            return lambda row: row[name] < bound
        if op == ">":
            bound = value + tolerance
            return lambda row: row[name] > bound
        if op == "=":
            return lambda row: abs(row[name] - value) <= tolerance
        return lambda row: abs(row[name] - value) > tolerance
    left = compile_expr(comparison.left, known)
    right = compile_expr(comparison.right, known)
    holds = COMPARE[op]
    return lambda row: holds(left(row), right(row), tolerance)


def compile_predicate(predicate: Predicate, known: Collection[str]) -> Test:
    """The kernel of ``predicate.evaluate(row)``."""
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate, known)
    if isinstance(predicate, TruePredicate):
        return lambda row: True
    if isinstance(predicate, FalsePredicate):
        return lambda row: False
    if isinstance(predicate, (And, Or)):
        is_and = isinstance(predicate, And)
        tests = tuple(compile_predicate(child, known) for child in predicate.children)
        if len(tests) == 1:
            return tests[0]
        if len(tests) == 2:
            first, second = tests
            if is_and:
                return lambda row: first(row) and second(row)
            return lambda row: first(row) or second(row)
        if is_and:
            return lambda row: all(test(row) for test in tests)
        return lambda row: any(test(row) for test in tests)
    # Unknown predicate classes keep their own semantics.
    return predicate.evaluate


# -- queries --------------------------------------------------------------------------


_KINDS = {UpdateQuery: UPDATE, DeleteQuery: DELETE, InsertQuery: INSERT}
#: ``CompiledQuery.point`` not computed yet (``None`` means "not a point query").
_UNSET = object()


class CompiledQuery:
    """One query's kernels, each built the first time it is asked for."""

    __slots__ = ("query", "kind", "_known", "_where", "_sets", "_values", "_point", "_writes")

    def __init__(self, query: Query, known: frozenset[str]) -> None:
        for cls, kind in _KINDS.items():
            if isinstance(query, cls):
                break
        else:
            raise QueryModelError(f"unsupported query type: {type(query).__name__}")
        self.kind = kind
        self.query = query
        self._known = known
        self._where: Test | None = None
        self._sets: tuple[tuple[str, Kernel], ...] | None = None
        self._values: dict[str, float] | None = None
        self._point: object = _UNSET
        self._writes: frozenset[str] | None = None

    @property
    def where(self) -> Test:
        """The WHERE clause of an UPDATE or DELETE."""
        where = self._where
        if where is None:
            where = self._where = compile_predicate(self.query.where, self._known)
        return where

    @property
    def sets(self) -> tuple[tuple[str, Kernel], ...]:
        """``(attribute, kernel)`` per SET assignment of an UPDATE, in clause order."""
        sets = self._sets
        if sets is None:
            known = self._known
            sets = self._sets = tuple(
                [(attribute, compile_expr(expr, known)) for attribute, expr in self.query.set_clause]
            )
        return sets

    def sets_for(self, rows: int) -> tuple[tuple[str, Kernel], ...]:
        """The SET assignments for a write of ``rows`` rows.

        A kernel costs about three evaluations to build, so a one-row write
        of a query whose kernels nobody built yet (a probed point UPDATE of
        a one-off replay) runs the interpreter, which computes the same
        floats.
        """
        if rows == 1 and self._sets is None:
            return tuple([(attribute, expr.evaluate) for attribute, expr in self.query.set_clause])
        return self.sets

    @property
    def values(self) -> dict[str, float]:
        """The values an INSERT provides, attribute -> value."""
        values = self._values
        if values is None:
            values = self._values = {
                attribute: expr.evaluate({}) for attribute, expr in self.query.values
            }
        return values

    @property
    def point(self) -> tuple[str, float, float] | None:
        """``(attribute, value, tolerance)`` when the WHERE clause is ``attribute = constant``.

        Point predicates dominate the paper's logs (key-equality UPDATEs);
        the shape lets replay probe an equality index instead of scanning.
        """
        point = self._point
        if point is _UNSET:
            where = self.query.where
            shape = None
            if type(where) is Comparison and where.op == "=":
                shape = _attribute_versus_constant(where, self._known)
            point = self._point = (
                None if shape is None else (shape[0], shape[1], where.tolerance)
            )
        return point  # type: ignore[return-value]

    @property
    def writes(self) -> frozenset[str]:
        """``I(q)``: the attributes the query writes; a DELETE writes every attribute."""
        writes = self._writes
        if writes is None:
            impact = self.query.direct_impact()
            writes = self._writes = self._known if WILDCARD in impact else impact
        return writes


class CompiledLog:
    """The compiled queries of one diagnosis, memoized by query identity.

    Build one per diagnosis and let it go with it: kernels are cheap to
    rebuild and expensive to keep — a process-lifetime memo grows with every
    expression the process ever saw.  Only callers that reuse a query's
    kernels memoize it (:meth:`query`); a one-off application takes
    :meth:`once`, so a long log replayed a single time leaves nothing behind
    for the garbage collector to trace.
    """

    def __init__(self, schema: Schema) -> None:
        self._known = frozenset(schema.attribute_names)
        # Each entry holds its query, so an id cannot be recycled while cached.
        self._compiled: dict[int, CompiledQuery] = {}

    def query(self, query: Query) -> CompiledQuery:
        """The compiled form of ``query``, memoized."""
        compiled = self._compiled.get(id(query))
        if compiled is None:
            compiled = CompiledQuery(query, self._known)
            self._compiled[id(query)] = compiled
        return compiled

    def once(self, query: Query) -> CompiledQuery:
        """The memoized form of ``query`` if there is one, else a fresh one that is not kept."""
        compiled = self._compiled.get(id(query))
        return compiled if compiled is not None else CompiledQuery(query, self._known)

    def of(self, log: Iterable[Query]) -> list[CompiledQuery]:
        """The memoized compiled form of every query of ``log``, in log order."""
        return [self.query(query) for query in log]
