"""UPDATE / INSERT / DELETE query objects.

A query is an immutable description of one logged DML statement.  Queries own
their repairable parameters (:class:`~repro.queries.expressions.Param`);
``params()`` exposes them in a deterministic order and ``with_params()``
produces a structurally identical query with new constant values — the shape
of a *log repair* in the paper (repairs never change query structure, only
constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import QueryModelError
from repro.queries.expressions import (
    Expr,
    collect_params,
    rebuild_expression,
)
from repro.queries.predicates import Predicate, TruePredicate

#: What a DELETE reports as its direct impact: every attribute of the tuple.
WILDCARD = "*"


@dataclass(frozen=True)
class Query:
    """Base class for logged DML statements.

    Attributes
    ----------
    table:
        Name of the relation the query targets.
    label:
        Optional human-readable label (e.g. ``"q1"``) used in rendered SQL
        comments and experiment reports.
    """

    table: str
    label: str = field(default="", compare=False)

    # -- parameter protocol ----------------------------------------------------

    def params(self) -> dict[str, float]:
        """Return ``{parameter name: current value}`` in deterministic order."""
        raise NotImplementedError

    def with_params(self, mapping: Mapping[str, float]) -> "Query":
        """Return a copy of the query with parameter values replaced."""
        raise NotImplementedError

    def param_count(self) -> int:
        """Number of repairable parameters (``|q.param|`` in the paper)."""
        return len(self.params())

    # -- slicing metadata (Definitions 6 and 7) --------------------------------

    def direct_impact(self) -> frozenset[str]:
        """Attributes written by the query — ``I(q)`` in the paper."""
        raise NotImplementedError

    def dependency(self) -> frozenset[str]:
        """Attributes read by the condition function — ``P(q)`` in the paper."""
        raise NotImplementedError

    # -- rendering --------------------------------------------------------------

    def render_sql(self) -> str:
        """Render the query as SQL text."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render_sql()


@dataclass(frozen=True)
class UpdateQuery(Query):
    """``UPDATE table SET a = expr, ... WHERE predicate``."""

    set_clause: tuple[tuple[str, Expr], ...] = ()
    where: Predicate = field(default_factory=TruePredicate)

    def __init__(
        self,
        table: str,
        set_clause: Mapping[str, Expr] | tuple[tuple[str, Expr], ...],
        where: Predicate | None = None,
        label: str = "",
    ) -> None:
        if isinstance(set_clause, Mapping):
            items = tuple(set_clause.items())
        else:
            items = tuple(set_clause)
        if not items:
            raise QueryModelError("UPDATE requires a non-empty SET clause")
        seen = set()
        for attribute, _ in items:
            if attribute in seen:
                raise QueryModelError(f"attribute '{attribute}' set twice in UPDATE")
            seen.add(attribute)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "set_clause", items)
        object.__setattr__(self, "where", where if where is not None else TruePredicate())

    # -- parameters -------------------------------------------------------------

    def params(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for _, expr in self.set_clause:
            for name, value in collect_params(expr).items():
                _merge_param(merged, name, value)
        for name, value in self.where.params().items():
            _merge_param(merged, name, value)
        return merged

    def with_params(self, mapping: Mapping[str, float]) -> "UpdateQuery":
        new_set = tuple(
            (attribute, rebuild_expression(expr, mapping))
            for attribute, expr in self.set_clause
        )
        return UpdateQuery(self.table, new_set, self.where.with_params(mapping), self.label)

    # -- slicing metadata -------------------------------------------------------

    def direct_impact(self) -> frozenset[str]:
        return frozenset(attribute for attribute, _ in self.set_clause)

    def dependency(self) -> frozenset[str]:
        deps = set(self.where.attributes())
        # Attributes read on the right-hand side of SET expressions also feed
        # the written values, so they participate in the read-write chain.
        for _, expr in self.set_clause:
            deps |= expr.attributes()
        return frozenset(deps)

    def set_expressions(self) -> dict[str, Expr]:
        """SET clause as a dict (attribute -> expression)."""
        return dict(self.set_clause)

    # -- rendering --------------------------------------------------------------

    def render_sql(self) -> str:
        sets = ", ".join(
            f"{attribute} = {expr.render_sql()}" for attribute, expr in self.set_clause
        )
        where = self.where.render_sql()
        if isinstance(self.where, TruePredicate):
            return f"UPDATE {self.table} SET {sets}"
        return f"UPDATE {self.table} SET {sets} WHERE {where}"


@dataclass(frozen=True)
class InsertQuery(Query):
    """``INSERT INTO table (a, b, ...) VALUES (expr, expr, ...)``.

    Inserted values must be constant expressions (constants or parameters);
    they cannot reference attributes because there is no input tuple.
    """

    values: tuple[tuple[str, Expr], ...] = ()

    def __init__(
        self,
        table: str,
        values: Mapping[str, Expr] | tuple[tuple[str, Expr], ...],
        label: str = "",
    ) -> None:
        if isinstance(values, Mapping):
            items = tuple(values.items())
        else:
            items = tuple(values)
        if not items:
            raise QueryModelError("INSERT requires at least one value")
        for attribute, expr in items:
            if expr.attributes():
                raise QueryModelError(
                    f"INSERT value for '{attribute}' may not reference attributes"
                )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "values", items)

    def params(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for _, expr in self.values:
            for name, value in collect_params(expr).items():
                _merge_param(merged, name, value)
        return merged

    def with_params(self, mapping: Mapping[str, float]) -> "InsertQuery":
        new_values = tuple(
            (attribute, rebuild_expression(expr, mapping))
            for attribute, expr in self.values
        )
        return InsertQuery(self.table, new_values, self.label)

    def direct_impact(self) -> frozenset[str]:
        return frozenset(attribute for attribute, _ in self.values)

    def dependency(self) -> frozenset[str]:
        return frozenset()

    def value_expressions(self) -> dict[str, Expr]:
        """Inserted values as a dict (attribute -> expression)."""
        return dict(self.values)

    def render_sql(self) -> str:
        columns = ", ".join(attribute for attribute, _ in self.values)
        values = ", ".join(expr.render_sql() for _, expr in self.values)
        return f"INSERT INTO {self.table} ({columns}) VALUES ({values})"


@dataclass(frozen=True)
class DeleteQuery(Query):
    """``DELETE FROM table WHERE predicate``."""

    where: Predicate = field(default_factory=TruePredicate)

    def __init__(self, table: str, where: Predicate | None = None, label: str = "") -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "where", where if where is not None else TruePredicate())

    def params(self) -> dict[str, float]:
        return dict(self.where.params())

    def with_params(self, mapping: Mapping[str, float]) -> "DeleteQuery":
        return DeleteQuery(self.table, self.where.with_params(mapping), self.label)

    def direct_impact(self) -> frozenset[str]:
        # Deleting a tuple affects every attribute of that tuple.
        return frozenset(self.where.attributes()) | frozenset({WILDCARD})

    def dependency(self) -> frozenset[str]:
        return frozenset(self.where.attributes())

    def render_sql(self) -> str:
        if isinstance(self.where, TruePredicate):
            return f"DELETE FROM {self.table}"
        return f"DELETE FROM {self.table} WHERE {self.where.render_sql()}"


def _merge_param(merged: dict[str, float], name: str, value: float) -> None:
    if name in merged and merged[name] != value:
        raise QueryModelError(f"parameter '{name}' used with conflicting values")
    merged[name] = value
