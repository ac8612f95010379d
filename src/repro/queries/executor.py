"""Replaying queries and query logs against database states.

The executor is the reference semantics for the query model: the MILP encoder
is correct exactly when, for any parameter assignment, the encoded constraints
agree with what :func:`apply_query` computes.  The property-based tests in
``tests/properties/test_property_invariants.py`` check precisely that
agreement.

Queries run in compiled form (:mod:`repro.queries.compiled`): WHERE and SET
clauses are float kernels that compute bit for bit what
:meth:`Predicate.evaluate` and :meth:`Expr.evaluate` compute, in one to three
Python calls per row for the common shapes instead of about ten.  A diagnosis passes
its :class:`~repro.queries.compiled.CompiledLog` to :func:`replay`, so every
replay of that diagnosis shares the kernels its encoder built; the queries
the diagnosis never compiled are compiled for their one application.

Point predicates (``attr = constant``) dominate the paper's workloads.  The
compiled query recognizes that shape once, when it is first asked for it,
not on every application; :func:`replay` then probes a :class:`_PointIndex`
— a lazily built equality index over row values — instead of scanning the
table, so a point UPDATE/DELETE costs a constant-time probe and its WHERE
kernel is never built.  Probed matches are re-verified against the
comparison's own tolerance, so indexed and scanned replays are
value-identical.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.db.database import Database
from repro.db.table import Row
from repro.exceptions import QueryModelError
from repro.queries.compiled import INSERT, UPDATE, CompiledLog, CompiledQuery
from repro.queries.log import QueryLog
from repro.queries.query import Query


def apply_query(
    state: Database,
    query: Query,
    *,
    in_place: bool = False,
    index: "_PointIndex | None" = None,
) -> Database:
    """Apply a single query to ``state`` and return the resulting state.

    By default the input state is left untouched and a snapshot is modified;
    pass ``in_place=True`` to mutate ``state`` directly.  ``index`` is a
    replay-local point index; it must have been created over ``state`` itself.
    """
    result = state if in_place else state.snapshot()
    if index is not None and result is not state:
        index = None
    _apply(result, CompiledLog(result.schema).once(query), index)
    return result


def replay(
    initial: Database,
    log: QueryLog | Iterable[Query],
    *,
    compiled: CompiledLog | None = None,
) -> Database:
    """Replay a whole log starting from ``initial`` and return the final state.

    ``initial`` is never modified.  ``compiled`` is the caller's compiled log
    (one per diagnosis): queries it already holds replay on its kernels, the
    rest are compiled for their one application and dropped.
    """
    state = initial.snapshot()
    index = _PointIndex(state)
    if compiled is None:
        compiled = CompiledLog(state.schema)
    for query in log:
        _apply(state, compiled.once(query), index)
    return state


def replay_states(
    initial: Database, log: QueryLog | Iterable[Query]
) -> list[Database]:
    """Replay a log and return every intermediate state ``[D0, D1, ..., Dn]``.

    The returned list has ``len(log) + 1`` entries; entry ``i`` is the state
    after applying the first ``i`` queries.  Used by the decision-tree baseline
    and by tests; the MILP pipeline itself only ever needs ``D0`` and ``Dn``.
    """
    states = [initial.snapshot()]
    current = initial.snapshot()
    index = _PointIndex(current)
    compiled = CompiledLog(current.schema)
    for query in log:
        _apply(current, compiled.once(query), index)
        states.append(current.snapshot())
    return states


# -- point predicate indexing ------------------------------------------------------


class _PointIndex:
    """A replay-local equality index: attribute -> value bucket -> rids.

    Built lazily the first time a point query probes an attribute and
    maintained incrementally across writes, inserts, and deletes, so a log of
    point UPDATEs replays in O(log) instead of O(log x rows).  Values are
    bucketed into tolerance-wide windows; a probe unions the three adjacent
    buckets and re-checks ``|value - target| <= tolerance`` exactly, which
    makes the matched row set identical to a full scan whenever the
    comparison's tolerance fits inside the window (probes with a larger
    tolerance decline, and the caller falls back to scanning).
    """

    #: Bucket width; must be >= any comparison tolerance the index accepts.
    WINDOW = 1e-6

    def __init__(self, state: Database) -> None:
        self._state = state
        self._by_attr: dict[str, dict[int, set[int]]] = {}

    def _bucket(self, value: float) -> int:
        return int(math.floor(value / self.WINDOW))

    def _built(self, attribute: str) -> dict[int, set[int]]:
        index = self._by_attr.get(attribute)
        if index is None:
            index = {}
            for row in self._state.rows():
                index.setdefault(self._bucket(row.values[attribute]), set()).add(row.rid)
            self._by_attr[attribute] = index
        return index

    def probe(self, attribute: str, value: float, tolerance: float) -> "list[Row] | None":
        """Rows matching ``attribute = value`` — or ``None`` to request a scan."""
        if tolerance > self.WINDOW or not math.isfinite(value):
            return None
        index = self._built(attribute)
        bucket = self._bucket(value)
        rows = []
        for neighbour in (bucket - 1, bucket, bucket + 1):
            for rid in index.get(neighbour, ()):
                row = self._state.get(rid)
                if row is not None and abs(row.values[attribute] - value) <= tolerance:
                    rows.append(row)
        return rows

    def note_update(self, rid: int, attribute: str, old: float, new: float) -> None:
        index = self._by_attr.get(attribute)
        if index is None:
            return
        old_bucket, new_bucket = self._bucket(old), self._bucket(new)
        if old_bucket != new_bucket:
            bucket = index.get(old_bucket)
            if bucket is not None:
                bucket.discard(rid)
            index.setdefault(new_bucket, set()).add(rid)

    def note_insert(self, row: Row) -> None:
        for attribute, index in self._by_attr.items():
            index.setdefault(self._bucket(row.values[attribute]), set()).add(row.rid)

    def note_delete(self, rid: int, values: "dict[str, float]") -> None:
        for attribute, index in self._by_attr.items():
            bucket = index.get(self._bucket(values[attribute]))
            if bucket is not None:
                bucket.discard(rid)


# -- per-query-type semantics ---------------------------------------------------


def _apply(state: Database, query: CompiledQuery, index: "_PointIndex | None") -> None:
    if query.kind is UPDATE:
        _apply_update(state, query, index)
    elif query.kind is INSERT:
        _apply_insert(state, query, index)
    else:
        _apply_delete(state, query, index)


def _matched_rows(
    state: Database, query: CompiledQuery, index: "_PointIndex | None"
) -> list[Row]:
    if index is not None:
        point = query.point
        if point is not None:
            rows = index.probe(*point)
            if rows is not None:
                return rows
    where = query.where
    return [row for row in state.rows() if where(row.values)]


def _apply_update(
    state: Database, query: CompiledQuery, index: "_PointIndex | None"
) -> None:
    rows = _matched_rows(state, query, index)
    if not rows:
        return
    sets = query.sets_for(len(rows))
    for row in rows:
        # Evaluate every SET expression against the *pre-update* values so
        # that, e.g., ``SET a = b, b = a`` swaps rather than copies.
        values = row.values
        new_values = [(attribute, kernel(values)) for attribute, kernel in sets]
        for attribute, value in new_values:
            if index is not None:
                index.note_update(row.rid, attribute, values[attribute], value)
            row[attribute] = value


def _apply_insert(
    state: Database, query: CompiledQuery, index: "_PointIndex | None"
) -> None:
    provided = query.values
    values = {}
    for attribute in state.schema.attribute_names:
        if attribute in provided:
            values[attribute] = provided[attribute]
        else:
            raise QueryModelError(
                f"INSERT into '{query.query.table}' missing value for attribute '{attribute}'"
            )
    row = state.insert(values)
    if index is not None:
        index.note_insert(row)


def _apply_delete(
    state: Database, query: CompiledQuery, index: "_PointIndex | None"
) -> None:
    doomed = _matched_rows(state, query, index)
    for row in doomed:
        if index is not None:
            index.note_delete(row.rid, dict(row.values))
        state.delete(row.rid)
