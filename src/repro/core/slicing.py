"""Slicing optimizations: query impact analysis (Section 5.2 / 5.3).

The functions here implement Definitions 6 and 7 and Algorithm 2 of the paper:

* :func:`full_impact` propagates a query's *direct impact* (attributes written
  by its SET clause) through the rest of the log, producing ``F(q)``.
* :func:`relevant_queries` selects the queries whose full impact overlaps the
  complaint attributes ``A(C)`` — the candidates for repair (``Rel(Q)``).
* :func:`relevant_attributes` computes ``Rel(A)``, the attributes that need to
  be encoded at all (attribute slicing).
* :func:`compact_log` drops queries that provably cannot influence the encoded
  attribute set, with bookkeeping (:class:`CompactedLog`) that maps the
  surviving positions back to original log indices.

A DELETE query reports a wildcard ``"*"`` in its direct impact (removing a
tuple affects every attribute); the helpers below expand the wildcard against
the schema.

Implementation note: impact sets are computed in a single backward pass over
the log with attribute sets packed into integer bitmasks.  Two early exits
keep the pass near-linear on long histories of point updates: the inner scan
stops as soon as no later query reads anything the running impact could reach
(``suffix_dep``), or as soon as nothing remains downstream that the impact
does not already carry (``suffix_gain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db.schema import Schema
from repro.queries.log import QueryLog
from repro.queries.query import WILDCARD, InsertQuery, Query


def _expand(attributes: frozenset[str], schema: Schema) -> frozenset[str]:
    """Expand the DELETE wildcard into the concrete attribute set."""
    if WILDCARD in attributes:
        return frozenset(schema.attribute_names)
    return attributes


def direct_impact(query: Query, schema: Schema) -> frozenset[str]:
    """``I(q)``: attributes written by the query."""
    return _expand(query.direct_impact(), schema)


def dependency(query: Query, schema: Schema) -> frozenset[str]:
    """``P(q)``: attributes read by the query's condition / SET expressions."""
    return _expand(query.dependency(), schema)


class _MaskSpace:
    """Bidirectional mapping between attribute names and bitmask positions.

    Schema attributes get the low bits; attribute names a query mentions
    beyond the schema (defensive — well-formed logs never do) are assigned
    fresh bits lazily so the set semantics match the frozenset-based
    definitions exactly.
    """

    __slots__ = ("_bits", "_names", "_schema_mask")

    def __init__(self, schema: Schema) -> None:
        self._names: list[str] = list(schema.attribute_names)
        self._bits: dict[str, int] = {
            name: 1 << position for position, name in enumerate(self._names)
        }
        self._schema_mask = (1 << len(self._names)) - 1

    def mask(self, attributes: frozenset[str]) -> int:
        """Pack an attribute set (wildcard-expanded) into a bitmask."""
        if WILDCARD in attributes:
            # The wildcard replaces the whole set, mirroring ``_expand``.
            return self._schema_mask
        mask = 0
        for name in attributes:
            bit = self._bits.get(name)
            if bit is None:
                bit = 1 << len(self._names)
                self._bits[name] = bit
                self._names.append(name)
            mask |= bit
        return mask

    def names(self, mask: int) -> frozenset[str]:
        """Unpack a bitmask into the attribute-name set."""
        return frozenset(
            name for name, bit in self._bits.items() if mask & bit
        )


def _impact_masks(
    queries: Sequence[Query], schema: Schema
) -> tuple[list[int], _MaskSpace]:
    """``F(q)`` for every query as bitmasks, in one backward pass.

    This is the memoized dynamic program of Algorithm 2: scanning right to
    left, each query's impact starts from its direct impact and absorbs the
    (already final) full impact of every later query whose dependency it
    overlaps.  ``suffix_dep[j]`` is the union of dependencies of queries
    ``j..n-1`` and ``suffix_gain[j]`` the union of their impacts; both allow
    the inner scan to stop early once nothing later can be triggered or
    nothing new can be absorbed.
    """
    space = _MaskSpace(schema)
    n = len(queries)
    direct = [space.mask(query.direct_impact()) for query in queries]
    dep = [space.mask(query.dependency()) for query in queries]
    impacts = [0] * n
    suffix_dep = [0] * (n + 1)
    suffix_gain = [0] * (n + 1)
    for index in range(n - 1, -1, -1):
        impact = direct[index]
        for later in range(index + 1, n):
            if not impact & suffix_dep[later]:
                break  # no query at or after ``later`` reads anything we wrote
            if not suffix_gain[later] & ~impact:
                break  # nothing downstream that the impact does not carry yet
            if impact & dep[later]:
                impact |= impacts[later]
        impacts[index] = impact
        suffix_dep[index] = suffix_dep[index + 1] | dep[index]
        suffix_gain[index] = suffix_gain[index + 1] | impact
    return impacts, space


def full_impact(
    log: QueryLog | Sequence[Query], index: int, schema: Schema
) -> frozenset[str]:
    """``F(q_index)``: the transitive impact of a query on later attributes.

    Implements Algorithm 2 (FullImpact) via the shared backward pass; use
    :func:`all_full_impacts` when more than one index is needed — the whole
    log costs the same single pass as one query.
    """
    queries = list(log)
    if not 0 <= index < len(queries):
        raise IndexError(f"query index {index} out of range")
    masks, space = _impact_masks(queries, schema)
    return space.names(masks[index])


def all_full_impacts(
    log: QueryLog | Sequence[Query], schema: Schema
) -> list[frozenset[str]]:
    """``F(q)`` for every query in the log (computed in one backward pass)."""
    queries = list(log)
    masks, space = _impact_masks(queries, schema)
    return [space.names(mask) for mask in masks]


def relevant_queries(
    log: QueryLog | Sequence[Query],
    complaint_attributes: frozenset[str],
    schema: Schema,
    *,
    single_fault: bool = False,
    impacts: Sequence[frozenset[str]] | None = None,
) -> list[int]:
    """Indices of the repair candidates ``Rel(Q)``.

    A query is a candidate when its full impact overlaps ``A(C)``.  When
    ``single_fault`` is true the stricter condition of Section 5.2 applies:
    the (single) corrupted query must cover *all* complaint attributes, so
    only queries with ``F(q) ⊇ A(C)`` remain candidates.  ``impacts`` lets
    callers that already ran :func:`all_full_impacts` skip the backward pass.
    """
    queries = list(log)
    if not complaint_attributes:
        return list(range(len(queries)))
    if impacts is None:
        impacts = all_full_impacts(queries, schema)
    candidates = []
    for index, impact in enumerate(impacts):
        overlap = impact & complaint_attributes
        if single_fault:
            if overlap == complaint_attributes:
                candidates.append(index)
        elif overlap:
            candidates.append(index)
    return candidates


def relevant_attributes(
    log: QueryLog | Sequence[Query],
    candidate_indices: Sequence[int],
    complaint_attributes: frozenset[str],
    schema: Schema,
    *,
    impacts: Sequence[frozenset[str]] | None = None,
) -> frozenset[str]:
    """``Rel(A)``: attributes that must be encoded (attribute slicing).

    This is the union of the complaint attributes with the full impact and
    dependency of every candidate query.  ``impacts`` lets callers reuse the
    impact sets they already computed for :func:`relevant_queries`.
    """
    queries = list(log)
    relevant: set[str] = set(complaint_attributes)
    if impacts is None:
        impacts = all_full_impacts(queries, schema)
    for index in candidate_indices:
        relevant |= impacts[index]
        relevant |= dependency(queries[index], schema)
    return frozenset(relevant)


@dataclass(frozen=True)
class CompactedLog:
    """A log with provably irrelevant queries removed, plus index bookkeeping.

    ``log`` holds the surviving queries in their original order;
    ``kept_indices[i]`` is the original log position of ``log[i]``.  Parameter
    names are globally unique across a log, so a repair of the compacted log
    applies to the original log verbatim through ``QueryLog.with_params`` —
    the index maps exist for reporting (windows, candidate sets, changed-query
    indices), not for parameter translation.
    """

    log: QueryLog
    kept_indices: tuple[int, ...]
    original_size: int

    @property
    def dropped(self) -> int:
        """How many queries compaction removed."""
        return self.original_size - len(self.kept_indices)

    def index_map(self) -> dict[int, int]:
        """Mapping from original log index to compacted position."""
        return {original: position for position, original in enumerate(self.kept_indices)}

    def remap(self, original_indices: Sequence[int]) -> list[int]:
        """Translate original indices to compacted positions (absent ones drop)."""
        mapping = self.index_map()
        return [mapping[index] for index in original_indices if index in mapping]

    def to_original(self, compacted_indices: Sequence[int]) -> tuple[int, ...]:
        """Translate compacted positions back to original log indices."""
        return tuple(self.kept_indices[index] for index in compacted_indices)


def compact_log(
    log: QueryLog | Sequence[Query],
    encoded_attributes: frozenset[str],
    schema: Schema,
    *,
    impacts: Sequence[frozenset[str]] | None = None,
) -> CompactedLog:
    """Drop queries that provably cannot influence ``encoded_attributes``.

    A query survives when it is an INSERT (removing it would change which
    rids exist downstream) or when its full impact intersects the encoded
    attribute set.  Dropping the rest is exact: ``F`` is transitive through
    reads, so a dropped query's writes can never reach an encoded attribute
    — directly or through any chain of later predicates and SET expressions
    — and no surviving non-INSERT query reads anything a dropped query wrote
    (such a reader's impact would be absorbed into the dropped query's,
    contradicting the drop).  DELETEs carry the wildcard impact and are
    therefore always kept, preserving tuple liveness exactly.
    """
    queries = list(log)
    if impacts is None:
        impacts = all_full_impacts(queries, schema)
    kept = tuple(
        index
        for index, query in enumerate(queries)
        if isinstance(query, InsertQuery) or impacts[index] & encoded_attributes
    )
    source = log if isinstance(log, QueryLog) else QueryLog(queries)
    if len(kept) == len(queries):
        compacted = source
    else:
        compacted = QueryLog(queries[index] for index in kept)
    return CompactedLog(log=compacted, kept_indices=kept, original_size=len(queries))
