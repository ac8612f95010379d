"""MILP encoding of a query log (Section 4 of the paper).

The encoder walks the query log once per encoded tuple, maintaining a
symbolic value per attribute.  Values stay concrete (plain floats) until they
are first influenced by an undetermined parameter; from then on they are
linear expressions over MILP variables.  This constant folding is what makes
the incremental algorithm cheap: queries outside the parameterized window
typically contribute no variables or constraints at all, mirroring the
behaviour the paper obtains by only parameterizing a suffix of the log.

Every query before the first parameterized one is folded on plain floats by
the compiled kernels of :mod:`repro.queries.compiled` (:meth:`LogEncoder._fold_prefix`);
the symbolic walk resumes from that state.  The kernels compute exactly what
the symbolic walk would fold there, so the model is the same either way.

Encoding rules (paper equations in parentheses):

* ``UPDATE`` — a binary ``x`` indicates whether the tuple satisfies the WHERE
  clause (Eq. 1); the new attribute value is ``old + x * (set_expr - old)``,
  with the product linearized through the big-M envelope (Eqs. 2-4).
* ``INSERT`` — inserted values are parameters; when the insert is
  parameterized they become decision variables directly (Eq. 5).
* ``DELETE`` — with the paper's ``sentinel`` encoding the tuple's attributes
  are pushed to a value ``M+`` outside the domain when the WHERE clause
  matches (Eq. 6); the ``alive`` encoding instead tracks liveness with an
  explicit binary variable (an extension evaluated in the ablation benches).
* final-state constraints tie each encoded tuple's symbolic values to the
  complaint targets (for complaint tuples) or to their dirty values (for
  non-complaint tuples / the refinement step's soft constraints).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.complaints import Complaint, ComplaintKind, ComplaintSet
from repro.core.config import QFixConfig
from repro.core.slicing import CompactedLog
from repro.core.symbolic import SymbolicValue, affine_to_symbolic
from repro.db.database import Database
from repro.db.schema import Schema
from repro.exceptions import QueryModelError
from repro.milp.expr import LinExpr, as_linexpr
from repro.milp.linearize import (
    add_absolute_value,
    add_binary_times_affine,
    add_comparison_indicator,
    add_conjunction,
    add_disjunction,
)
from repro.milp.model import EQ, GE, LE, Model, difference
from repro.milp.variables import Variable
from repro.queries.compiled import COMPARE, INSERT, UPDATE, CompiledLog, CompiledQuery
from repro.queries.log import QueryLog
from repro.queries.predicates import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)
from repro.queries.query import DeleteQuery, InsertQuery, Query, UpdateQuery


def insert_rids(compiled: Sequence[CompiledQuery], next_rid: int) -> dict[int, int]:
    """Map each INSERT query index to the rid its tuple receives on replay.

    Replay hands out rids in log order from the initial table's ``next_rid``.
    """
    mapping: dict[int, int] = {}
    for index, query in enumerate(compiled):
        if query.kind is INSERT:
            mapping[index] = next_rid
            next_rid += 1
    return mapping


@dataclass
class EncodedProblem:
    """The MILP produced by :class:`LogEncoder` plus bookkeeping for decoding."""

    model: Model
    #: Decision variable for every parameter of a parameterized query.
    param_variables: dict[str, Variable]
    #: Original (possibly corrupted) value of each parameterized parameter.
    param_originals: dict[str, float]
    #: Query indices whose parameters were turned into variables.
    parameterized_indices: tuple[int, ...]
    #: Tuples that were encoded.
    encoded_rids: tuple[int, ...]
    #: Attributes encoded symbolically.
    encoded_attributes: tuple[str, ...]
    #: Attributes whose final value is constrained.
    constrained_attributes: tuple[str, ...]
    #: Query indices that produced constraints.
    encoded_query_indices: tuple[int, ...]
    #: True when a constant-folded value already contradicts a target.
    trivially_infeasible: bool = False
    #: Additional statistics for reporting.
    stats: dict[str, float] = field(default_factory=dict)

    def restore_original_indices(self, compaction: "CompactedLog") -> None:
        """Map compacted-log query indices back to original log positions.

        After encoding a compacted log (see :func:`repro.core.slicing.compact_log`)
        the problem's index bookkeeping refers to positions in the compacted
        log; downstream reporting (changed queries, candidate sets) speaks in
        original log indices.  Parameter names are position-independent, so
        only the index tuples need translating.
        """
        self.parameterized_indices = compaction.to_original(self.parameterized_indices)
        self.encoded_query_indices = compaction.to_original(self.encoded_query_indices)
        self.stats["compacted_queries"] = float(compaction.dropped)


class LogEncoder:
    """Encode a query log, a pair of database states, and a complaint set."""

    def __init__(
        self,
        schema: Schema,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        config: QFixConfig,
        *,
        parameterized: Sequence[int],
        rids: Sequence[int] | None = None,
        encoded_attributes: Iterable[str] | None = None,
        candidate_indices: Sequence[int] | None = None,
        soft_rids: Mapping[int, float] | None = None,
        param_objective_weight: float = 1.0,
        compiled: CompiledLog | None = None,
    ) -> None:
        self.schema = schema
        self.initial = initial
        self.final = final
        self.log = log
        self.complaints = complaints
        self.config = config
        self.parameterized = tuple(sorted(set(parameterized)))
        self.requested_rids = tuple(rids) if rids is not None else None
        self.requested_attributes = (
            tuple(encoded_attributes) if encoded_attributes is not None else None
        )
        self.candidate_indices = (
            tuple(candidate_indices) if candidate_indices is not None else None
        )
        self.soft_rids = dict(soft_rids or {})
        self.param_objective_weight = param_objective_weight
        # ``compiled`` is the diagnosis's compiled log, shared by its encodes
        # and replays; without one the encoder compiles ``log`` for itself.
        self._compiled: list[CompiledQuery] = (
            compiled if compiled is not None else CompiledLog(schema)
        ).of(log)

        self._model = Model("qfix")
        self._param_vars: dict[str, Variable] = {}
        self._param_bound_cache: dict[str, tuple[float, float]] = {}
        self._param_originals: dict[str, float] = {}
        self._name_counter = itertools.count()
        self._objective_terms: list[LinExpr] = []
        self._trivially_infeasible = False

        encoding = config.encoding
        lower, upper = schema.domain_bounds()
        width = max(upper - lower, 1.0)
        margin = encoding.domain_margin_fraction * width
        self._param_lower = lower - margin
        self._param_upper = upper + margin
        self._epsilon = encoding.epsilon
        self._sentinels = {
            spec.name: spec.upper + encoding.sentinel_gap for spec in schema.attributes
        }
        # Set by ``encode``: whether the prefix fold's encoded view always
        # equals the shadow tuple (see ``_fold_prefix``).
        self._view_is_shadow = False

    # -- public API ------------------------------------------------------------------

    def encode(self) -> EncodedProblem:
        """Build and return the MILP problem."""
        self._register_parameters()
        inserted = insert_rids(self._compiled, self.initial.table.next_rid)
        encoded_attrs = self._encoded_attributes()
        encoded_queries = self._encoded_queries(encoded_attrs)
        constrained_attrs = self._constrained_attributes(encoded_attrs, encoded_queries)
        rids = self._encoded_rids(inserted)
        self._view_is_shadow = (
            self.config.encoding.delete_encoding != "alive"
            and encoded_attrs.issuperset(self.schema.attribute_names)
            and all(
                index in encoded_queries
                for index in range(self._prefix_end())
                if self._compiled[index].kind is not INSERT
            )
        )

        for rid in rids:
            self._encode_tuple(
                rid,
                inserted,
                encoded_attrs,
                encoded_queries,
                constrained_attrs,
            )

        self._build_objective()
        return EncodedProblem(
            model=self._model,
            param_variables=dict(self._param_vars),
            param_originals=dict(self._param_originals),
            parameterized_indices=self.parameterized,
            encoded_rids=tuple(rids),
            encoded_attributes=tuple(sorted(encoded_attrs)),
            constrained_attributes=tuple(sorted(constrained_attrs)),
            encoded_query_indices=tuple(sorted(encoded_queries)),
            trivially_infeasible=self._trivially_infeasible,
            stats=self._model.summary(),
        )

    # -- problem shaping ---------------------------------------------------------------

    def _register_parameters(self) -> None:
        """Create a decision variable for every parameter of a parameterized query."""
        for index in self.parameterized:
            query = self.log[index]
            assert isinstance(query, Query)
            for name, value in query.params().items():
                if name in self._param_vars:
                    raise QueryModelError(f"parameter '{name}' registered twice")
                variable = self._model.add_continuous(
                    f"param::{name}", lower=self._param_lower, upper=self._param_upper
                )
                self._param_vars[name] = variable
                self._param_originals[name] = value

    def _encoded_attributes(self) -> frozenset[str]:
        if self.requested_attributes is not None:
            return frozenset(self.requested_attributes)
        return frozenset(self.schema.attribute_names)

    def _encoded_queries(self, encoded_attrs: frozenset[str]) -> frozenset[int]:
        """Query indices that must be encoded symbolically.

        Always includes parameterized queries and queries that write complaint
        attributes; when query slicing restricts candidates, non-candidate
        queries that only touch non-complaint attributes are skipped (their
        effect is reproduced concretely through the dirty shadow replay).
        """
        complaint_attrs = self.complaints.complaint_attributes(self.final)
        encoded: set[int] = set(self.parameterized)
        candidates = (
            set(self.candidate_indices)
            if self.candidate_indices is not None
            else set(range(len(self.log)))
        )
        for index, compiled in enumerate(self._compiled):
            writes = compiled.writes
            if writes & complaint_attrs:
                encoded.add(index)
                continue
            if index in candidates and writes & encoded_attrs:
                encoded.add(index)
        return frozenset(encoded)

    def _constrained_attributes(
        self, encoded_attrs: frozenset[str], encoded_queries: frozenset[int]
    ) -> frozenset[str]:
        """Attributes whose final values can safely be pinned to their targets.

        An encoded attribute can only be constrained if every query that
        writes it is itself encoded; otherwise the symbolic trajectory misses
        some writes and pinning the final value would wrongly force
        infeasibility.
        """
        written_unencoded: set[str] = set()
        for index, compiled in enumerate(self._compiled):
            if index not in encoded_queries:
                written_unencoded |= compiled.writes
        return encoded_attrs - written_unencoded

    def _encoded_rids(self, insert_rids: Mapping[int, int]) -> tuple[int, ...]:
        if self.requested_rids is not None:
            return tuple(self.requested_rids)
        rids = list(self.initial.rids)
        rids.extend(insert_rids.values())
        return tuple(sorted(set(rids)))

    # -- tuple encoding ------------------------------------------------------------------

    def _encode_tuple(
        self,
        rid: int,
        insert_rids: Mapping[int, int],
        encoded_attrs: frozenset[str],
        encoded_queries: frozenset[int],
        constrained_attrs: frozenset[str],
    ) -> None:
        born_at = -1
        if self.initial.get(rid) is None:
            born_candidates = [index for index, mapped in insert_rids.items() if mapped == rid]
            if not born_candidates:
                raise QueryModelError(
                    f"rid {rid} neither exists in the initial state nor is created by the log"
                )
            born_at = born_candidates[0]

        start = self._prefix_end()
        folded, shadow, shadow_alive, alive_value = self._fold_prefix(
            rid, born_at, start, encoded_attrs, encoded_queries
        )
        sym = {attribute: SymbolicValue.constant(value) for attribute, value in folded.items()}
        alive = SymbolicValue.constant(alive_value)

        for index in range(start, len(self._compiled)):
            if index < born_at:
                continue
            compiled = self._compiled[index]
            query = compiled.query
            if index == born_at:
                assert isinstance(query, InsertQuery)
                shadow, sym = self._encode_insert(index, rid, compiled, encoded_attrs)
                shadow_alive = True
                alive = SymbolicValue.constant(1.0)
                continue
            if index in encoded_queries and compiled.kind is not INSERT:
                alive = self._encode_step(index, rid, query, sym, shadow, alive, encoded_attrs)
            shadow_alive = self._shadow_step(compiled, shadow, shadow_alive)

        self._assign_final(rid, sym, alive, constrained_attrs)

    def _prefix_end(self) -> int:
        """Index of the first parameterized query; the queries before it fold to floats."""
        return self.parameterized[0] if self.parameterized else len(self._compiled)

    def _fold_prefix(
        self,
        rid: int,
        born_at: int,
        stop: int,
        encoded_attrs: frozenset[str],
        encoded_queries: frozenset[int],
    ) -> tuple[dict[str, float], dict[str, float], bool, float]:
        """Walk the queries before ``stop`` on plain floats.

        Before the first parameterized query no parameter is a variable, so
        every symbolic value is a constant, every predicate folds, and the
        symbolic walk creates no variable and no constraint.  This walk
        computes the same constants with the compiled kernels and returns
        the state the symbolic walk resumes from at ``stop``: the encoded
        attributes' values, the shadow values, whether the shadow tuple is
        alive, and the encoded liveness (1.0 or 0.0).

        ``view`` holds the shadow values overlaid with the encoded ones (how
        the symbolic walk reads an attribute), kept current as either changes.
        When every attribute is encoded, every UPDATE and DELETE before
        ``stop`` is encoded and deletes push to the sentinel (every refinement
        encode), the view *is* the shadow tuple at every step, so one shadow
        walk gives both.
        """
        if born_at == -1:
            row = self.initial.get(rid)
            assert row is not None
            shadow = dict(row.values)
            start = 0
        elif born_at < stop:
            provided = self._compiled[born_at].values
            shadow = {attribute: provided[attribute] for attribute in self.schema.attribute_names}
            start = born_at + 1
        else:
            return {}, {}, False, 0.0
        if self._view_is_shadow:
            shadow_alive = True
            for index in range(start, stop):
                shadow_alive = self._shadow_step(self._compiled[index], shadow, shadow_alive)
            return dict(shadow), shadow, shadow_alive, 1.0 if shadow_alive else 0.0
        folded = {
            attribute: value for attribute, value in shadow.items() if attribute in encoded_attrs
        }
        view = {**shadow, **folded}
        shadow_alive, alive = True, 1.0
        sentinels = self._sentinels
        alive_deletes = self.config.encoding.delete_encoding == "alive"
        for index in range(start, stop):
            compiled = self._compiled[index]
            kind = compiled.kind
            if kind is INSERT:
                continue
            if alive and index in encoded_queries and compiled.where(view):
                if kind is UPDATE:
                    targets = [
                        (attribute, kernel(view))
                        for attribute, kernel in compiled.sets
                        if attribute in encoded_attrs
                    ]
                    for attribute, value in targets:
                        folded[attribute] = view[attribute] = value
                else:
                    if not alive_deletes:
                        for attribute in encoded_attrs:
                            folded[attribute] = view[attribute] = sentinels[attribute]
                    alive = 0.0
            if shadow_alive and shadow and compiled.where(shadow):
                if kind is UPDATE:
                    written = [(attribute, kernel(shadow)) for attribute, kernel in compiled.sets]
                else:
                    written = [(attribute, sentinels[attribute]) for attribute in shadow]
                    shadow_alive = False
                for attribute, value in written:
                    shadow[attribute] = value
                    if attribute not in folded:
                        view[attribute] = value
        return folded, shadow, shadow_alive, alive

    # -- per-query symbolic steps -----------------------------------------------------------

    def _encode_insert(
        self, index: int, rid: int, compiled: CompiledQuery, encoded_attrs: frozenset[str]
    ) -> tuple[dict[str, float], dict[str, SymbolicValue]]:
        parameterized = index in self.parameterized
        shadow: dict[str, float] = {}
        sym: dict[str, SymbolicValue] = {}
        values = compiled.query.value_expressions()
        provided = compiled.values
        for attribute in self.schema.attribute_names:
            expr = values[attribute]
            shadow[attribute] = provided[attribute]
            if attribute not in encoded_attrs:
                continue
            affine = expr.affine()
            sym[attribute] = affine_to_symbolic(
                affine,
                {},
                self._param_vars if parameterized else {},
                self._param_bound_map(),
            )
        return shadow, sym

    def _encode_step(
        self,
        index: int,
        rid: int,
        query: Query,
        sym: dict[str, SymbolicValue],
        shadow: Mapping[str, float],
        alive: SymbolicValue,
        encoded_attrs: frozenset[str],
    ) -> SymbolicValue:
        """Encode the effect of one UPDATE or DELETE on one tuple."""
        if isinstance(query, UpdateQuery):
            self._encode_update(index, rid, query, sym, shadow, alive, encoded_attrs)
            return alive
        if isinstance(query, DeleteQuery):
            return self._encode_delete(index, rid, query, sym, shadow, alive, encoded_attrs)
        raise QueryModelError(f"unsupported query type {type(query).__name__}")

    def _encode_update(
        self,
        index: int,
        rid: int,
        query: UpdateQuery,
        sym: dict[str, SymbolicValue],
        shadow: Mapping[str, float],
        alive: SymbolicValue,
        encoded_attrs: frozenset[str],
    ) -> None:
        match = self._encode_predicate(index, rid, query.where, sym, shadow)
        match = self._combine_with_alive(index, rid, match, alive)
        if isinstance(match, float) and match == 0.0:
            return
        parameterized = index in self.parameterized
        # Evaluate every SET expression against the pre-update state.
        targets: dict[str, SymbolicValue] = {}
        for attribute, expr in query.set_clause:
            if attribute not in encoded_attrs:
                continue
            affine = expr.affine()
            targets[attribute] = affine_to_symbolic(
                affine,
                sym,
                self._param_vars if parameterized else {},
                self._param_bound_map(),
                shadow,
            )
        for attribute, target in targets.items():
            old = sym[attribute]
            if isinstance(match, float):
                sym[attribute] = target
                continue
            delta = target.subtract(old)
            if delta.is_constant and delta.as_float() == 0.0:
                continue
            product = add_binary_times_affine(
                self._model,
                match,
                delta.as_expr(),
                lower=delta.lower,
                upper=delta.upper,
                name=self._fresh(f"q{index}_r{rid}_{attribute}_delta"),
            )
            new_expr = as_linexpr(old.as_expr()) + product
            sym[attribute] = SymbolicValue(
                new_expr,
                min(old.lower, target.lower),
                max(old.upper, target.upper),
            )

    def _encode_delete(
        self,
        index: int,
        rid: int,
        query: DeleteQuery,
        sym: dict[str, SymbolicValue],
        shadow: Mapping[str, float],
        alive: SymbolicValue,
        encoded_attrs: frozenset[str],
    ) -> SymbolicValue:
        match = self._encode_predicate(index, rid, query.where, sym, shadow)
        match = self._combine_with_alive(index, rid, match, alive)
        if self.config.encoding.delete_encoding == "alive":
            return self._apply_alive_delete(index, rid, match, alive)
        # Sentinel encoding: matched tuples have every attribute pushed to M+,
        # in schema order so that the model does not depend on string hashing.
        if isinstance(match, float) and match == 0.0:
            return alive
        for attribute in self.schema.attribute_names:
            if attribute not in encoded_attrs:
                continue
            sentinel = self._sentinels[attribute]
            old = sym[attribute]
            if isinstance(match, float):
                sym[attribute] = SymbolicValue.constant(sentinel)
                continue
            delta_expr = sentinel - as_linexpr(old.as_expr())
            delta_lower = sentinel - old.upper
            delta_upper = sentinel - old.lower
            product = add_binary_times_affine(
                self._model,
                match,
                delta_expr,
                lower=delta_lower,
                upper=delta_upper,
                name=self._fresh(f"q{index}_r{rid}_{attribute}_del"),
            )
            new_expr = as_linexpr(old.as_expr()) + product
            sym[attribute] = SymbolicValue(
                new_expr, min(old.lower, sentinel), max(old.upper, sentinel)
            )
        if isinstance(match, float):
            return SymbolicValue.constant(0.0) if match == 1.0 else alive
        return alive

    def _apply_alive_delete(
        self, index: int, rid: int, match: "float | Variable", alive: SymbolicValue
    ) -> SymbolicValue:
        """Liveness-tracking DELETE encoding: ``alive' = alive AND NOT match``."""
        if isinstance(match, float):
            if match == 0.0:
                return alive
            return SymbolicValue.constant(0.0)
        new_alive = self._model.add_binary(self._fresh(f"q{index}_r{rid}_alive"))
        if alive.is_constant:
            self._model.add_equal(new_alive + match, alive.as_float(), self._fresh("alive_eq"))
        else:
            alive_expr = as_linexpr(alive.as_expr())
            self._model.add_le(new_alive, alive_expr, self._fresh("alive_le_old"))
            self._model.add_le(new_alive, 1.0 - match, self._fresh("alive_le_not"))
            self._model.add_ge(new_alive, alive_expr - match, self._fresh("alive_ge"))
        return SymbolicValue.from_variable(new_alive)

    def _combine_with_alive(
        self, index: int, rid: int, match: "float | Variable", alive: SymbolicValue
    ) -> "float | Variable":
        """AND the WHERE-clause indicator with the tuple's liveness."""
        if alive.is_constant:
            if alive.as_float() == 0.0:
                return 0.0
            return match
        if isinstance(match, float):
            if match == 0.0:
                return 0.0
            alive_expr = alive.as_expr()
            assert isinstance(alive_expr, LinExpr)
            variables = alive_expr.variables()
            if len(variables) == 1 and alive_expr.constant == 0.0:
                return variables[0]
        combined = self._model.add_binary(self._fresh(f"q{index}_r{rid}_alive_match"))
        children = []
        if isinstance(match, Variable):
            children.append(match)
        alive_expr = alive.as_expr()
        assert isinstance(alive_expr, LinExpr)
        children.extend(alive_expr.variables())
        add_conjunction(self._model, combined, children, name=self._fresh("alive_and"))
        return combined

    # -- predicates ----------------------------------------------------------------------------

    def _encode_predicate(
        self,
        index: int,
        rid: int,
        predicate: Predicate,
        sym: Mapping[str, SymbolicValue],
        shadow: Mapping[str, float],
    ) -> "float | Variable":
        """Return a constant truth value or a binary indicator for a predicate."""
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, Comparison):
            return self._encode_comparison(index, rid, predicate, sym, shadow)
        if isinstance(predicate, (And, Or)):
            is_and = isinstance(predicate, And)
            children: list[Variable] = []
            for child in predicate.children:
                encoded = self._encode_predicate(index, rid, child, sym, shadow)
                if isinstance(encoded, float):
                    if is_and and encoded == 0.0:
                        return 0.0
                    if not is_and and encoded == 1.0:
                        return 1.0
                    continue  # neutral element, drop it
                children.append(encoded)
            if not children:
                return 1.0 if is_and else 0.0
            if len(children) == 1:
                return children[0]
            combined = self._model.add_binary(
                self._fresh(f"q{index}_r{rid}_{'and' if is_and else 'or'}")
            )
            if is_and:
                add_conjunction(self._model, combined, children, name=self._fresh("conj"))
            else:
                add_disjunction(self._model, combined, children, name=self._fresh("disj"))
            return combined
        raise QueryModelError(f"unsupported predicate type {type(predicate).__name__}")

    def _encode_comparison(
        self,
        index: int,
        rid: int,
        comparison: Comparison,
        sym: Mapping[str, SymbolicValue],
        shadow: Mapping[str, float],
    ) -> "float | Variable":
        parameterized = index in self.parameterized
        params = self._param_vars if parameterized else {}
        left = affine_to_symbolic(
            comparison.left.affine(), sym, params, self._param_bound_map(), shadow
        )
        right = affine_to_symbolic(
            comparison.right.affine(), sym, params, self._param_bound_map(), shadow
        )
        if left.is_constant and right.is_constant:
            holds = COMPARE[comparison.op](
                left.as_float(), right.as_float(), comparison.tolerance
            )
            return 1.0 if holds else 0.0
        binary = self._model.add_binary(self._fresh(f"q{index}_r{rid}_cmp"))
        big_m = max(
            abs(left.upper - right.lower), abs(right.upper - left.lower), 1.0
        ) + self._epsilon + 1.0
        add_comparison_indicator(
            self._model,
            binary,
            as_linexpr(left.as_expr()),
            comparison.op,
            as_linexpr(right.as_expr()),
            big_m=big_m,
            epsilon=self._epsilon,
            name=self._fresh(f"q{index}_r{rid}_ind"),
        )
        return binary

    # -- final state ------------------------------------------------------------------------------

    def _assign_final(
        self,
        rid: int,
        sym: Mapping[str, SymbolicValue],
        alive: SymbolicValue,
        constrained_attrs: frozenset[str],
    ) -> None:
        complaint = self.complaints.get(rid)
        target, should_exist = self._target_for(rid, complaint)
        if rid in self.soft_rids:
            self._assign_soft_final(rid, sym, alive, constrained_attrs, target, should_exist)
            return
        use_alive = self.config.encoding.delete_encoding == "alive"
        if use_alive:
            self._pin(alive, 1.0 if should_exist else 0.0, f"r{rid}_alive_final")
            if not should_exist:
                return
        for attribute in sorted(constrained_attrs):
            if attribute not in sym:
                continue
            if should_exist:
                value = target[attribute]
            else:
                value = self._sentinels[attribute]
            self._pin(sym[attribute], value, f"r{rid}_{attribute}_final")

    def _assign_soft_final(
        self,
        rid: int,
        sym: Mapping[str, SymbolicValue],
        alive: SymbolicValue,
        constrained_attrs: frozenset[str],
        target: Mapping[str, float],
        should_exist: bool,
    ) -> None:
        """Soft constraints for refinement: pay ``weight`` if the tuple deviates."""
        weight = self.soft_rids[rid]
        violation = self._model.add_binary(self._fresh(f"r{rid}_soft"))
        use_alive = self.config.encoding.delete_encoding == "alive"
        if use_alive and not alive.is_constant:
            alive_target = 1.0 if should_exist else 0.0
            diff = as_linexpr(alive.as_expr()) - alive_target
            self._model.add_le(diff, violation * 2.0, self._fresh("soft_alive_ub"))
            self._model.add_ge(diff, violation * -2.0, self._fresh("soft_alive_lb"))
        for attribute in sorted(constrained_attrs):
            if attribute not in sym:
                continue
            value = target[attribute] if should_exist else self._sentinels[attribute]
            symbolic = sym[attribute]
            if symbolic.is_constant:
                if abs(symbolic.as_float() - value) > 1e-6:
                    self._model.add_ge(violation, 1.0, self._fresh("soft_forced"))
                continue
            bound = max(abs(symbolic.upper - value), abs(symbolic.lower - value), 1.0)
            expr = symbolic.as_expr()
            assert isinstance(expr, LinExpr)
            # diff = expr - value; diff <= violation * bound; diff >= violation * -bound
            constant = expr.constant + -float(value)
            for sense, scale, label in ((LE, bound, "soft_ub"), (GE, -bound, "soft_lb")):
                terms, rhs = difference(
                    expr.terms, constant, {violation: 1.0 * scale}, 0.0 * scale
                )
                self._model._add_row(terms, sense, rhs, self._fresh(label))
        self._objective_terms.append(as_linexpr(violation) * weight)

    def _target_for(
        self, rid: int, complaint: Complaint | None
    ) -> tuple[dict[str, float], bool]:
        """The final values the encoded tuple must reach and whether it should exist."""
        if complaint is not None:
            if complaint.kind is ComplaintKind.REMOVE:
                return {}, False
            return complaint.target_values(), True
        final_row = self.final.get(rid)
        if final_row is None:
            return {}, False
        return dict(final_row.values), True

    def _pin(self, symbolic: SymbolicValue, value: float, name: str) -> None:
        """Constrain a symbolic value to equal ``value`` (or record infeasibility)."""
        if symbolic.is_constant:
            if abs(symbolic.as_float() - value) > 1e-6:
                # The folded value already contradicts the target; emit an
                # obviously infeasible constraint so the solver reports it.
                self._trivially_infeasible = True
                self._model.add_equal(LinExpr(), 1.0, self._fresh(f"{name}_contradiction"))
            return
        expr = symbolic.as_expr()
        assert isinstance(expr, LinExpr)
        terms, rhs = difference(expr.terms, expr.constant, {}, float(value))
        self._model._add_row(terms, EQ, rhs, self._fresh(name))

    # -- shadow (concrete dirty) replay --------------------------------------------------------------

    def _shadow_step(
        self, compiled: CompiledQuery, shadow: dict[str, float], shadow_alive: bool
    ) -> bool:
        """Advance the concrete dirty-replay values of the tuple by one query."""
        if not shadow_alive or not shadow or compiled.kind is INSERT:
            return shadow_alive
        if not compiled.where(shadow):
            return True
        if compiled.kind is UPDATE:
            shadow.update([(attribute, kernel(shadow)) for attribute, kernel in compiled.sets])
            return True
        for attribute in shadow:
            shadow[attribute] = self._sentinels[attribute]
        return False

    # -- helpers ------------------------------------------------------------------------------------

    def _param_bound_map(self) -> dict[str, tuple[float, float]]:
        # Every parameter shares the schema-wide (lower, upper) pair, and
        # parameters are only ever added — so the map is rebuilt only when
        # the variable set grew.  Rebuilding it per comparison made encoding
        # quadratic in log length; this memo keeps it linear.
        cache = self._param_bound_cache
        if len(cache) != len(self._param_vars):
            bounds = (self._param_lower, self._param_upper)
            cache = {name: bounds for name in self._param_vars}
            self._param_bound_cache = cache
        return cache

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}#{next(self._name_counter)}"

    def _build_objective(self) -> None:
        terms: list[LinExpr] = []
        for name, variable in self._param_vars.items():
            original = self._param_originals[name]
            distance = add_absolute_value(
                self._model,
                variable - original,
                name=self._fresh(f"dist::{name}"),
                upper=self._param_upper - self._param_lower,
            )
            terms.append(as_linexpr(distance) * self.param_objective_weight)
        terms.extend(self._objective_terms)
        self._model.set_objective(LinExpr.sum(terms))

