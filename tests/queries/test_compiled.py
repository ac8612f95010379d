"""Compiled queries must compute exactly what the interpreter computes.

Replay, the encoder's shadow replay and its constant folding all run on the
kernels of :mod:`repro.queries.compiled`, so a kernel that differs from
:meth:`Predicate.evaluate` / :meth:`Expr.evaluate` in a single bit would
change repairs.  The properties compare them on random affine trees and
predicates, including signed zeros and values exactly on a tolerance
boundary; the unit tests pin the shapes the kernels specialize and the
compiled log's lifetime rules.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.database import Database
from repro.db.schema import Schema
from repro.exceptions import QueryModelError
from repro.queries.compiled import (
    CompiledLog,
    compile_expr,
    compile_predicate,
)
from repro.queries.executor import replay
from repro.queries.expressions import Attr, BinOp, Const, Param
from repro.queries.log import QueryLog
from repro.queries.predicates import (
    COMPARISON_OPS,
    And,
    Comparison,
    FalsePredicate,
    Or,
    TruePredicate,
    range_predicate,
)
from repro.queries.query import DeleteQuery, InsertQuery, UpdateQuery

ATTRIBUTES = ("a", "b", "c")
KNOWN = frozenset(ATTRIBUTES)
PARAMS = ("p0", "p1", "p2")

specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-9, -1e-9, 1e300, -1e300])
numbers = st.one_of(specials, st.floats(allow_nan=False, allow_infinity=False))
tolerances = st.one_of(
    st.sampled_from([1e-9, 0.0, 0.5, 1e-6, 2.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


def same_float(first: float, second: float) -> bool:
    """Bit-level agreement, up to NaN payloads."""
    if math.isnan(first) or math.isnan(second):
        return math.isnan(first) and math.isnan(second)
    return first == second and math.copysign(1.0, first) == math.copysign(1.0, second)


@st.composite
def scenarios(draw):
    """A row of floats and the parameter values the random trees use."""
    row = {name: draw(numbers) for name in ATTRIBUTES}
    param_values = {name: draw(numbers) for name in PARAMS}
    return row, param_values


def expressions(param_values: dict[str, float]):
    leaves = st.one_of(
        st.sampled_from(ATTRIBUTES).map(Attr),
        st.sampled_from(PARAMS).map(lambda name: Param(name, param_values[name])),
        numbers.map(Const),
    )
    constants = numbers.map(Const)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-"]), children, children).map(
                lambda parts: BinOp(*parts)
            ),
            # Multiplication stays affine only with a constant operand.
            st.tuples(children, constants).map(lambda parts: BinOp("*", *parts)),
            st.tuples(constants, children).map(lambda parts: BinOp("*", *parts)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def predicates(param_values: dict[str, float]):
    comparisons = st.builds(
        Comparison,
        expressions(param_values),
        st.sampled_from(COMPARISON_OPS),
        expressions(param_values),
        tolerances,
    )
    leaves = st.one_of(
        comparisons, st.just(TruePredicate()), st.just(FalsePredicate())
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(And),
            st.lists(children, min_size=1, max_size=3).map(Or),
        ),
        max_leaves=5,
    )


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_set_kernels_match_expr_evaluate_bit_for_bit(scenario, data):
    row, param_values = scenario
    expr = data.draw(expressions(param_values))
    assert same_float(compile_expr(expr, KNOWN)(row), expr.evaluate(row))


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_where_kernels_match_predicate_evaluate(scenario, data):
    row, param_values = scenario
    predicate = data.draw(predicates(param_values))
    assert compile_predicate(predicate, KNOWN)(row) is predicate.evaluate(row)


@settings(max_examples=300, deadline=None)
@given(
    constant=numbers,
    tolerance=tolerances,
    op=st.sampled_from(COMPARISON_OPS),
    offset=st.sampled_from(["+", "-", "0"]),
    swapped=st.booleans(),
    as_param=st.booleans(),
)
def test_comparisons_agree_exactly_on_the_tolerance_boundary(
    constant, tolerance, op, offset, swapped, as_param
):
    # The specialized ``attribute OP constant`` kernels pre-add the tolerance
    # to the constant; a row sitting exactly on that edge must still fall on
    # the interpreter's side of it.
    value = {"+": constant + tolerance, "-": constant - tolerance, "0": constant}[offset]
    other = Param("p0", constant) if as_param else Const(constant)
    sides = (other, Attr("a")) if swapped else (Attr("a"), other)
    comparison = Comparison(sides[0], op, sides[1], tolerance)
    row = {"a": value, "b": 0.0, "c": 0.0}
    assert compile_predicate(comparison, KNOWN)(row) is comparison.evaluate(row)


@settings(max_examples=200, deadline=None)
@given(
    low=numbers,
    high=numbers,
    tolerances_=st.tuples(tolerances, tolerances),
    offset=st.sampled_from(["low-", "low+", "high-", "high+", "inside"]),
    reversed_=st.booleans(),
)
def test_range_kernels_agree_on_both_edges(low, high, tolerances_, offset, reversed_):
    lower = Comparison(Attr("a"), ">=", Const(low), tolerances_[0])
    upper = Comparison(Attr("a"), "<=", Const(high), tolerances_[1])
    predicate = And((upper, lower) if reversed_ else (lower, upper))
    value = {
        "low-": low - tolerances_[0],
        "low+": low + tolerances_[0],
        "high-": high - tolerances_[1],
        "high+": high + tolerances_[1],
        "inside": (low + high) / 2.0,
    }[offset]
    row = {"a": value, "b": 0.0, "c": 0.0}
    assert compile_predicate(predicate, KNOWN)(row) is predicate.evaluate(row)


def test_signed_zero_survives_a_lone_attribute_set_clause():
    # ``SET b = a`` evaluates ``0.0 + 1.0 * a``: a -0.0 input comes out +0.0.
    kernel = compile_expr(Attr("a"), KNOWN)
    assert math.copysign(1.0, kernel({"a": -0.0})) == 1.0
    assert math.copysign(1.0, Attr("a").evaluate({"a": -0.0})) == 1.0


def test_unknown_attributes_raise_the_interpreters_error():
    expr = Attr("zzz") + Const(1.0)
    with pytest.raises(QueryModelError):
        compile_expr(expr, KNOWN)({"a": 1.0})
    predicate = Comparison(Attr("zzz"), "<=", Const(1.0))
    with pytest.raises(QueryModelError):
        compile_predicate(predicate, KNOWN)({"a": 1.0})


class TestCompiledLog:
    @pytest.fixture()
    def schema(self):
        return Schema.build("t", list(ATTRIBUTES), upper=100)

    def test_point_shape_is_recognized_on_either_side(self, schema):
        compiled = CompiledLog(schema)
        forward = UpdateQuery("t", {"b": Const(1.0)}, Comparison(Attr("a"), "=", Param("p", 5.0)))
        backward = UpdateQuery("t", {"b": Const(1.0)}, Comparison(Const(5.0), "=", Attr("a"), 0.25))
        ranged = UpdateQuery("t", {"b": Const(1.0)}, range_predicate("a", 1.0, 2.0))
        assert compiled.query(forward).point == ("a", 5.0, 1e-9)
        assert compiled.query(backward).point == ("a", 5.0, 0.25)
        assert compiled.query(ranged).point is None

    def test_writes_expand_the_delete_wildcard(self, schema):
        compiled = CompiledLog(schema)
        delete = DeleteQuery("t", Comparison(Attr("a"), "<", Const(3.0)))
        update = UpdateQuery("t", {"b": Const(1.0), "c": Attr("a")})
        assert compiled.query(delete).writes == frozenset(ATTRIBUTES)
        assert compiled.query(update).writes == frozenset({"b", "c"})

    def test_query_memoizes_and_once_does_not(self, schema):
        compiled = CompiledLog(schema)
        query = UpdateQuery("t", {"b": Const(1.0)})
        fresh = compiled.once(query)
        assert compiled.once(query) is not fresh
        kept = compiled.query(query)
        assert compiled.query(query) is kept
        assert compiled.once(query) is kept

    def test_repaired_logs_reuse_untouched_kernels(self, schema):
        first = UpdateQuery(
            "t", {"b": Param("q1_set", 1.0)}, Comparison(Attr("a"), ">", Param("q1_lo", 2.0))
        )
        second = UpdateQuery("t", {"c": Param("q2_set", 3.0)})
        log = QueryLog([first, second])
        compiled = CompiledLog(schema)
        before = compiled.of(log)
        after = compiled.of(log.with_params({"q2_set": 9.0}))
        assert after[0] is before[0]
        assert after[1] is not before[1]
        assert after[1].sets[0][1]({}) == 9.0

    def test_one_row_writes_interpret_until_kernels_exist(self, schema):
        query = UpdateQuery("t", {"b": Attr("a") + Param("p", 0.5)})
        row = {"a": 2.0, "b": 0.0, "c": 0.0}
        compiled = CompiledLog(schema).query(query)
        interpreted = compiled.sets_for(1)
        assert interpreted[0][1](row) == 2.5
        kernels = compiled.sets_for(2)
        assert kernels is compiled.sets
        assert kernels[0][1](row) == 2.5
        assert compiled.sets_for(1) is kernels

    def test_unsupported_query_types_are_rejected(self, schema):
        with pytest.raises(QueryModelError):
            CompiledLog(schema).query(object())  # type: ignore[arg-type]

    def test_replay_on_a_shared_compiled_log_matches_a_fresh_replay(self, schema):
        initial = Database(
            schema,
            [{"a": float(i), "b": float(2 * i), "c": 0.0} for i in range(6)],
        )
        log = QueryLog(
            [
                UpdateQuery(
                    "t", {"b": Attr("b") + Param("p1", 1.5)}, range_predicate("a", 1.0, 4.0)
                ),
                UpdateQuery("t", {"c": Attr("a") * 2.0}, Comparison(Attr("a"), "=", Const(3.0))),
                InsertQuery("t", {"a": Const(9.0), "b": Param("p2", 7.0), "c": Const(0.0)}),
                DeleteQuery("t", Or((Comparison(Attr("b"), ">", Const(7.0)), FalsePredicate()))),
            ]
        )
        compiled = CompiledLog(schema)
        compiled.of(log)
        shared = replay(initial, log, compiled=compiled)
        fresh = replay(initial, log)
        assert shared.rids == fresh.rids
        assert shared.to_dicts() == fresh.to_dicts()
