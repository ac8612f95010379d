"""The encoder's float prefix builds exactly the model the symbolic walk builds.

``LogEncoder`` folds every query before the first parameterized one on plain
floats (``_fold_prefix``) and hands that state to the symbolic walk.  That
prefix creates no variable and no constraint, so encoding with it and without
it — the seam ``_prefix_end`` patched to 0, which makes the symbolic walk
start at the first query — must give identical matrices, variables, bounds
and objective.  Random logs mix UPDATE, DELETE (both delete encodings) and
INSERT, with random windows, tuple subsets, attribute subsets and soft rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.complaints import ComplaintSet
from repro.core.config import EncodingConfig, QFixConfig
from repro.core.encoder import LogEncoder
from repro.db.database import Database
from repro.db.schema import Schema
from repro.queries.executor import replay
from repro.queries.expressions import Attr, Param
from repro.queries.log import QueryLog
from repro.queries.predicates import And, Comparison, Or, TruePredicate, range_predicate
from repro.queries.query import DeleteQuery, InsertQuery, UpdateQuery

SCHEMA = Schema.build("t", ["a", "b", "c"], upper=20)
ATTRIBUTES = SCHEMA.attribute_names
# A narrow value range makes predicates flip often, so a prefix that folds
# one value wrong shows up in the model instead of washing out.
values = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def queries(draw, label: str):
    kind = draw(st.sampled_from(["update", "update", "update", "delete", "insert"]))
    if kind == "insert":
        return InsertQuery(
            "t", {name: Param(f"{label}_{name}", draw(values)) for name in ATTRIBUTES}, label=label
        )
    attribute = draw(st.sampled_from(ATTRIBUTES))
    shape = draw(st.sampled_from(["point", "range", "or", "true"]))
    if shape == "point":
        where = Comparison(Attr(attribute), "=", Param(f"{label}_key", draw(values)))
    elif shape == "range":
        low, high = sorted((draw(values), draw(values)))
        where = range_predicate(
            attribute, Param(f"{label}_lo", low), Param(f"{label}_hi", high)
        )
    elif shape == "or":
        where = Or(
            (
                Comparison(Attr(attribute), "<", Param(f"{label}_lt", draw(values))),
                And((Comparison(Attr("c"), ">=", Param(f"{label}_ge", draw(values)), 0.5),)),
            )
        )
    else:
        where = TruePredicate()
    if kind == "delete":
        return DeleteQuery("t", where, label=label)
    target = draw(st.sampled_from(ATTRIBUTES))
    value = Param(f"{label}_set", draw(values))
    expr = Attr(target) + value if draw(st.booleans()) else value
    return UpdateQuery("t", {target: expr}, where, label=label)


@st.composite
def problems(draw):
    rows = draw(
        st.lists(
            st.fixed_dictionaries({name: values for name in ATTRIBUTES}), min_size=1, max_size=4
        )
    )
    initial = Database(SCHEMA, rows)
    size = draw(st.integers(min_value=1, max_value=7))
    log = QueryLog([draw(queries(f"q{index}")) for index in range(size)])
    params = log.params()
    truth = replay(initial, log)
    dirty = truth
    if params:
        changed = draw(st.sampled_from(sorted(params)))
        dirty = replay(initial, log.with_params({changed: params[changed] + 3.0}))
    complaints = ComplaintSet.from_states(dirty, truth)
    parameterized = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=size - 1), min_size=0, max_size=3))
    )
    options = {}
    if draw(st.booleans()):
        inserts = sum(isinstance(query, InsertQuery) for query in log)
        first_new = initial.table.next_rid
        every = sorted(set(initial.rids) | set(range(first_new, first_new + inserts)))
        options["rids"] = sorted(set(draw(st.lists(st.sampled_from(every), min_size=1))))
        if draw(st.booleans()):
            options["soft_rids"] = {rid: 1.0 for rid in options["rids"] if rid not in complaints}
    if draw(st.booleans()):
        options["encoded_attributes"] = draw(
            st.sets(st.sampled_from(ATTRIBUTES), min_size=1)
        )
    if draw(st.booleans()):
        options["candidate_indices"] = sorted(
            set(parameterized) | draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
        )
    delete_encoding = draw(st.sampled_from(["sentinel", "alive"]))
    config = QFixConfig(encoding=EncodingConfig(delete_encoding=delete_encoding))
    return initial, dirty, log, complaints, config, parameterized, options


def _encode(problem):
    initial, dirty, log, complaints, config, parameterized, options = problem
    return LogEncoder(
        SCHEMA, initial, dirty, log, complaints, config, parameterized=parameterized, **options
    ).encode()


def _snapshot(encoded):
    model = encoded.model
    matrices = model.to_matrices()
    arrays = {
        key: np.asarray(value.toarray() if key == "A" else value)
        for key, value in matrices.items()
    }
    variables = [
        (variable.name, variable.lower, variable.upper, variable.var_type)
        for variable in model.variables
    ]
    objective = model.objective
    return {
        "arrays": arrays,
        "variables": variables,
        "constraints": [constraint.name for constraint in model.constraints],
        "objective": (
            sorted((variable.name, coeff) for variable, coeff in objective.terms.items()),
            objective.constant,
        ),
        "bookkeeping": (
            encoded.encoded_rids,
            encoded.encoded_attributes,
            encoded.constrained_attributes,
            encoded.encoded_query_indices,
            encoded.trivially_infeasible,
        ),
    }


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_float_prefix_builds_the_symbolic_walks_model(problem):
    with_prefix = _snapshot(_encode(problem))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LogEncoder, "_prefix_end", lambda self: 0)
        without_prefix = _snapshot(_encode(problem))
    assert with_prefix["variables"] == without_prefix["variables"]
    assert with_prefix["constraints"] == without_prefix["constraints"]
    assert with_prefix["objective"] == without_prefix["objective"]
    assert with_prefix["bookkeeping"] == without_prefix["bookkeeping"]
    assert with_prefix["arrays"].keys() == without_prefix["arrays"].keys()
    for key, array in with_prefix["arrays"].items():
        other = without_prefix["arrays"][key]
        assert array.shape == other.shape, key
        assert np.array_equal(array, other, equal_nan=True), key
