"""The array presolve returns byte-identical results to the ``scipy.sparse`` reference.

:func:`repro.milp.presolve.presolve` works on CSR arrays; the reference in
``presolve_reference.py`` is the implementation it replaced, built from
``scipy.sparse`` operations.  Every field of the :class:`PresolveResult` must
match byte for byte — the CSR ``indptr`` / ``indices`` / ``data`` in stored
order, every bound vector, ``stats`` (values and key order), both big-M
row-max arrays, ``infeasible`` and ``reason`` — on hypothesis-drawn models
and on every encode of a seeded multi-family grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from presolve_reference import reference_presolve

from repro.core.config import EncodingConfig, QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.refinement import PARAM_WEIGHT
from repro.milp.model import Model
from repro.milp.presolve import presolve
from repro.workload.spec import ScenarioSpec, available_scenario_families, build_spec_scenario


def _same_array(actual, expected) -> None:
    if expected is None:
        assert actual is None
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_identical(actual, expected) -> None:
    assert actual.infeasible == expected.infeasible
    assert actual.reason == expected.reason
    assert list(actual.stats.items()) == list(expected.stats.items())
    assert list(actual.matrices) == list(expected.matrices)
    for key, value in expected.matrices.items():
        if key == "A":
            got = actual.matrices["A"]
            assert got.format == "csr" and got.shape == value.shape
            for name in ("indptr", "indices", "data"):
                _same_array(getattr(got, name), getattr(value, name))
        else:
            _same_array(actual.matrices[key], value)
    _same_array(actual.bigm_rowmax_before, expected.bigm_rowmax_before)
    _same_array(actual.bigm_rowmax_after, expected.bigm_rowmax_after)


def check(matrices, **kwargs) -> None:
    assert_identical(presolve(matrices, **kwargs), reference_presolve(matrices, **kwargs))


# -- hypothesis-drawn models ------------------------------------------------------------

coefficients = st.sampled_from([-250.0, -7.5, -2.0, -1.0, -0.3, 0.5, 1.0, 1.7, 3.0, 40.0, 2.0e5])
levels = st.sampled_from([-20.0, -3.5, 0.0, 0.25, 1.0, 2.0, 6.0, 15.0])


@st.composite
def models(draw):
    model = Model("drawn")
    variables = []
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["binary", "binary", "continuous", "integer", "fixed"]))
        if kind == "binary":
            variables.append(model.add_binary(f"b{index}"))
        elif kind == "fixed":
            value = draw(levels)
            variables.append(model.add_continuous(f"f{index}", value, value))
        else:
            low = draw(st.sampled_from([-np.inf, -10.0, -1.5, 0.0]))
            high = draw(st.sampled_from([np.inf, 0.5, 4.0, 12.0]))
            add = model.add_integer if kind == "integer" else model.add_continuous
            variables.append(add(f"{kind[0]}{index}", low, high))
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        shape = draw(st.sampled_from(["singleton", "row", "row", "indicator", "equality"]))
        if shape == "singleton":
            expr = draw(coefficients) * draw(st.sampled_from(variables))
        else:
            members = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=4))
            expr = sum((draw(coefficients) * member for member in members), 0.0)
        rhs = draw(levels)
        if shape == "equality":
            model.add_equal(expr, rhs)
        elif shape == "indicator":
            # x <= rhs + M * (1 - b) style: a big-M row over a binary.
            binary = model.add_binary(f"ind{index}")
            big_m = draw(st.sampled_from([10.0, 250.0, 2.0e5]))
            sense = draw(st.sampled_from(["<=", ">="]))
            if sense == "<=":
                row = model.add_le(expr + big_m * binary, rhs + big_m)
            else:
                row = model.add_ge(expr - big_m * binary, rhs - big_m)
            model.mark_big_m(row, big_m)
        elif draw(st.booleans()):
            model.add_le(expr, rhs)
        else:
            model.add_ge(expr, rhs)
    if draw(st.booleans()):
        model.add_equal(0.0 * variables[0], draw(st.sampled_from([0.0, 1.0])))
    model.set_objective(sum((draw(coefficients) * v for v in variables), 0.0))
    return model


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models(), st.integers(min_value=1, max_value=4))
def test_drawn_models_presolve_identically(model, max_passes):
    check(model.to_matrices(), max_passes=max_passes)


# -- every encode of a seeded multi-family grid -------------------------------------------


def _grid_encodes(family: str, seed: int, delete_encoding: str):
    spec = ScenarioSpec(family, 20, 10, "workload", "late", seed=seed)
    if family == "long-log":
        spec = spec.with_overrides(n_queries=60, corruption="set-clause")
    elif family == "tatp":
        spec = spec.with_overrides(corruption="set-clause")
    scenario = build_spec_scenario(spec)
    config = QFixConfig(encoding=EncodingConfig(delete_encoding=delete_encoding))
    common = (
        scenario.schema, scenario.initial, scenario.dirty, scenario.corrupted_log,
        scenario.complaints, config,
    )
    size = len(scenario.corrupted_log)
    complaint_rids = sorted(scenario.complaints.rids)
    for index in range(size):
        yield LogEncoder(*common, parameterized=[index], rids=complaint_rids or None).encode()
    yield LogEncoder(*common, parameterized=list(range(size))).encode()
    others = [rid for rid in scenario.initial.rids if rid not in scenario.complaints.rids][:5]
    yield LogEncoder(
        *common,
        parameterized=[size - 2],
        rids=sorted(set(complaint_rids) | set(others)),
        soft_rids={rid: 1.0 for rid in others},
        param_objective_weight=PARAM_WEIGHT,
    ).encode()


@pytest.mark.parametrize("family", available_scenario_families())
@pytest.mark.parametrize("seed", [1, 2])
def test_grid_encodes_presolve_identically(family, seed):
    for delete_encoding in ("sentinel", "alive"):
        for problem in _grid_encodes(family, seed, delete_encoding):
            check(problem.model.to_matrices())


# -- the stored-order trap ---------------------------------------------------------------


def _trap_model(with_fixed_column: bool) -> Model:
    """``3.608 b1 + 1.3 b2 (+ f) <= 3.98`` plus a second row over both binaries.

    Tightening the two binaries of the first row gives coefficients whose
    last bits depend on which binary is visited first.  The fixed column
    ``f`` (pinned at 0) makes the presolve fold it out, and a fold writes
    each row's entries back in reverse order, so the binaries are visited
    ``b2`` first instead of ``b1`` first.
    """
    model = Model("trap")
    b1, b2 = model.add_binary("b1"), model.add_binary("b2")
    y = model.add_continuous("y", 0.0, 10.0)
    lhs = 3.608 * b1 + 1.3 * b2
    if with_fixed_column:
        lhs = lhs + model.add_continuous("f", 0.0, 0.0)
    model.add_le(lhs, 3.98)
    model.add_le(b1 + b2 + y, 5.0)
    model.set_objective(y - b1 - b2)
    return model


def _first_row(result) -> tuple[list[int], list[float]]:
    A = result.matrices["A"]
    begin, end = A.indptr[0], A.indptr[1]
    return A.indices[begin:end].tolist(), A.data[begin:end].tolist()


def test_fold_reverses_rows_and_tightening_depends_on_that_order():
    folded = _trap_model(with_fixed_column=True).to_matrices()
    plain = _trap_model(with_fixed_column=False).to_matrices()
    check(folded)
    check(plain)
    # The fold reversed the row: b2 (column 1) is stored, and visited, first.
    assert _first_row(presolve(folded)) == ([1, 0], [0.9280000000000004, 0.9280000000000008])
    # Visiting b1 first tightens b1 to a different float.
    assert _first_row(presolve(plain)) == ([0, 1], [0.9280000000000004, 0.9280000000000004])
