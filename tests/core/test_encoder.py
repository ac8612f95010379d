"""Tests for the MILP encoder: solving the encoded problem must reproduce the
reference executor semantics and repair known corruptions."""

import pytest

from repro.core.complaints import Complaint, ComplaintSet
from repro.core.config import QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.basic import BasicRepairer
from repro.core.incremental import IncrementalRepairer
from repro.core.repair import finalize_repair, repair_resolves_complaints
from repro.db.database import Database
from repro.db.schema import Schema
from repro.milp.solvers import get_solver
from repro.queries.executor import replay
from repro.queries.expressions import Attr, Const, Param
from repro.queries.log import QueryLog
from repro.queries.predicates import Comparison, Or
from repro.queries.query import DeleteQuery, InsertQuery, UpdateQuery


SOLVER = get_solver("highs", time_limit=30.0)


@pytest.fixture()
def schema():
    return Schema.build("t", ["a", "b"], upper=100)


def _repair_roundtrip(schema, initial, corrupted_log, true_log, config=None, **encoder_kwargs):
    """Encode the corrupted log against the true final state and repair it."""
    config = config or QFixConfig.fully_optimized()
    dirty = replay(initial, corrupted_log)
    truth = replay(initial, true_log)
    complaints = ComplaintSet.from_states(dirty, truth)
    assert not complaints.is_empty(), "corruption must produce observable errors"
    encoder = LogEncoder(
        schema,
        initial,
        dirty,
        corrupted_log,
        complaints,
        config,
        **{"parameterized": encoder_kwargs.pop("parameterized", range(len(corrupted_log))),
           "rids": encoder_kwargs.pop("rids", complaints.rids),
           **encoder_kwargs},
    )
    problem = encoder.encode()
    solution = SOLVER.solve(problem.model)
    assert solution.status.has_solution, solution.message
    repaired_log, _ = finalize_repair(
        initial, corrupted_log, problem, solution, complaints, config=config
    )
    return replay(initial, repaired_log), truth, repaired_log


class TestUpdateEncoding:
    def test_constant_set_range_where(self, schema):
        # The encoder alone must resolve the complaint; whether it matches the
        # truth exactly depends on the refinement step, so the full pipeline
        # (QFix facade, with refinement) is checked against the true state.
        initial = Database(schema, [{"a": 10, "b": 0}, {"a": 40, "b": 0}, {"a": 70, "b": 0}])
        true_log = QueryLog(
            [UpdateQuery("t", {"b": Param("q1_set", 5.0)},
                         Comparison(Attr("a"), ">=", Param("q1_lo", 35.0)), label="q1")]
        )
        corrupted = true_log.with_params({"q1_lo": 5.0})
        dirty = replay(initial, corrupted)
        truth = replay(initial, true_log)
        complaints = ComplaintSet.from_states(dirty, truth)
        from repro.core.qfix import QFix

        result = QFix(QFixConfig.fully_optimized()).diagnose(initial, dirty, corrupted, complaints)
        assert result.feasible
        assert replay(initial, result.repaired_log).same_state(truth)

    def test_relative_set_clause(self, schema):
        initial = Database(schema, [{"a": 10, "b": 1}, {"a": 60, "b": 2}])
        true_log = QueryLog(
            [UpdateQuery("t", {"b": Attr("b") + Param("q1_d", 7.0)},
                         Comparison(Attr("a"), ">=", Param("q1_lo", 50.0)), label="q1")]
        )
        corrupted = true_log.with_params({"q1_d": 2.0, "q1_lo": 50.0})
        repaired_state, truth, repaired_log = _repair_roundtrip(schema, initial, corrupted, true_log)
        assert repaired_state.same_state(truth)
        assert repaired_log.params()["q1_d"] == pytest.approx(7.0)

    def test_disjunctive_where(self, schema):
        initial = Database(schema, [{"a": 10, "b": 0}, {"a": 50, "b": 0}, {"a": 90, "b": 0}])
        where = Or([
            Comparison(Attr("a"), "<=", Param("q1_lo", 15.0)),
            Comparison(Attr("a"), ">=", Param("q1_hi", 85.0)),
        ])
        true_log = QueryLog([UpdateQuery("t", {"b": Param("q1_set", 9.0)}, where, label="q1")])
        corrupted = true_log.with_params({"q1_hi": 45.0})
        repaired_state, truth, _ = _repair_roundtrip(schema, initial, corrupted, true_log)
        assert repaired_state.same_state(truth)

    def test_multi_query_propagation(self, schema):
        # The corrupted query's effect flows through a later dependent query.
        initial = Database(schema, [{"a": 10, "b": 0}, {"a": 80, "b": 0}])
        true_log = QueryLog(
            [
                UpdateQuery("t", {"a": Param("q1_set", 20.0)},
                            Comparison(Attr("a"), ">=", Param("q1_lo", 70.0)), label="q1"),
                UpdateQuery("t", {"b": Attr("a") + Const(1.0)}, None, label="q2"),
            ]
        )
        corrupted = true_log.with_params({"q1_set": 90.0})
        repaired_state, truth, _ = _repair_roundtrip(
            schema, initial, corrupted, true_log, parameterized=[0]
        )
        assert repaired_state.same_state(truth)


class TestInsertAndDeleteEncoding:
    def test_corrupted_insert_values(self, schema):
        initial = Database(schema, [{"a": 1, "b": 1}])
        true_log = QueryLog(
            [InsertQuery("t", {"a": Param("q1_a", 30.0), "b": Param("q1_b", 40.0)}, label="q1")]
        )
        corrupted = true_log.with_params({"q1_b": 99.0})
        repaired_state, truth, _ = _repair_roundtrip(schema, initial, corrupted, true_log)
        assert repaired_state.same_state(truth)

    @pytest.mark.parametrize("delete_encoding", ["sentinel", "alive"])
    def test_corrupted_delete_predicate(self, schema, delete_encoding):
        config = QFixConfig.fully_optimized()
        config = config.with_overrides(
            encoding=config.encoding.__class__(delete_encoding=delete_encoding)
        )
        initial = Database(schema, [{"a": 10, "b": 0}, {"a": 50, "b": 0}, {"a": 90, "b": 0}])
        true_log = QueryLog(
            [DeleteQuery("t", Comparison(Attr("a"), ">=", Param("q1_lo", 80.0)), label="q1")]
        )
        corrupted = true_log.with_params({"q1_lo": 40.0})
        dirty = replay(initial, corrupted)
        truth = replay(initial, true_log)
        complaints = ComplaintSet.from_states(dirty, truth)
        encoder = LogEncoder(
            schema, initial, dirty, corrupted, complaints, config,
            parameterized=[0], rids=complaints.rids,
        )
        problem = encoder.encode()
        solution = SOLVER.solve(problem.model)
        assert solution.status.has_solution
        repaired_log, _ = finalize_repair(
            initial, corrupted, problem, solution, complaints, config=config
        )
        assert replay(initial, repaired_log).same_state(truth)


class TestEncoderBookkeeping:
    def test_constant_folding_keeps_unparameterized_log_cheap(self, schema, taxes_case=None):
        initial = Database(schema, [{"a": 10, "b": 0}])
        log = QueryLog(
            [
                UpdateQuery("t", {"b": Param("q1_set", 5.0)}, None, label="q1"),
                UpdateQuery("t", {"b": Param("q2_set", 6.0)}, None, label="q2"),
            ]
        )
        dirty = replay(initial, log)
        complaints = ComplaintSet([Complaint(0, {"a": 10.0, "b": 7.0})])
        encoder = LogEncoder(
            schema, initial, dirty, log, complaints, QFixConfig.fully_optimized(),
            parameterized=[1], rids=[0],
        )
        problem = encoder.encode()
        # Only q2 is parameterized; q1 folds to a constant, so the problem has
        # just the q2 parameter, its distance variable, and no binaries.
        assert problem.model.num_integer_variables == 0
        assert set(problem.param_variables) == {"q2_set"}

    def test_trivially_infeasible_flag(self, schema):
        initial = Database(schema, [{"a": 10, "b": 0}])
        log = QueryLog([UpdateQuery("t", {"b": Param("q1_set", 5.0)}, None, label="q1")])
        dirty = replay(initial, log)
        # Complaint about an attribute no query can influence (a), with every
        # query left unparameterized: the folded value contradicts the target.
        complaints = ComplaintSet([Complaint(0, {"a": 55.0, "b": 5.0})])
        encoder = LogEncoder(
            schema, initial, dirty, log, complaints, QFixConfig.fully_optimized(),
            parameterized=[], rids=[0],
        )
        problem = encoder.encode()
        assert problem.trivially_infeasible
        assert not SOLVER.solve(problem.model).status.has_solution


class TestComparisonTolerance:
    """Constant folding honours each comparison's own tolerance, like replay."""

    @pytest.fixture()
    def case(self, schema):
        initial = Database(schema, [{"a": 5.3, "b": 0.0}, {"a": 50.0, "b": 0.0}])
        # Row 0 matches ``a = 5`` only through the comparison's 0.5 tolerance;
        # folding it with a fixed 1e-9 missed the match, so the encoding
        # believed b was still 0 when q1 ran.
        log = QueryLog(
            [
                UpdateQuery("t", {"b": Const(1.0)}, Comparison(Attr("a"), "=", Const(5.0), 0.5)),
                UpdateQuery(
                    "t",
                    {"b": Attr("b") + Param("q1_p", 10.0)},
                    Comparison(Attr("a"), "<=", Const(10.0)),
                ),
            ]
        )
        dirty = replay(initial, log)
        complaints = ComplaintSet([Complaint(0, {"a": 5.3, "b": 21.0})])
        return initial, dirty, log, complaints

    @pytest.mark.parametrize(
        "repairer",
        [
            lambda: IncrementalRepairer(QFixConfig.fully_optimized()),
            lambda: BasicRepairer(QFixConfig.basic()),
        ],
        ids=["incremental", "basic"],
    )
    def test_both_diagnosers_repair_through_a_tolerant_match(self, schema, case, repairer):
        initial, dirty, log, complaints = case
        result = repairer().repair(schema, initial, dirty, log, complaints)
        assert result.feasible
        assert result.parameter_values == {"q1_p": 20.0}
        assert repair_resolves_complaints(initial, result.repaired_log, complaints)

