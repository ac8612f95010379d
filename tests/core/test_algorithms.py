"""End-to-end tests for the repair algorithms (basic, incremental, refinement, facade)."""

import pytest

from repro.core.basic import BasicRepairer
from repro.core.config import QFixConfig
from repro.core.incremental import IncrementalRepairer, windows_newest_first
from repro.core.metrics import evaluate_repair
from repro.core.qfix import QFix
from repro.core.refinement import affected_non_complaints
from repro.core.repair import repair_resolves_complaints
from repro.exceptions import ReproError
from repro.experiments.common import synthetic_scenario
from repro.queries.log import changed_queries


class TestTaxExample:
    """The paper's running example (Figure 2) must be repaired exactly."""

    def test_incremental_repair(self, taxes_case):
        qfix = QFix(QFixConfig.fully_optimized())
        result = qfix.diagnose(
            taxes_case["initial"],
            taxes_case["dirty"],
            taxes_case["corrupted_log"],
            taxes_case["complaints"],
        )
        assert result.feasible
        assert result.changed_query_indices == (0,)
        accuracy = evaluate_repair(
            taxes_case["initial"], taxes_case["dirty"], taxes_case["truth"], result.repaired_log
        )
        assert accuracy.f1 == pytest.approx(1.0)
        # The repaired predicate excludes t3/t4 (86500) but keeps t2 (90000).
        assert 86_500.0 < result.parameter_values["q1_p1"] <= 90_000.0

    def test_basic_repair(self, taxes_case):
        repairer = BasicRepairer(QFixConfig.basic())
        result = repairer.repair(
            taxes_case["initial"].schema,
            taxes_case["initial"],
            taxes_case["dirty"],
            taxes_case["corrupted_log"],
            taxes_case["complaints"],
        )
        assert result.feasible
        assert repair_resolves_complaints(
            taxes_case["initial"], result.repaired_log, taxes_case["complaints"]
        )

    def test_basic_with_all_slicing(self, taxes_case):
        config = QFixConfig.basic(
            tuple_slicing=True, refinement=True, query_slicing=True, attribute_slicing=True
        )
        result = BasicRepairer(config).repair(
            taxes_case["initial"].schema,
            taxes_case["initial"],
            taxes_case["dirty"],
            taxes_case["corrupted_log"],
            taxes_case["complaints"],
        )
        assert result.feasible
        accuracy = evaluate_repair(
            taxes_case["initial"], taxes_case["dirty"], taxes_case["truth"], result.repaired_log
        )
        assert accuracy.f1 == pytest.approx(1.0)

    def test_empty_complaints_rejected(self, taxes_case):
        from repro.core.complaints import ComplaintSet

        qfix = QFix()
        with pytest.raises(ReproError):
            qfix.diagnose(
                taxes_case["initial"],
                taxes_case["dirty"],
                taxes_case["corrupted_log"],
                ComplaintSet(),
            )

    def test_unknown_method_rejected(self, taxes_case):
        with pytest.raises(ReproError):
            QFix().diagnose(
                taxes_case["initial"],
                taxes_case["dirty"],
                taxes_case["corrupted_log"],
                taxes_case["complaints"],
                method="magic",  # type: ignore[arg-type]
            )


class TestIncrementalSearch:
    def test_windows_newest_first(self):
        assert list(windows_newest_first(5, 2)) == [(3, 4), (1, 2), (0,)]
        assert list(windows_newest_first(3, 1)) == [(2,), (1,), (0,)]
        with pytest.raises(ValueError):
            list(windows_newest_first(3, 0))

    def test_finds_mid_log_corruption(self, small_scenario):
        scenario = small_scenario
        repairer = IncrementalRepairer(QFixConfig.fully_optimized())
        result = repairer.repair(
            scenario.schema,
            scenario.initial,
            scenario.dirty,
            scenario.corrupted_log,
            scenario.complaints,
        )
        assert result.feasible
        assert repair_resolves_complaints(
            scenario.initial, result.repaired_log, scenario.complaints
        )
        assert result.windows_tried >= 1

    def test_incremental_matches_truth_on_synthetic_scenario(self, small_scenario):
        scenario = small_scenario
        result = QFix(QFixConfig.fully_optimized()).diagnose(
            scenario.initial, scenario.dirty, scenario.corrupted_log, scenario.complaints
        )
        accuracy = evaluate_repair(
            scenario.initial, scenario.dirty, scenario.truth, result.repaired_log
        )
        assert accuracy.recall == pytest.approx(1.0)
        assert accuracy.precision >= 0.5

    def test_batch_size_two(self, small_scenario):
        scenario = small_scenario
        config = QFixConfig.fully_optimized(incremental_batch=2)
        result = IncrementalRepairer(config).repair(
            scenario.schema,
            scenario.initial,
            scenario.dirty,
            scenario.corrupted_log,
            scenario.complaints,
        )
        assert result.feasible

    def test_infeasible_when_no_repair_can_explain_complaint(self, taxes_case):
        # Demand an owed value that no constant repair of the log can produce:
        # t1's owed is either its original 950 or income * 0.3 = 2850, never 123456.
        from repro.core.complaints import Complaint, ComplaintSet

        impossible = ComplaintSet(
            [Complaint(0, {"income": 9_500.0, "owed": 123_456.0, "pay": 8_550.0})]
        )
        config = QFixConfig.fully_optimized(time_limit=10.0)
        result = IncrementalRepairer(config).repair(
            taxes_case["initial"].schema,
            taxes_case["initial"],
            taxes_case["dirty"],
            taxes_case["corrupted_log"],
            impossible,
        )
        assert not result.feasible
        assert result.repaired_log == taxes_case["corrupted_log"]


class TestRefinement:
    def test_refinement_limits_collateral_damage(self):
        scenario = synthetic_scenario(
            n_tuples=80, n_queries=6, corruption_indices=[3], seed=11
        )
        config = QFixConfig.fully_optimized()
        result = QFix(config).diagnose(
            scenario.initial, scenario.dirty, scenario.corrupted_log, scenario.complaints
        )
        assert result.feasible
        nc = affected_non_complaints(
            scenario.initial, scenario.dirty, result.repaired_log, scenario.complaints
        )
        # The repair may legitimately touch non-complaint tuples (unreported
        # errors), but it must not rewrite a large fraction of the table.
        assert len(nc) <= max(5, len(scenario.complaints))

    def test_changed_queries_point_at_corruption(self):
        scenario = synthetic_scenario(
            n_tuples=80, n_queries=6, corruption_indices=[3], seed=13
        )
        result = QFix(QFixConfig.fully_optimized()).diagnose(
            scenario.initial, scenario.dirty, scenario.corrupted_log, scenario.complaints
        )
        assert result.feasible
        assert changed_queries(scenario.corrupted_log, result.repaired_log) == list(
            result.changed_query_indices
        )


class TestInsertWindows:
    """With tuple slicing, the search skips INSERTs that cannot reach a complaint."""

    @staticmethod
    def _scenario():
        from repro.queries.query import InsertQuery
        from repro.workload.scenario import build_scenario
        from repro.workload.tpcc import TPCCConfig, TPCCWorkloadGenerator

        generator = TPCCWorkloadGenerator(TPCCConfig(n_initial_orders=30, n_queries=24, seed=3))
        workload = generator.generate()
        inserts = [
            index for index, query in enumerate(workload.log) if isinstance(query, InsertQuery)
        ]
        corrupted = inserts[len(inserts) // 2]
        scenario = build_scenario(
            workload, [corrupted], rng=5, corruptor=generator.corrupt_query
        )
        rid = workload.initial.table.next_rid + inserts.index(corrupted)
        assert tuple(scenario.complaints.rids) == (rid,)
        return scenario, inserts, corrupted

    def test_only_windows_that_reach_the_inserted_complaint_are_encoded(self, monkeypatch):
        from repro.core.encoder import LogEncoder

        scenario, inserts, corrupted = self._scenario()
        windows: list[tuple[int, ...]] = []
        encode = LogEncoder.encode

        def spy(encoder):
            if not encoder.soft_rids:  # refinement's encode has soft rows
                windows.append(encoder.parameterized)
            return encode(encoder)

        monkeypatch.setattr(LogEncoder, "encode", spy)
        result = IncrementalRepairer(QFixConfig()).repair(
            scenario.schema,
            scenario.initial,
            scenario.dirty,
            scenario.corrupted_log,
            scenario.complaints,
        )
        assert windows, "no window was encoded"
        unreachable = set(inserts) - {corrupted}
        assert not [window for window in windows if set(window) <= unreachable]
        assert result.windows_tried == len(windows)
        assert result.feasible
        assert result.changed_query_indices == (corrupted,)
        assert result.repaired_log[corrupted].params() == scenario.clean_log[corrupted].params()
        assert repair_resolves_complaints(
            scenario.initial, result.repaired_log, scenario.complaints
        )
