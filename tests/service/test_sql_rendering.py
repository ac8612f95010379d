"""The serving path renders a log as SQL only for a response's repaired SQL.

Rendering a long log costs milliseconds, so the engine must not render one to
key, route or cache a request.  These tests count ``QueryLog.render_sql``
calls in the process that serves the requests.
"""

from __future__ import annotations

import pytest

from repro.core.config import QFixConfig
from repro.parallel import ProcessExecutor
from repro.queries.log import QueryLog
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest
from repro.workload.spec import ScenarioSpec, build_spec_scenario

#: The long-log workload's configuration: the decompose pipeline, basic search.
LONG_LOG_CONFIG = QFixConfig(
    diagnoser="basic", decompose=True, single_fault=False, query_slicing=False
)


@pytest.fixture(scope="module")
def long_log_request() -> DiagnosisRequest:
    scenario = build_spec_scenario(
        ScenarioSpec(
            family="long-log",
            n_tuples=32,
            n_queries=1000,
            corruption="set-clause",
            position="late",
            seed=1,
        )
    )
    return DiagnosisRequest(
        initial=scenario.initial,
        log=scenario.corrupted_log,
        complaints=scenario.complaints,
        final=scenario.dirty,
        request_id="long-log",
    )


@pytest.fixture()
def rendered(monkeypatch) -> list[int]:
    """Lengths of the logs rendered as SQL in this process, in call order."""
    calls: list[int] = []
    render = QueryLog.render_sql

    def counting(log: QueryLog) -> str:
        calls.append(len(log))
        return render(log)

    monkeypatch.setattr(QueryLog, "render_sql", counting)
    return calls


def test_in_process_submit_renders_only_the_repaired_sql(long_log_request, rendered):
    engine = DiagnosisEngine(config=LONG_LOG_CONFIG, executor="serial")
    response = engine.submit(long_log_request)
    assert response.ok and response.feasible, response.error_message
    assert rendered == [len(long_log_request.log)]
    assert response.repaired_sql


def test_process_stream_renders_no_sql_in_the_parent(long_log_request, rendered):
    engine = DiagnosisEngine(
        config=LONG_LOG_CONFIG, max_workers=2, executor=ProcessExecutor(2, force=True)
    )
    try:
        responses = dict(engine.diagnose_stream([long_log_request] * 4))
    finally:
        engine.close()
    assert sorted(responses) == [0, 1, 2, 3]
    assert all(response.ok and response.feasible for response in responses.values())
    # The workers render each response's repaired SQL; the parent renders none.
    assert rendered == []
    assert len({response.repaired_sql for response in responses.values()}) == 1
