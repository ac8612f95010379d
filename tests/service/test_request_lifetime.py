"""Diagnosing a request leaves nothing behind on it and keeps nothing of it.

Kernels and affine forms are per-diagnosis or per-instance state: once a
request and its response are dropped, the request's expression trees must be
collectable (a process-global memo keyed by ``id`` used to keep every
expression ever diagnosed alive, so a long-running server grew without
bound), and diagnosing a request must not change how it pickles (process
executors ship requests as pickles).
"""

from __future__ import annotations

import gc
import pickle
import weakref

from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest
from repro.workload.spec import ScenarioSpec, build_spec_scenario


def _request(seed: int) -> DiagnosisRequest:
    scenario = build_spec_scenario(ScenarioSpec("synthetic", 40, 12, "workload", "late", seed=seed))
    request = DiagnosisRequest(
        initial=scenario.initial,
        log=scenario.corrupted_log,
        complaints=scenario.complaints,
        final=scenario.dirty,
        request_id=f"lifetime-{seed}",
    )
    # Decode from the wire form, as the server and the batch CLI do, so the
    # expression objects belong to this request alone.
    return DiagnosisRequest.from_dict(request.to_dict())


def _expressions(request: DiagnosisRequest) -> list[object]:
    found = []
    for query in request.log:
        for _, expr in getattr(query, "set_clause", ()):
            found.append(expr)
        where = getattr(query, "where", None)
        for comparison in where.comparisons() if where is not None else ():
            found.extend((comparison.left, comparison.right))
    return found


def test_a_diagnosed_requests_expressions_are_collected():
    engine = DiagnosisEngine(max_workers=1, executor="serial")
    request = _request(seed=11)
    refs = [weakref.ref(expr) for expr in _expressions(request)]
    assert refs
    response = engine.submit(request)
    assert response.ok and response.feasible
    del request, response
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_a_request_pickles_to_the_same_bytes_before_and_after_diagnosis():
    engine = DiagnosisEngine(max_workers=1, executor="serial")
    request = _request(seed=12)
    before = pickle.dumps(request)
    response = engine.submit(request)
    assert response.ok and response.feasible
    assert pickle.dumps(request) == before
