"""Concurrency hammering: the engine's batch fan-out and the session store.

Two stale-result hazards exist in the serving stack:

* every thread in ``diagnose_batch`` shares one engine — a race there could
  let one problem's state reach another, and every response must still be
  the optimum of *its own* problem;
* the HTTP session store caches the last repair for ``accept-repair`` — a
  diagnosis racing a mutation must never leave a stale repair adoptable
  (the dreaded "repaired log length does not match" state).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.complaints import Complaint, ComplaintSet
from repro.db.database import Database
from repro.db.schema import Schema
from repro.exceptions import ReproError
from repro.queries.executor import replay
from repro.queries.log import QueryLog
from repro.server.store import NoPendingRepair, SessionStore
from repro.service.engine import DiagnosisEngine
from repro.service.session import RepairSession
from repro.service.types import DiagnosisRequest
from repro.sql.parser import parse_query


def _tiny_problem(label_prefix: str, bracket: float) -> DiagnosisRequest:
    """A distinct, milliseconds-fast diagnosis problem per ``bracket``."""
    schema = Schema.build("Taxes", ["income", "owed"], upper=300_000.0)
    initial = Database(
        schema,
        [
            {"income": 9_500.0, "owed": 950.0},
            {"income": 90_000.0, "owed": 22_500.0},
            {"income": 86_000.0, "owed": 21_500.0},
        ],
    )
    log = QueryLog(
        [
            parse_query(
                f"UPDATE Taxes SET owed = 30000 WHERE income >= {bracket}",
                label=f"{label_prefix}q1",
            )
        ]
    )
    dirty = replay(initial, log)
    target = dict(dirty.get(2).values)
    target["owed"] = 21_500.0
    complaints = ComplaintSet([Complaint(2, target)])
    return DiagnosisRequest(
        initial=initial, log=log, complaints=complaints, final=dirty
    )


class TestEngineConcurrency:
    def test_hammer_diagnose_batch_repeats_are_consistent(self):
        """N threads x M distinct problems: every answer matches its problem."""
        engine = DiagnosisEngine(max_workers=8)
        brackets = [85_000.0 + 100.0 * i for i in range(6)]
        requests = []
        for round_index in range(5):  # every problem repeats once per round
            for bracket_index, bracket in enumerate(brackets):
                request = _tiny_problem(f"p{bracket_index}", bracket)
                request.request_id = f"r{round_index}-b{bracket_index}"
                requests.append(request)

        responses = engine.diagnose_batch(requests, max_workers=8)

        assert len(responses) == len(requests)
        by_problem: dict[str, set[float]] = {}
        for request, response in zip(requests, responses):
            assert response.ok and response.feasible, response.error_message
            assert response.request_id == request.request_id
            problem = response.request_id.split("-")[1]
            by_problem.setdefault(problem, set()).add(round(response.distance, 6))
        # State leaking across problems would surface as a wrong (or
        # inconsistent) optimum for some repeat of the same problem.
        for problem, distances in by_problem.items():
            assert len(distances) == 1, (problem, distances)


class TestSessionStoreConcurrency:
    @pytest.fixture()
    def store(self):
        schema = Schema.build("Taxes", ["income", "owed"], upper=300_000.0)
        initial = Database(
            schema,
            [
                {"income": 9_500.0, "owed": 950.0},
                {"income": 90_000.0, "owed": 22_500.0},
                {"income": 86_000.0, "owed": 21_500.0},
            ],
        )
        store = SessionStore(DiagnosisEngine(max_workers=4))
        sid = store.create(RepairSession(initial, engine=store.engine))
        base = parse_query(
            "UPDATE Taxes SET owed = 30000 WHERE income >= 85000", label="q0"
        )
        store.append(sid, [base])
        return store, sid

    def test_stale_version_repair_never_adoptable(self, store):
        """Mutations racing diagnoses must invalidate the cached repair.

        Every accept_repair outcome is legal *except* the length-mismatch
        ReproError — that error means the store let a repair computed against
        an older log version survive a concurrent append.
        """
        store, sid = store
        stop = threading.Event()
        failures: list[str] = []

        def diagnoser():
            while not stop.is_set():
                try:
                    store.add_complaints(
                        sid, [Complaint(2, {"income": 86_000.0, "owed": 21_500.0})]
                    )
                except ReproError:
                    pass  # legal: the complaint is already registered
                store.diagnose(sid)

        def mutator():
            index = 1
            while not stop.is_set():
                query = parse_query(
                    "UPDATE Taxes SET owed = 31000 WHERE income >= 200000",
                    label=f"m{index}",
                )
                try:
                    store.append(sid, [query])
                except ReproError as error:
                    failures.append(f"append: {error}")
                index += 1

        def adopter():
            while not stop.is_set():
                try:
                    store.accept_repair(sid)
                except NoPendingRepair:
                    pass  # legal: a mutation invalidated the pending repair
                except ReproError as error:
                    failures.append(f"accept: {error}")

        threads = [
            threading.Thread(target=diagnoser),
            threading.Thread(target=mutator),
            threading.Thread(target=adopter),
        ]
        for thread in threads:
            thread.start()
        threading.Event().wait(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures

    def test_parallel_diagnoses_of_one_session_serve_current_version(self, store):
        store, sid = store
        store.add_complaints(
            sid, [Complaint(2, {"income": 86_000.0, "owed": 21_500.0})]
        )
        responses = []
        lock = threading.Lock()

        def diagnose():
            response = store.diagnose(sid)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=diagnose) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(responses) == 6
        assert all(r.ok and r.feasible for r in responses)
        assert len({round(r.distance, 6) for r in responses}) == 1
        # With no interleaved mutation the last repair must be adoptable.
        summary = store.accept_repair(sid)
        assert summary["pending_repair"] is False
        assert summary["complaints"] == 0
