"""Fan a mixed diagnosis batch across executor strategies and compare.

The engine's batch path is executor-pluggable (:mod:`repro.parallel`):

* ``serial`` — inline, the baseline;
* ``thread`` — the default thread pool, fine when solves release the GIL
  (the native HiGHS backend does);
* ``process`` — load-balanced worker processes, the strategy that actually
  uses every core when the solver is pure Python (branch-and-bound).

This example builds a 24-request batch (6 scenarios x 4 repeats, each repeat
solved from scratch like the first), runs it through all three strategies,
checks the diagnoses agree, and streams one batch with
:meth:`DiagnosisEngine.diagnose_stream` to show results arriving as they
complete under a bounded in-flight window.

Run from the repository root::

    PYTHONPATH=src python examples/parallel_batch.py
"""

from __future__ import annotations

import time

from repro import DiagnosisEngine, DiagnosisRequest, QFixConfig
from repro.experiments.common import nonvacuous_scenarios, synthetic_scenario

# The pure-Python backend makes the GIL story visible: threads cannot
# speed this up, processes can.
CONFIG = QFixConfig.fully_optimized(solver="branch-and-bound", time_limit=20.0)

# Six deterministic scenarios with observable errors (vacuous corruptions —
# ones that never change the final state — are skipped).
scenarios = nonvacuous_scenarios(
    6,
    lambda candidate: synthetic_scenario(
        n_tuples=16 + 2 * (candidate % 3),
        n_queries=5 + candidate % 3,
        corruption_indices=[1 + candidate % 3],
        seed=candidate,
    ),
)

requests = [
    DiagnosisRequest(
        initial=scenario.initial,
        log=scenario.corrupted_log,
        complaints=scenario.complaints,
        final=scenario.dirty,
        config=CONFIG,
        request_id=f"s{index}-r{repeat}",
    )
    for repeat in range(4)
    for index, scenario in enumerate(scenarios)
]

results = {}
for strategy in ("serial", "thread", "process"):
    # max_inflight bounds how many requests are in flight at once — the
    # backpressure window a streaming producer would push against.
    engine = DiagnosisEngine(max_workers=2, executor=strategy, max_inflight=8)
    try:
        start = time.perf_counter()
        responses = engine.diagnose_batch(requests)
        elapsed = time.perf_counter() - start
    finally:
        engine.close()  # releases pools / worker processes
    results[strategy] = {
        response.request_id: (response.feasible, response.repaired_sql)
        for response in responses
    }
    print(
        f"{strategy:>8}: {len(responses)} requests in {elapsed:.2f}s "
        f"({len(responses) / elapsed:.1f} req/s)"
    )

# Parallelism never changes an answer: all three strategies agree.
assert results["serial"] == results["thread"] == results["process"]
print("\nall three executors returned identical diagnoses")

# Streaming: responses arrive as they complete, not barriered at the end.
engine = DiagnosisEngine(max_workers=2, executor="thread", max_inflight=4)
try:
    print("\nstreaming the first 8 requests (completion order):")
    for index, response in engine.diagnose_stream(requests[:8]):
        print(f"  #{index} {response.request_id}: feasible={response.feasible}")
finally:
    engine.close()
