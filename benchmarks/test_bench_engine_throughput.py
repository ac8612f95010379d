"""Engine throughput benchmark: serial vs thread vs process executors.

The serving question this answers: how fast can :meth:`DiagnosisEngine.
diagnose_batch` drain a mixed 64-request grid on one machine?  The workload
deliberately runs the pure-Python branch-and-bound backend — the CPU-bound
case where the GIL makes the ``thread`` strategy degenerate to single-core
throughput and only the ``process`` strategy can use the other cores.

Three timed runs over the same 64 requests (8 distinct scenarios x 8 repeats,
mixed diagnosers), one per executor strategy, plus a correctness gate: all
three executors must return *identical* diagnosis results (same feasibility,
same status, same repaired SQL) for every request — parallelism must never
change an answer.

The speedup gate is bounded by the cores the run has.  Its ceiling is
``min(workers, cores) x serial_wall / serial_cpu``: the serial run is not
single-core either (the LP relaxations run on a small thread pool), so its
CPU time spread over the usable cores is the fastest any process run could
finish.  The process run must reach ``min(2.0, 0.8 x ceiling)``, which is
2.0 wherever the ceiling is at least 2.5x (three or more cores, for a
serial run that uses at most 1.2 of them).  On two cores the ceiling is
below 2.0 — the parent process pickles and schedules on the same cores the
two workers solve on — so there the gate asks for 80% of it.  Serial
wall-clock noise cancels out: the gate is equivalent to the process run
finishing within 1/0.8 of the serial run's CPU time spread over the usable
cores.

Results are written to ``BENCH_engine_throughput.json`` (override with
``BENCH_ENGINE_THROUGHPUT_OUT``) so CI can archive the throughput trajectory
across PRs.  The gate only applies on multi-core machines; a single-core
runner still writes the report and asserts cross-executor correctness, then
**skips visibly** so the run never reads as "speedup verified" when no
second core existed to verify it.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.config import QFixConfig
from repro.experiments.common import nonvacuous_scenarios, synthetic_scenario
from repro.parallel import ProcessExecutor
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest

OUTPUT_PATH = os.environ.get(
    "BENCH_ENGINE_THROUGHPUT_OUT", "BENCH_engine_throughput.json"
)

#: The grid: 8 distinct scenarios x 8 repeats = 64 requests.
N_DISTINCT = 8
N_REPEATS = 8

#: The required process speedup where the cores allow it.
TARGET_SPEEDUP = 2.0
#: The share of the reckoned ceiling the process run must reach below that.
REQUIRED_EFFICIENCY = 0.8


def _mixed_grid() -> list[DiagnosisRequest]:
    """64 requests over distinct scenarios, sizes, and diagnosers.

    Scenario parameters are chosen deterministically, skipping vacuous
    corruptions (no observable complaint), so the grid is stable across
    machines and runs.  Repeats get distinct request ids — they are real
    requests (think: the same dashboard query re-audited every few minutes),
    and they are what reaches a worker's warm-start cache.
    """
    base = QFixConfig.fully_optimized(solver="branch-and-bound", time_limit=20.0)
    scenarios = nonvacuous_scenarios(
        N_DISTINCT,
        lambda candidate: synthetic_scenario(
            n_tuples=18 + 2 * (candidate % 4),
            n_queries=6 + candidate % 3,
            corruption_indices=[2 + candidate % 3],
            seed=candidate,
        ),
    )
    requests = []
    for repeat in range(N_REPEATS):
        for index, scenario in enumerate(scenarios):
            diagnoser = "incremental" if index % 2 == 0 else "basic"
            requests.append(
                DiagnosisRequest(
                    initial=scenario.initial,
                    log=scenario.corrupted_log,
                    complaints=scenario.complaints,
                    final=scenario.dirty,
                    diagnoser=diagnoser,
                    config=base,
                    request_id=f"s{index}-r{repeat}",
                )
            )
    return requests


def _timed_run(
    requests: list[DiagnosisRequest], *, executor, max_workers: int
) -> tuple[float, float, dict[str, tuple]]:
    """One full batch through a fresh engine.

    Returns (wall seconds, this process's CPU seconds, results); the CPU
    time counts every thread of this process, not the worker processes.
    """
    engine = DiagnosisEngine(max_workers=max_workers, executor=executor)
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        responses = engine.diagnose_batch(requests)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    finally:
        engine.close()
    results = {
        response.request_id: (
            response.ok,
            response.feasible,
            response.status,
            response.repaired_sql,
        )
        for response in responses
    }
    return elapsed, cpu, results


def test_bench_engine_throughput():
    requests = _mixed_grid()
    assert len(requests) == N_DISTINCT * N_REPEATS == 64
    cores = os.cpu_count() or 1
    workers = min(4, max(2, cores))

    serial_seconds, serial_cpu_seconds, serial_results = _timed_run(
        requests, executor="serial", max_workers=1
    )
    thread_seconds, _, thread_results = _timed_run(
        requests, executor="thread", max_workers=workers
    )
    # force=True keeps real worker pools even on a single-core machine, so
    # the measured path is the deployed one everywhere; the speedup gate
    # below still only applies where a second core exists.
    process_executor = ProcessExecutor(workers, force=True)
    process_seconds, _, process_results = _timed_run(
        requests, executor=process_executor, max_workers=workers
    )

    # Correctness before speed: every strategy answers every request, with
    # identical diagnoses.
    assert set(serial_results) == set(thread_results) == set(process_results)
    assert all(ok for ok, *_ in serial_results.values())
    assert serial_results == thread_results
    assert serial_results == process_results

    process_speedup = serial_seconds / max(process_seconds, 1e-9)
    thread_speedup = serial_seconds / max(thread_seconds, 1e-9)
    # The fastest the process run could be: the serial run's CPU time spread
    # evenly over the cores its workers can use.
    ceiling = min(workers, cores) * serial_seconds / max(serial_cpu_seconds, 1e-9)
    required = min(TARGET_SPEEDUP, REQUIRED_EFFICIENCY * ceiling)
    report = {
        "workload": (
            f"{len(requests)}-request mixed grid ({N_DISTINCT} scenarios x "
            f"{N_REPEATS} repeats, incremental+basic diagnosers, "
            "branch-and-bound backend)"
        ),
        "cpu_count": cores,
        "max_workers": workers,
        # Single-core runners still measure real pools (force=True above),
        # but their speedup numbers are meaningless — stamp them invalid so
        # downstream consumers (README, dashboards) cannot quote them.
        "parallelism_valid": cores >= 2,
        "serial": {
            "seconds": round(serial_seconds, 4),
            "cpu_seconds": round(serial_cpu_seconds, 4),
        },
        "thread": {
            "seconds": round(thread_seconds, 4),
            "speedup_vs_serial": round(thread_speedup, 3),
        },
        "process": {
            "seconds": round(process_seconds, 4),
            "speedup_vs_serial": round(process_speedup, 3),
            "speedup_ceiling": round(ceiling, 3),
            "efficiency": round(process_speedup / ceiling, 3),
            "executor": process_executor.describe(),
        },
        "requests_per_second": {
            "serial": round(len(requests) / max(serial_seconds, 1e-9), 2),
            "thread": round(len(requests) / max(thread_seconds, 1e-9), 2),
            "process": round(len(requests) / max(process_seconds, 1e-9), 2),
        },
        "identical_results_across_executors": True,
        "gate": {
            "required_process_speedup": round(required, 3),
            "applies": cores >= 2,
            "passed": bool(process_speedup >= required) if cores >= 2 else None,
        },
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    # Acceptance gate: on a multi-core machine the process strategy must
    # reach 80% of what the cores allow, up to 2x serial (threads cannot —
    # the backend is pure Python, so they serialize on the GIL).  On a
    # single-core runner the gate cannot apply — skip *visibly* (the report
    # above is still written, correctness was still asserted) instead of
    # passing quietly and reading as "speedup verified" in CI.
    if cores < 2:
        pytest.skip(
            f"process-speedup gate needs >= 2 cores, found {cores}; "
            f"correctness checked, report written to {OUTPUT_PATH}"
        )
    assert process_speedup >= required, report
