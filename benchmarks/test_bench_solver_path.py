"""Solver-path benchmark: sparse + presolve vs the pre-PR path.

Measures the figure-4-style workload (60-tuple, 10-query UPDATE log, one
corrupted query, Inc_1 window encoding) through two solve paths:

* **legacy** — a faithful replica of the pre-PR branch-and-bound: dense
  constraint matrix, per-row Python constraint splitting, no presolve,
  root-bounds branch checks;
* **cold** — the current sparse/presolved branch-and-bound path.

It also times the constraint-split step alone (legacy per-row loop vs the
vectorized sparse split) on a large ``basic``-encoding model, where the dense
matrix is the dominant cost, profiles the LP hot path (relaxations actually
solved vs inherited from the parent node vs batched), snapshots the presolve
big-M histogram (per-row largest coefficient before/after tightening +
equilibration) on the TATP harness family, and re-times the decomposed
1k-query repair against the archived ``BENCH_decomposition.json`` seed.

Results are written to ``BENCH_solver_path.json`` (override the location with
``BENCH_SOLVER_PATH_OUT``) so CI can archive the perf trajectory across PRs.
Blocking gates: at least a 2x node-count reduction (or 2x wall-time
improvement) versus the legacy path, at least a **1.5x LP-relaxation-call
reduction** on the figure4 path, the presolved big-M magnitude capped at the
equilibration threshold, and the decomposed 1k-query wall time no worse than
the archived seed (with noise headroom).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import statistics
import time

import numpy as np
import pytest
from scipy import optimize

from repro.core.basic import BasicRepairer
from repro.core.config import QFixConfig
from repro.core.encoder import LogEncoder
from repro.core.slicing import relevant_attributes, relevant_queries
from repro.experiments.common import synthetic_scenario
from repro.milp.presolve import _EQUILIBRATION_THRESHOLD, presolve
from repro.milp.relaxation import split_constraints
from repro.milp.solvers.branch_and_bound import BranchAndBoundSolver, _Node, _most_fractional
from repro.workload.spec import ScenarioSpec, build_spec_scenario

OUTPUT_PATH = os.environ.get("BENCH_SOLVER_PATH_OUT", "BENCH_solver_path.json")

#: Archived decomposition trajectory; the 1k-query decomposed wall time in it
#: is the regression baseline for this PR's presolve changes.
DECOMPOSITION_SEED_PATH = os.environ.get(
    "BENCH_DECOMPOSITION_SEED", "BENCH_decomposition.json"
)


# -- the pre-PR reference implementation --------------------------------------


def _legacy_split_constraints(arrays):
    """The pre-PR per-row Python split over a dense constraint matrix."""
    n = len(arrays["c"])
    m = arrays["n_constraints"]
    A = np.zeros((m, n))
    A[arrays["rows"], arrays["cols"]] = arrays["data"]
    lb, ub = arrays["lb_con"], arrays["ub_con"]
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row in range(m):
        lower, upper = lb[row], ub[row]
        if np.isfinite(lower) and np.isfinite(upper) and lower == upper:
            eq_rows.append(A[row])
            eq_rhs.append(upper)
            continue
        if np.isfinite(upper):
            ub_rows.append(A[row])
            ub_rhs.append(upper)
        if np.isfinite(lower):
            ub_rows.append(-A[row])
            ub_rhs.append(-lower)
    A_ub = np.array(ub_rows) if ub_rows else None
    b_ub = np.array(ub_rhs) if ub_rhs else None
    A_eq = np.array(eq_rows) if eq_rows else None
    b_eq = np.array(eq_rhs) if eq_rhs else None
    return A_ub, b_ub, A_eq, b_eq


def _legacy_dense_cold_solve(model, *, time_limit=60.0, mip_gap=1e-6, max_nodes=50_000):
    """Replica of the pre-PR dense/cold branch-and-bound solve loop."""
    start = time.perf_counter()
    arrays = model.to_sparse_arrays()
    A_ub, b_ub, A_eq, b_eq = _legacy_split_constraints(arrays)
    c = arrays["c"]
    integer_indices = np.flatnonzero(arrays["integrality"] == 1)
    incumbent_obj = np.inf
    incumbent_x = None
    counter = itertools.count()
    explored = 0
    heap = [_Node(-np.inf, next(counter), arrays["lb_var"].copy(), arrays["ub_var"].copy())]
    while heap:
        if (time.perf_counter() - start) > time_limit or explored >= max_nodes:
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - mip_gap * max(1.0, abs(incumbent_obj)):
            continue
        explored += 1
        result = optimize.linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=list(zip(node.lower, node.upper)), method="highs",
        )
        if not result.success:
            continue
        lp_obj, lp_x = float(result.fun), np.asarray(result.x)
        if lp_obj >= incumbent_obj - mip_gap * max(1.0, abs(incumbent_obj)):
            continue
        branch_index = _most_fractional(lp_x, integer_indices)
        if branch_index is None:
            incumbent_obj, incumbent_x = lp_obj, lp_x
            continue
        floor_value = np.floor(lp_x[branch_index])
        down_upper = node.upper.copy()
        down_upper[branch_index] = floor_value
        if arrays["lb_var"][branch_index] <= floor_value:
            heapq.heappush(heap, _Node(lp_obj, next(counter), node.lower.copy(), down_upper))
        up_lower = node.lower.copy()
        up_lower[branch_index] = floor_value + 1.0
        if arrays["ub_var"][branch_index] >= floor_value + 1.0:
            heapq.heappush(heap, _Node(lp_obj, next(counter), up_lower, node.upper.copy()))
    return incumbent_obj, incumbent_x, explored, time.perf_counter() - start


# -- workload construction ----------------------------------------------------


def _figure4_window_problem():
    """The Inc_1 window encoding of the figure-4-style workload."""
    scenario = synthetic_scenario(n_tuples=60, n_queries=10, corruption_indices=[5], seed=1)
    config = QFixConfig.fully_optimized()
    complaint_attrs = scenario.complaints.complaint_attributes(scenario.dirty)
    candidates = sorted(
        relevant_queries(scenario.corrupted_log, complaint_attrs, scenario.schema, single_fault=True)
    )
    attrs = relevant_attributes(scenario.corrupted_log, candidates, complaint_attrs, scenario.schema)
    encoder = LogEncoder(
        scenario.schema,
        scenario.initial,
        scenario.dirty,
        scenario.corrupted_log,
        scenario.complaints,
        config,
        parameterized=[scenario.corrupted_indices[0]],
        rids=scenario.complaints.rids,
        encoded_attributes=attrs,
        candidate_indices=candidates,
    )
    return encoder.encode()


def _basic_problem():
    """A large basic-encoding model (every query parameterized, all tuples)."""
    scenario = synthetic_scenario(n_tuples=40, n_queries=8, corruption_indices=[4], seed=1)
    encoder = LogEncoder(
        scenario.schema,
        scenario.initial,
        scenario.dirty,
        scenario.corrupted_log,
        scenario.complaints,
        QFixConfig.basic(),
        parameterized=list(range(len(scenario.corrupted_log))),
    )
    return encoder.encode()


def _tatp_bigm_problem():
    """The TATP basic-encoding model — the HiGHS Status-4 reproducer.

    Its WHERE-clause indicators carry ~2e5 big-M coefficients before
    presolve; this is the model whose retry the tightening pass retired.
    """
    scenario = build_spec_scenario(
        ScenarioSpec(
            family="tatp",
            corruption="set-clause",
            position="late",
            n_tuples=25,
            n_queries=8,
            seed=7,
        )
    )
    encoder = LogEncoder(
        scenario.schema,
        scenario.initial,
        scenario.dirty,
        scenario.corrupted_log,
        scenario.complaints,
        QFixConfig.basic(),
        parameterized=list(range(len(scenario.corrupted_log))),
    )
    return encoder.encode()


def _decade_histogram(rowmax: np.ndarray) -> dict[str, int]:
    """Per-row max-|coefficient| magnitudes bucketed by decade (``1eN``)."""
    buckets: dict[str, int] = {}
    for value in np.asarray(rowmax, dtype=float):
        if not np.isfinite(value) or value <= 0.0:
            label = "0"
        else:
            label = f"1e{int(np.floor(np.log10(value)))}"
        buckets[label] = buckets.get(label, 0) + 1

    def _order(label: str) -> float:
        return -np.inf if label == "0" else float(label[2:])

    return {label: buckets[label] for label in sorted(buckets, key=_order)}


def _decomposed_1k_run():
    """The 1k-query decomposed repair from ``test_bench_decomposition``.

    Re-timed here (median of 3) so the solver-path report can gate this PR's
    presolve changes against the archived decomposition seed.
    """
    scenario = build_spec_scenario(
        ScenarioSpec(
            family="long-log",
            n_tuples=64,
            n_queries=1000,
            corruption="set-clause",
            position="late",
            n_corruptions=1,
            seed=3,
        )
    )
    config = QFixConfig.basic(
        tuple_slicing=True, refinement=True, attribute_slicing=True
    ).with_overrides(diagnoser="basic", decompose=True, time_limit=120.0)
    repairer = BasicRepairer(config)
    times = []
    result = None
    for _ in range(3):
        start = time.perf_counter()
        result = repairer.repair(
            scenario.schema,
            scenario.initial,
            scenario.dirty,
            scenario.corrupted_log,
            scenario.complaints,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _archived_decomposed_1k_seconds() -> float | None:
    """The 1k-query decomposed wall time archived in BENCH_decomposition.json."""
    if not os.path.exists(DECOMPOSITION_SEED_PATH):
        return None
    with open(DECOMPOSITION_SEED_PATH) as handle:
        archived = json.load(handle)
    for row in archived.get("sizes", []):
        if row.get("n_queries") == 1000:
            seconds = row.get("decomposed", {}).get("seconds")
            return float(seconds) if seconds is not None else None
    return None


# -- the benchmark ------------------------------------------------------------


def test_bench_solver_path():
    problem = _figure4_window_problem()
    model = problem.model

    legacy_obj, _, legacy_nodes, legacy_seconds = _legacy_dense_cold_solve(model)
    assert np.isfinite(legacy_obj), "legacy reference failed to solve the workload"

    solver = BranchAndBoundSolver(time_limit=60.0)
    start = time.perf_counter()
    cold = solver.solve(model)
    cold_seconds = time.perf_counter() - start

    assert cold.objective == pytest.approx(legacy_obj, abs=1e-6)

    # Constraint-split micro-benchmark on the large basic-encoding model.
    big = _basic_problem().model
    repetitions = 3
    start = time.perf_counter()
    for _ in range(repetitions):
        _legacy_split_constraints(big.to_sparse_arrays())
    split_dense_seconds = (time.perf_counter() - start) / repetitions
    start = time.perf_counter()
    for _ in range(repetitions):
        split_constraints(big.to_matrices())
    split_sparse_seconds = (time.perf_counter() - start) / repetitions

    cold_nodes = cold.stats["nodes_explored"]
    node_reduction = legacy_nodes / max(cold_nodes, 1.0)
    time_speedup = legacy_seconds / max(cold_seconds, 1e-9)
    split_speedup = split_dense_seconds / max(split_sparse_seconds, 1e-9)

    # LP hot-path profile: the legacy loop solves exactly one relaxation per
    # explored node; the current path inherits child optima from the parent
    # solution where provably exact (lp_skipped) and batches the rest
    # (lp_batched), so it issues strictly fewer linprog calls.
    legacy_lp_calls = int(legacy_nodes)
    cold_lp_calls = int(cold.stats.get("lp_relaxations", 0))
    lp_call_reduction = legacy_lp_calls / max(cold_lp_calls, 1)

    # Presolve big-M histogram on the TATP Status-4 reproducer: row-max
    # |coefficient| magnitudes before vs after tightening + equilibration.
    tatp_presolved = presolve(_tatp_bigm_problem().model.to_matrices())
    assert not tatp_presolved.infeasible
    bigm_before = tatp_presolved.bigm_rowmax_before
    bigm_after = tatp_presolved.bigm_rowmax_after
    bigm_max_before = float(np.max(bigm_before)) if bigm_before.size else 0.0
    bigm_max_after = float(np.max(bigm_after)) if bigm_after.size else 0.0

    # Decomposed 1k-query regression run vs the archived decomposition seed.
    deco_seconds, deco_result = _decomposed_1k_run()
    deco_seed_seconds = _archived_decomposed_1k_seconds()
    assert deco_result is not None and deco_result.feasible

    report = {
        "workload": "figure4-style (60 tuples, 10 queries, Inc_1 window, seed 1)",
        "model": model.summary(),
        "legacy_dense_cold": {"nodes": int(legacy_nodes), "seconds": round(legacy_seconds, 6)},
        "sparse_presolve_cold": {
            "nodes": int(cold_nodes),
            "seconds": round(cold_seconds, 6),
            "presolve": {
                key.removeprefix("presolve_"): value
                for key, value in cold.stats.items()
                if key.startswith("presolve_")
            },
        },
        "split_constraints": {
            "model": big.summary(),
            "dense_loop_seconds": round(split_dense_seconds, 6),
            "sparse_vectorized_seconds": round(split_sparse_seconds, 6),
            "speedup": round(split_speedup, 3),
        },
        "node_reduction_legacy_vs_cold": round(node_reduction, 3),
        "wall_time_speedup_legacy_vs_cold": round(time_speedup, 3),
        "lp": {
            "legacy_lp_calls": legacy_lp_calls,
            "cold_lp_calls": cold_lp_calls,
            "lp_skipped": int(cold.stats.get("lp_skipped", 0)),
            "lp_batched": int(cold.stats.get("lp_batched", 0)),
            "lp_call_reduction": round(lp_call_reduction, 3),
        },
        "bigm": {
            "workload": "tatp (25 tuples, 8 queries, set-clause, seed 7), basic encoding",
            "rows": int(bigm_before.size),
            "tightened": int(tatp_presolved.stats.get("bigm_tightened", 0)),
            "scaled_rows": int(tatp_presolved.stats.get("bigm_scaled_rows", 0)),
            "max_rowmax_before": round(bigm_max_before, 3),
            "max_rowmax_after": round(bigm_max_after, 3),
            "histogram_before": _decade_histogram(bigm_before),
            "histogram_after": _decade_histogram(bigm_after),
        },
        "decomposed_1k": {
            "seconds": round(deco_seconds, 4),
            "seed_seconds": deco_seed_seconds,
            "seed_path": DECOMPOSITION_SEED_PATH if deco_seed_seconds is not None else None,
        },
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    # Acceptance gate: >= 2x node-count reduction or >= 2x wall time vs the
    # pre-PR dense/cold path on the diagnosis workload.
    assert node_reduction >= 2.0 or time_speedup >= 2.0, report
    # And the vectorized split must beat the per-row dense loop outright.
    assert split_speedup >= 2.0, report["split_constraints"]
    # Blocking: the LP hot path must issue at least 1.5x fewer relaxation
    # calls than the one-LP-per-node legacy loop on the figure4 workload.
    assert lp_call_reduction >= 1.5, report["lp"]
    # Blocking: presolve must actually defuse the ~2e5 big-M rows — after
    # tightening + equilibration no row magnitude may exceed the threshold.
    assert bigm_max_before > _EQUILIBRATION_THRESHOLD, report["bigm"]
    assert bigm_max_after <= _EQUILIBRATION_THRESHOLD + 1e-9, report["bigm"]
    # Blocking (when the archived seed exists): the decomposed 1k-query
    # repair must stay no worse than the BENCH_decomposition.json seed.  The
    # seed is ~30 ms, so the headroom multiplier absorbs machine noise while
    # still catching a real presolve-cost regression.
    if deco_seed_seconds is not None:
        assert deco_seconds <= max(3.0 * deco_seed_seconds, 0.25), report["decomposed_1k"]
