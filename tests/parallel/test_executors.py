"""Executor registry, wiring validation, fallback, and crash isolation.

The regression focus: worker/executor validation must happen *at wiring
time* — engine construction, per-call overrides, the matrix entry point —
never after work has already been submitted, and an empty batch must not
silently skip it.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import ReproError
from repro.experiments import cli
from repro.parallel import (
    BatchItem,
    ProcessExecutor,
    SerialExecutor,
    available_executors,
    get_executor,
    register_executor,
)
from repro.parallel import process as process_module
from repro.service.engine import DiagnosisEngine
from repro.service.registry import register_diagnoser


# -- registry --------------------------------------------------------------------------


def test_builtin_strategies_are_registered():
    assert set(available_executors()) >= {"serial", "thread", "process"}


def test_get_executor_unknown_name_lists_available():
    with pytest.raises(ReproError, match="unknown executor 'bogus'.*serial"):
        get_executor("bogus")


def test_get_executor_rejects_zero_workers():
    with pytest.raises(ReproError, match="max_workers must be at least 1"):
        get_executor("thread", max_workers=0)


def test_duplicate_registration_is_rejected_unless_replaced():
    register_executor("dup-strategy", lambda n: SerialExecutor())
    with pytest.raises(ReproError, match="already registered"):
        register_executor("dup-strategy", lambda n: SerialExecutor())
    register_executor("dup-strategy", lambda n: SerialExecutor(), replace=True)


def test_executor_rejects_rebinding_to_another_engine():
    executor = SerialExecutor()
    executor.bind(DiagnosisEngine(max_workers=1))
    with pytest.raises(ReproError, match="already bound"):
        executor.bind(DiagnosisEngine(max_workers=1))


# -- unified wiring validation ---------------------------------------------------------


def test_engine_rejects_zero_workers_at_construction():
    with pytest.raises(ReproError, match="max_workers must be at least 1"):
        DiagnosisEngine(max_workers=0)


def test_engine_rejects_zero_inflight_at_construction():
    with pytest.raises(ReproError, match="max_inflight must be at least 1"):
        DiagnosisEngine(max_inflight=0)


def test_engine_rejects_unknown_executor_at_construction():
    with pytest.raises(ReproError, match="unknown executor 'bogus'"):
        DiagnosisEngine(executor="bogus")


def test_diagnose_batch_validates_workers_even_for_empty_batches():
    # Regression: validation used to happen only after the empty-input early
    # return, so a miswired max_workers=0 passed silently until real traffic.
    engine = DiagnosisEngine()
    with pytest.raises(ReproError, match="max_workers must be at least 1"):
        engine.diagnose_batch([], max_workers=0)
    with pytest.raises(ReproError, match="max_inflight must be at least 1"):
        engine.diagnose_batch([], max_inflight=0)
    with pytest.raises(ReproError, match="unknown executor 'bogus'"):
        engine.diagnose_batch([], executor="bogus")


def test_run_matrix_validates_workers_even_for_empty_matrices():
    engine = DiagnosisEngine()
    with pytest.raises(ReproError, match="max_workers must be at least 1"):
        engine.run_matrix({}, max_workers=0)


def test_diagnose_stream_validates_eagerly_not_at_first_iteration():
    engine = DiagnosisEngine()
    with pytest.raises(ReproError, match="max_workers must be at least 1"):
        engine.diagnose_stream([], max_workers=0)
    with pytest.raises(ReproError, match="unknown executor 'bogus'"):
        engine.diagnose_stream([], executor="bogus")


def test_engine_close_is_idempotent_and_engine_stays_usable(scenario_pool, make_request):
    engine = DiagnosisEngine(max_workers=2, executor="thread")
    request = make_request(scenario_pool[0], "after-close")
    assert engine.diagnose_batch([request, request])[0].ok
    engine.close()
    engine.close()
    # The next batch transparently rebuilds the executor.
    assert engine.diagnose_batch([request, request])[0].ok
    engine.close()


# -- CLI flag validation ---------------------------------------------------------------


def test_cli_rejects_bogus_executor():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["batch", "--input", "-", "--executor", "bogus"])
    assert excinfo.value.code == 2


def test_cli_batch_rejects_zero_workers(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["batch", "--input", str(empty), "--max-workers", "0"]) == 2
    assert cli.main(["batch", "--input", str(empty), "--max-inflight", "0"]) == 2


def test_cli_harness_rejects_zero_workers():
    assert cli.main(["harness", "--grid", "micro", "--max-workers", "0"]) == 2
    assert cli.main(["harness", "--grid", "micro", "--max-inflight", "0"]) == 2


# -- single-core fallback --------------------------------------------------------------


def test_process_executor_falls_back_on_single_core_and_warns_once(
    monkeypatch, scenario_pool, make_request
):
    monkeypatch.setattr(process_module, "_cpu_count", lambda: 1)
    monkeypatch.setattr(process_module, "_warned_single_core", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = ProcessExecutor(4)
        second = ProcessExecutor(4)
    relevant = [w for w in caught if "one CPU core" in str(w.message)]
    assert len(relevant) == 1, "the fallback must warn exactly once per process"
    assert first.describe()["fallback"] == "serial"

    # The fallen-back strategy still serves correct results, inline.
    engine = DiagnosisEngine(max_workers=4, executor=first)
    try:
        request = make_request(scenario_pool[0], "fallback-1")
        responses = engine.diagnose_batch([request, request, request])
        assert [r.request_id for r in responses] == ["fallback-1"] * 3
        assert all(r.ok for r in responses)
    finally:
        engine.close()
        second.close()


def test_process_executor_force_keeps_real_pools(monkeypatch):
    monkeypatch.setattr(process_module, "_cpu_count", lambda: 1)
    executor = ProcessExecutor(2, force=True)
    assert executor.describe()["fallback"] is None
    executor.close()


# -- shard routing ---------------------------------------------------------------------


def test_shard_routing_is_affine_and_balanced(scenario_pool, make_request):
    executor = ProcessExecutor(2, force=True)
    items = [
        BatchItem(index=i, request=make_request(scenario_pool[0], f"k{i}"), shard_key=f"key-{i % 4}")
        for i in range(16)
    ]
    shards = [executor._shard_for(item) for item in items]
    # Affine: equal keys always map to the same shard...
    for offset in range(4):
        assert len({shards[i] for i in range(offset, 16, 4)}) == 1
    # ...and distinct keys spread round-robin across shards.
    assert sorted({shards[i] for i in range(4)}) == [0, 1]
    executor.close()


class _StubPool:
    """A shard pool whose futures resolve only when the test says so."""

    def __init__(self) -> None:
        self.units: list = []
        self.shut_down = False

    def submit(self, fn, unit):
        self.units.append(unit)
        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


def test_load_routing_diverts_from_a_busy_affine_shard(scenario_pool, make_request):
    executor = ProcessExecutor(2, force=True)
    pools = [_StubPool(), _StubPool()]
    executor._pools = list(pools)
    executor._router.shard_for("first-seen")  # deals "hot" the affine shard 1
    request = make_request(scenario_pool[0], "hot")

    def item(index):
        return BatchItem(index=index, request=request, shard_key="hot")

    first = item(0)
    first_future = executor.submit(first)
    assert first.shard == 1
    # The affine shard has a unit in flight and shard 0 is idle: divert.
    second = item(1)
    second_future = executor.submit(second)
    assert second.shard == 0
    assert [unit.index for unit in pools[1].units] == [0]
    assert [unit.index for unit in pools[0].units] == [1]

    # Once the affine shard drains, the key goes back to it...
    first_future.set_result(None)
    third = item(2)
    third_future = executor.submit(third)
    assert third.shard == 1
    # ...and with one unit in flight on each shard it keeps the affine
    # shard rather than the lowest-numbered one.
    fourth = item(3)
    fourth_future = executor.submit(fourth)
    assert fourth.shard == 1

    # The diverted unit dies with its worker once the affine shard is idle
    # again: the pool it ran on is the one discarded, not the pool routing
    # would pick for its key now.
    third_future.set_result(None)
    fourth_future.set_result(None)
    crash = BrokenProcessPool("worker died")
    second_future.set_exception(crash)
    assert executor.retryable(second, crash)
    assert pools[0].shut_down and executor._pools[0] is None
    assert not pools[1].shut_down and executor._pools[1] is pools[1]
    executor.close()


def test_inflight_counts_survive_concurrent_submits_and_completions(
    scenario_pool, make_request
):
    executor = ProcessExecutor(2, force=True)
    executor._pools = [_StubPool(), _StubPool()]
    request = make_request(scenario_pool[0], "stress")

    def hammer(thread: int) -> None:
        for index in range(150):
            item = BatchItem(index=index, request=request, shard_key=f"k{thread % 3}")
            executor.submit(item).set_result(None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # Every completion was counted off the shard it was counted onto.
    assert executor._inflight == [0, 0]
    assert sum(len(pool.units) for pool in executor._pools) == 8 * 150
    executor.close()


# -- worker-crash isolation ------------------------------------------------------------


class _KamikazeDiagnoser:
    """Kills its worker process outright — the harshest possible poison."""

    name = "kamikaze-executor-test"

    def diagnose(self, *args, **kwargs):  # pragma: no cover - dies in workers
        os._exit(13)


register_diagnoser(_KamikazeDiagnoser.name, _KamikazeDiagnoser)


def test_worker_crash_fails_alone_and_pool_recovers(scenario_pool, make_request):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("test-registered diagnosers only reach workers under fork")
    engine = DiagnosisEngine(max_workers=2, executor=ProcessExecutor(2, force=True))
    try:
        requests = [
            make_request(scenario_pool[0], "clean-0"),
            make_request(scenario_pool[0], "boom", diagnoser=_KamikazeDiagnoser.name),
            make_request(scenario_pool[1], "clean-1"),
            make_request(scenario_pool[2], "clean-2"),
            make_request(scenario_pool[3], "clean-3"),
        ]
        responses = {r.request_id: r for r in engine.diagnose_batch(requests)}
        assert len(responses) == 5
        assert not responses["boom"].ok
        assert responses["boom"].error_type == "BrokenProcessPool"
        for request_id in ("clean-0", "clean-1", "clean-2", "clean-3"):
            assert responses[request_id].ok, request_id

        # The shard pools were rebuilt: a follow-up clean batch is all-ok.
        followup = engine.diagnose_batch(
            [make_request(scenario_pool[i % 5], f"again-{i}") for i in range(6)]
        )
        assert all(r.ok for r in followup)
    finally:
        engine.close()
