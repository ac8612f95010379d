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


def test_units_go_to_the_least_busy_shard_ties_to_index(scenario_pool, make_request):
    executor = ProcessExecutor(2, force=True)
    pools = [_StubPool(), _StubPool()]
    executor._pools = list(pools)
    request = make_request(scenario_pool[0], "routed")

    def submit(index):
        item = BatchItem(index=index, request=request)
        return item, executor.submit(item)

    # Both shards idle: the tie goes to index % shards.
    first, first_future = submit(0)
    assert first.shard == 0
    # Shard 0 has a unit in flight and shard 1 is idle: index 2 is diverted.
    second, second_future = submit(2)
    assert second.shard == 1
    assert [unit.index for unit in pools[0].units] == [0]
    assert [unit.index for unit in pools[1].units] == [2]

    # Once shard 0 drains, index 4 goes back to it...
    first_future.set_result(None)
    third, third_future = submit(4)
    assert third.shard == 0
    # ...and with one unit in flight on each shard, index 5 keeps shard 1
    # rather than the lowest-numbered one.
    fourth, fourth_future = submit(5)
    assert fourth.shard == 1
    assert executor._inflight == [1, 2]
    third_future.set_result(None)
    fourth_future.set_result(None)
    assert executor._inflight == [0, 1]
    executor.close()


def test_crash_retry_discards_the_pool_the_unit_ran_on(scenario_pool, make_request):
    executor = ProcessExecutor(2, force=True)
    pools = [_StubPool(), _StubPool()]
    executor._pools = list(pools)
    request = make_request(scenario_pool[0], "crashing")
    busy = BatchItem(index=0, request=request)
    busy_future = executor.submit(busy)
    # Index 2 would default to shard 0, but shard 0 is busy.
    diverted = BatchItem(index=2, request=request)
    diverted_future = executor.submit(diverted)
    assert (busy.shard, diverted.shard) == (0, 1)

    # The diverted unit dies with its worker once shard 0 is idle again: the
    # pool it ran on is the one discarded, not the pool its index points at.
    busy_future.set_result(None)
    crash = BrokenProcessPool("worker died")
    diverted_future.set_exception(crash)
    assert executor.retryable(diverted, crash)
    assert pools[1].shut_down and executor._pools[1] is None
    assert not pools[0].shut_down and executor._pools[0] is pools[0]
    executor.close()


def test_inflight_counts_survive_concurrent_submits_and_completions(
    scenario_pool, make_request
):
    executor = ProcessExecutor(2, force=True)
    executor._pools = [_StubPool(), _StubPool()]
    request = make_request(scenario_pool[0], "stress")

    def hammer() -> None:
        for index in range(150):
            item = BatchItem(index=index, request=request)
            executor.submit(item).set_result(None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
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
