"""The ``process`` execution strategy: load-balanced worker processes.

Why processes: the branch-and-bound MILP backend is pure Python, so a
CPU-bound batch on threads serializes on the GIL and throughput stays
single-core no matter the pool width.  Worker *processes* sidestep the GIL —
each solves on its own core — at the price of pickling the work across the
boundary.

Routing: the strategy keeps **one single-worker pool per shard** and counts
the units each shard has in flight, from submit until the unit's future
completes.  A unit goes to the shard with the fewest units in flight, ties
going to shard ``index % shards`` (``index`` is the unit's position in its
batch), so every core stays busy however the expensive requests of a batch
are spread.  Workers keep nothing from one unit to the next, so no request
gains from landing on the shard that served it before.  The shard a unit
was actually submitted to is recorded on its
:class:`~repro.parallel.base.BatchItem`.

Worker lifecycle and crash isolation:

* each worker initializes one private :class:`DiagnosisEngine` from the
  parent engine's default config (shipped once through the pool initializer,
  as a JSON payload so it pickles under any start method);
* a unit is a picklable :class:`~repro.parallel.base.WorkUnit` — serialized
  request in, full :class:`DiagnosisResponse` out (responses that cannot
  pickle, e.g. a custom diagnoser's exotic ``result``, are returned with the
  in-process ``result`` stripped rather than poisoning the channel);
* a worker crash (hard exit, OOM kill) breaks only its own shard's pool: the
  scheduler rebuilds the pool the units ran on and retries its in-flight
  units once, so innocent neighbours of a poisoned request survive, while the
  poisoned request itself fails cleanly on its second crash.

On a single-core machine process fan-out cannot win (there is no second core
to use and every unit still pays serialization), so the strategy warns once
and degrades to inline serial execution; pass ``force=True`` to keep real
worker pools anyway (tests do, to exercise the real path everywhere).
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from repro.obs import logs as obs_logs
from repro.obs import trace as obs
from repro.parallel.base import BatchItem, Executor, WorkUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.types import DiagnosisResponse

#: Emit the single-core fallback warning only once per process.
_warned_single_core = False
_warn_lock = threading.Lock()


def _cpu_count() -> int:
    count = os.cpu_count()
    return count if count is not None else 1


def _warn_single_core_once() -> None:
    global _warned_single_core
    with _warn_lock:
        if _warned_single_core:
            return
        _warned_single_core = True
    obs_logs.get_logger("parallel").warning(
        "process executor found one CPU core; degrading to serial execution"
    )
    warnings.warn(
        "the 'process' executor found only one CPU core; falling back to "
        "serial in-process execution (pass force=True to keep worker pools)",
        RuntimeWarning,
        stacklevel=3,
    )


# -- worker-side state -----------------------------------------------------------------

#: The per-worker engine, created once by the pool initializer.  Workers are
#: single-purpose processes, so a module global (not a pool) is the idiom.
_WORKER_ENGINE: "Any | None" = None


def _init_worker(config_payload: dict[str, Any] | None) -> None:
    """Pool initializer: build this worker's private engine once.

    ``config_payload`` is the parent engine's default config in the
    JSON-native ``config_to_dict`` form — already proven picklable, and
    immune to start-method differences (``fork`` vs ``spawn``).
    """
    global _WORKER_ENGINE
    from repro.service.engine import DiagnosisEngine
    from repro.service.serialize import config_from_dict

    config = config_from_dict(config_payload) if config_payload is not None else None
    _WORKER_ENGINE = DiagnosisEngine(config=config, max_workers=1, executor="serial")


def _worker_engine() -> "Any":
    """The worker's engine, building a default one if the initializer never ran."""
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:  # pragma: no cover - defensive, initializer races
        _init_worker(None)
    return _WORKER_ENGINE


def _run_unit(unit: WorkUnit) -> "DiagnosisResponse":
    """Execute one shipped unit in the worker; never raises.

    Decoding failures and diagnosis failures alike become ``ok=False``
    responses (the engine's isolation contract), so the only exceptions that
    can cross the pool boundary are catastrophic ones — a dead worker.
    """
    from repro.service.types import DiagnosisRequest, DiagnosisResponse

    engine = _worker_engine()
    try:
        request = DiagnosisRequest.from_dict(unit.payload)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return DiagnosisResponse.from_error(unit.request_id, "", error)
    with obs.remote_context(unit.trace_context) as collector:
        response = engine.submit(request)
    response.trace_spans = collector.export()
    try:
        pickle.dumps(response)
    except Exception:  # noqa: BLE001 - exotic custom-diagnoser results
        # The portable fields carry everything a remote caller needs; only
        # the in-process RepairResult is dropped.
        response.result = None
    return response


# -- the strategy ----------------------------------------------------------------------


class ProcessExecutor(Executor):
    """Process fan-out over one single-worker pool per shard, routed by load."""

    name = "process"

    #: One retry on a rebuilt pool after a worker crash.
    MAX_ATTEMPTS = 2

    def __init__(self, max_workers: int, *, force: bool = False) -> None:
        super().__init__()
        self.max_workers = max_workers
        self._fallback = _cpu_count() <= 1 and not force
        if self._fallback:
            _warn_single_core_once()
        self._pools: list[ProcessPoolExecutor | None] = [None] * max_workers
        self._pools_lock = threading.Lock()
        self._config_payload: dict[str, Any] | None = None
        # Units submitted to each shard whose futures have not completed.
        self._inflight = [0] * max_workers
        self._inflight_lock = threading.Lock()

    def bind(self, engine: "Any") -> "ProcessExecutor":
        super().bind(engine)
        from repro.service.serialize import config_to_dict

        self._config_payload = config_to_dict(engine.config)
        return self

    # -- shard pools ---------------------------------------------------------------

    def _shard_for(self, item: BatchItem) -> int:
        """The shard with the fewest units in flight, ties to ``index % shards``."""
        default = item.index % self.max_workers
        load = self._inflight
        least = min(range(self.max_workers), key=load.__getitem__)
        return least if load[least] < load[default] else default

    def _claim(self, item: BatchItem) -> int:
        """Route ``item`` and count it in flight on the chosen shard."""
        with self._inflight_lock:
            shard = self._shard_for(item)
            self._inflight[shard] += 1
        item.shard = shard
        return shard

    def _release(self, shard: int) -> None:
        # A done callback: it runs just after the future's waiters wake, so
        # a submit racing it may still count the unit; that costs balance
        # for one routing decision, never a result.
        with self._inflight_lock:
            self._inflight[shard] -= 1

    def _pool(self, shard: int) -> ProcessPoolExecutor:
        with self._pools_lock:
            pool = self._pools[shard]
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_init_worker,
                    initargs=(self._config_payload,),
                )
                self._pools[shard] = pool
            return pool

    def _discard_pool(self, shard: int) -> None:
        """Drop a broken shard pool so the next submit rebuilds it."""
        with self._pools_lock:
            pool = self._pools[shard]
            self._pools[shard] = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- Executor API --------------------------------------------------------------

    def submit(self, item: BatchItem) -> "Future[DiagnosisResponse]":
        item.attempts += 1
        if self._fallback:
            with obs.attached(item.trace):
                return self._completed(self.engine.submit(item.request))
        trace_context = (
            {
                "trace_id": item.trace.trace_id,
                "parent_span_id": item.trace.parent_span_id,
            }
            if item.trace is not None
            else None
        )
        try:
            payload = item.request.to_dict()
        except Exception as error:  # noqa: BLE001 - unserializable request
            return self._failed(error)
        retry = item.attempts > 1
        # A crash retry runs quarantined (below), on no shard's pool.
        shard = item.shard if retry else self._claim(item)
        unit = WorkUnit(
            index=item.index,
            request_id=item.request_id,
            payload=payload,
            shard=shard,
            trace_context=trace_context,
        )
        if retry:
            # Crash retry: quarantine it on a throwaway single-use pool.  A
            # poisoned request that crashed its shard would otherwise crash
            # the rebuilt pool too, taking its innocent (retried) neighbours
            # down with it a second time and exhausting their attempts.
            quarantine = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self._config_payload,),
            )
            future = quarantine.submit(_run_unit, unit)
            future.add_done_callback(lambda _: quarantine.shutdown(wait=False))
            return future
        try:
            future = self._submit_to(shard, unit)
        except BaseException:
            self._release(shard)
            raise
        future.add_done_callback(lambda _: self._release(shard))
        return future

    def _submit_to(self, shard: int, unit: WorkUnit) -> "Future[DiagnosisResponse]":
        try:
            return self._pool(shard).submit(_run_unit, unit)
        except BrokenProcessPool:
            # The pool broke between batches (a worker died idle); rebuild
            # once and resubmit — this is wiring recovery, not a unit retry.
            self._discard_pool(shard)
            return self._pool(shard).submit(_run_unit, unit)

    def retryable(self, item: BatchItem, error: BaseException) -> bool:
        if not isinstance(error, BrokenProcessPool):
            return False
        if item.attempts == 1:
            # The crash broke the pool the item was submitted to; rebuild it
            # so retries and everything queued behind them land on a fresh
            # worker.
            self._discard_pool(item.shard)
        # attempts >= 2 means the crash happened on the item's *quarantine*
        # pool — the shard pool was already rebuilt and may be serving
        # innocent fresh units, so it must not be torn down again.
        return item.attempts < self.MAX_ATTEMPTS

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "max_workers": self.max_workers,
            "shards": self.max_workers,
            "fallback": "serial" if self._fallback else None,
            "cpu_count": _cpu_count(),
        }

    def close(self) -> None:
        with self._pools_lock:
            pools, self._pools = self._pools, [None] * self.max_workers
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
