"""In-process execution strategies: ``serial`` and ``thread``.

Both run :meth:`DiagnosisEngine.submit` on the parent engine, so they share
its per-request error isolation (``submit`` never raises).  ``serial``
executes inline at submit time — zero scheduling overhead, deterministic
ordering, the right choice for tiny batches and debugging.  ``thread`` fans
out over one shared :class:`ThreadPoolExecutor`; it helps when solves
release the GIL (HiGHS spends its time inside native scipy code) but
serializes on CPU-bound pure-Python solves — that is what the ``process``
strategy is for.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.obs import trace as obs
from repro.parallel.base import BatchItem, Executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.types import DiagnosisResponse


class SerialExecutor(Executor):
    """Execute every item inline, in submission order."""

    name = "serial"

    def submit(self, item: BatchItem) -> "Future[DiagnosisResponse]":
        with obs.attached(item.trace):
            return self._completed(self.engine.submit(item.request))

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "max_workers": 1}


class ThreadExecutor(Executor):
    """Fan items out over a shared thread pool on the parent engine."""

    name = "thread"

    def __init__(self, max_workers: int) -> None:
        super().__init__()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        # A persistent executor is shared by every concurrent batch on its
        # engine (e.g. two simultaneous /v1/batch requests), so the lazy
        # pool creation must not race and leak a second pool's threads.
        self._pool_lock = threading.Lock()

    def submit(self, item: BatchItem) -> "Future[DiagnosisResponse]":
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="qfix-diagnose",
                )
            pool = self._pool
        return pool.submit(self._run, item)

    def _run(self, item: BatchItem) -> "DiagnosisResponse":
        # Pool threads have no scope stack of their own; adopt the batch's
        # trace context so engine/solver spans nest under the stream span.
        with obs.attached(item.trace):
            return self.engine.submit(item.request)

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "max_workers": self.max_workers}

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
