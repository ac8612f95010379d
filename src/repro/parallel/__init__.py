"""Pluggable batch execution: serial, thread, and process strategies.

This package is the scaling tier between :class:`repro.service.DiagnosisEngine`
and the hardware.  The engine describes *what* to diagnose; an
:class:`Executor` strategy decides *where* each request runs:

``serial``
    Inline, in order, on the calling thread.  Zero overhead; the baseline.
``thread``
    A shared thread pool.  Wins when solves release the GIL (HiGHS inside
    native scipy code); loses on the CPU-bound pure-Python branch-and-bound
    backend, where threads serialize on the GIL.
``process``
    Load-balanced worker processes (:mod:`repro.parallel.process`): each
    request goes to the shard with the fewest requests in flight, and among
    equally busy shards to the one its (diagnoser, config, log-fingerprint)
    key is affine to, whose warm-start LRU holds the key's previous
    solution; a crashing worker takes down only its own shard — in-flight
    neighbours are retried on a rebuilt pool.

All three are driven by one streaming scheduler
(:func:`~repro.parallel.scheduler.stream_batch`): a bounded in-flight window
(chunked submission, end-to-end backpressure) with results yielded as they
complete.  Strategies live in a registry mirroring the solver and diagnoser
registries, so deployments select one by name
(``DiagnosisEngine(executor="process")``, CLI ``--executor``, …) and new
strategies plug in via :func:`register_executor`.

Orthogonal to the batch strategies, :class:`ComponentScheduler`
(:mod:`repro.parallel.components`) parallelizes *within* a single request:
the decomposed solver path fans the independent components of one MILP over
a shared, bounded thread pool, so a single huge diagnosis can use every core
instead of only benefiting batch workloads.
"""

from repro.parallel.base import (
    BatchItem,
    Executor,
    WorkUnit,
    available_executors,
    get_executor,
    register_executor,
    validate_executor_name,
)
from repro.parallel.components import ComponentScheduler
from repro.parallel.local import SerialExecutor, ThreadExecutor
from repro.parallel.process import ProcessExecutor
from repro.parallel.scheduler import stream_batch

register_executor(SerialExecutor.name, lambda max_workers: SerialExecutor())
register_executor(ThreadExecutor.name, ThreadExecutor)
register_executor(ProcessExecutor.name, ProcessExecutor)

__all__ = [
    "BatchItem",
    "ComponentScheduler",
    "Executor",
    "WorkUnit",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_executors",
    "get_executor",
    "register_executor",
    "validate_executor_name",
    "stream_batch",
]
