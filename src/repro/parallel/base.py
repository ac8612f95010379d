"""Execution strategies: the :class:`Executor` abstraction and its registry.

The diagnosis engine fans batch work out through a pluggable *execution
strategy*, mirroring the solver and diagnoser registries: strategies register
a factory under a short name (``serial``, ``thread``, ``process``) and the
engine instantiates one per configuration.  The split matters because the
pure-Python branch-and-bound backend is CPU-bound — threads serialize on the
GIL, so real batch throughput needs processes — while tiny batches and tests
want the zero-overhead serial path.

The moving parts:

* :class:`BatchItem` — one request as the *scheduler* sees it: the live
  :class:`~repro.service.types.DiagnosisRequest` plus its input position and
  the shard it was submitted to.  Local strategies execute it directly.
* :class:`WorkUnit` — the picklable envelope the *process* strategy ships to
  a worker: the serialized request payload (JSON-native, via
  ``DiagnosisRequest.to_dict``), the engine's default config payload being
  implicit in the worker initializer.
* :class:`Executor` — ``submit(item) -> Future`` plus lifecycle hooks.  The
  scheduler (:mod:`repro.parallel.scheduler`) drives any strategy through the
  same bounded-window streaming loop.

Strategies are bound to an engine with :meth:`Executor.bind` before first
use; binding twice to different engines is an error (an executor owns
per-engine state such as pools).
"""

from __future__ import annotations

import abc
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.engine import DiagnosisEngine
    from repro.service.types import DiagnosisRequest, DiagnosisResponse


@dataclass
class BatchItem:
    """One scheduled request: position, payload, shard, and retry state."""

    #: Position in the input batch (responses are re-ordered by this).
    index: int
    #: The live request object (local strategies execute it directly).
    request: "DiagnosisRequest"
    #: The shard the process strategy actually submitted the item to.
    shard: int | None = None
    #: Submission attempts so far (bounded retry after a worker crash).
    attempts: int = 0
    #: Trace context (:class:`repro.obs.trace.ContextHandle`) when the batch
    #: runs inside a sampled trace; executors attach worker-side spans to it.
    trace: Any = None

    @property
    def request_id(self) -> str:
        return self.request.request_id


@dataclass
class WorkUnit:
    """The picklable envelope shipped to a process-pool worker.

    Everything here is pickle-safe by construction: ``payload`` is the
    JSON-native ``DiagnosisRequest.to_dict()`` form (the per-request config
    override rides inside it) and ``shard`` is the resolved shard index.
    The worker-side engine's *default* config is shipped once per worker
    through the pool initializer, not per unit.
    """

    index: int
    request_id: str
    payload: dict[str, Any]
    shard: int = 0
    #: Picklable trace context (``{trace_id, parent_span_id}``) so the worker
    #: process continues the parent's trace across the pickle boundary.
    trace_context: dict[str, str] | None = field(default=None)


class Executor(abc.ABC):
    """One execution strategy behind :meth:`DiagnosisEngine.diagnose_batch`.

    Lifecycle: construct → :meth:`bind` to an engine → any number of
    :meth:`submit` calls (driven by the scheduler) → :meth:`close`.
    """

    #: Registry name; subclasses override.
    name: str = "?"

    def __init__(self) -> None:
        self._engine: "DiagnosisEngine | None" = None

    @property
    def engine(self) -> "DiagnosisEngine":
        if self._engine is None:
            raise ReproError(
                f"executor '{self.name}' is not bound to an engine; "
                "call bind(engine) first"
            )
        return self._engine

    def bind(self, engine: "DiagnosisEngine") -> "Executor":
        """Attach the engine this executor serves; idempotent per engine."""
        if self._engine is not None and self._engine is not engine:
            raise ReproError(
                f"executor '{self.name}' is already bound to a different engine"
            )
        self._engine = engine
        return self

    @abc.abstractmethod
    def submit(self, item: BatchItem) -> "Future[DiagnosisResponse]":
        """Schedule one item; the returned future resolves to its response."""

    def retryable(self, item: BatchItem, error: BaseException) -> bool:
        """Whether ``error`` warrants resubmitting ``item`` (e.g. a worker
        crash that broke a pool out from under innocent neighbours)."""
        return False

    def describe(self) -> dict[str, Any]:
        """Introspection payload for logs / benchmark reports."""
        return {"name": self.name}

    def close(self) -> None:
        """Release pools and worker processes; safe to call repeatedly."""

    # -- plumbing ------------------------------------------------------------------

    @staticmethod
    def _completed(response: "DiagnosisResponse") -> "Future[DiagnosisResponse]":
        future: "Future[DiagnosisResponse]" = Future()
        future.set_result(response)
        return future

    @staticmethod
    def _failed(error: BaseException) -> "Future[DiagnosisResponse]":
        future: "Future[DiagnosisResponse]" = Future()
        future.set_exception(error)
        return future


# -- the registry ----------------------------------------------------------------------

#: ``factory(max_workers) -> Executor``
ExecutorFactory = Callable[[int], Executor]

_FACTORIES: Dict[str, ExecutorFactory] = {}


def register_executor(
    name: str, factory: ExecutorFactory, *, replace: bool = False
) -> None:
    """Register an execution strategy under ``name``.

    Mirrors the diagnoser registry: re-registering an existing name raises
    :class:`ReproError` unless ``replace=True`` — silently swapping the
    strategy production traffic runs on would be invisible otherwise.
    """
    if name in _FACTORIES and not replace:
        raise ReproError(
            f"executor '{name}' is already registered; pass replace=True to override"
        )
    _FACTORIES[name] = factory


def available_executors() -> tuple[str, ...]:
    """Names of the registered execution strategies, sorted."""
    return tuple(sorted(_FACTORIES))


def get_executor(name: str, *, max_workers: int = 1) -> Executor:
    """Instantiate an execution strategy by name.

    Raises :class:`ReproError` for unknown names, listing what is available,
    and for a non-positive ``max_workers`` — both *before* any work is
    submitted, so a misconfigured deployment fails at wiring time.
    """
    if max_workers < 1:
        raise ReproError("max_workers must be at least 1")
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown executor '{name}'; available: {', '.join(available_executors())}"
        ) from None
    return factory(max_workers)


def validate_executor_name(name: str) -> str:
    """Check ``name`` is registered (without instantiating); returns it."""
    if name not in _FACTORIES:
        raise ReproError(
            f"unknown executor '{name}'; available: {', '.join(available_executors())}"
        )
    return name
