"""The diagnosis engine: config/solver wiring, request handling, batching.

:class:`DiagnosisEngine` is the service-grade entry point the ROADMAP's
production system is built around.  It owns the default configuration and
solver wiring and exposes three call shapes:

* :meth:`diagnose` — the in-process path: domain objects in,
  :class:`RepairResult` out, exceptions propagate.  ``QFix`` is a thin facade
  over this method.
* :meth:`submit` — the service path: a :class:`DiagnosisRequest` in, a
  :class:`DiagnosisResponse` out.  Never raises; failures are captured in the
  response (``ok=False``) so one bad request cannot take down a serving loop.
* :meth:`diagnose_batch` — executor-tier fan-out of :meth:`submit` over many
  independent requests, preserving input order.  Because each submit builds
  its own solver instance (unless the engine was constructed with an explicit
  shared solver), requests are fully isolated from each other.
* :meth:`diagnose_stream` — the same fan-out, but yielding ``(index,
  response)`` pairs *as they complete* under a bounded in-flight window, so a
  huge batch streams instead of barriering.

Where the work actually runs is pluggable (:mod:`repro.parallel`): the
``executor`` argument selects ``serial`` (inline), ``thread`` (the historical
thread pool — fine when solves release the GIL), or ``process``
(load-balanced worker processes for the CPU-bound pure-Python solver, where
threads would serialize on the GIL).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.complaints import ComplaintSet
from repro.core.config import QFixConfig
from repro.core.repair import RepairResult
from repro.db.database import Database
from repro.exceptions import ReproError
from repro.milp.solvers.base import accepts_keyword
from repro.milp.solvers import DecomposingSolver, Solver, get_solver
from repro.obs import trace as obs
from repro.parallel import (
    BatchItem,
    ComponentScheduler,
    Executor,
    get_executor,
    stream_batch,
    validate_executor_name,
)
from repro.queries.log import QueryLog
from repro.service.registry import get_diagnoser
from repro.service.types import DiagnosisRequest, DiagnosisResponse


class DiagnosisEngine:
    """Owns solver/config wiring and serves diagnosis requests.

    Parameters
    ----------
    config:
        Default configuration for requests that carry no override.  Defaults
        to :meth:`QFixConfig.fully_optimized`.
    solver:
        Optional explicit solver instance shared by every request.  When
        omitted (the default), a fresh backend is instantiated per request
        from the effective config — the safe choice for
        :meth:`diagnose_batch`, where requests run on worker threads.
    max_workers:
        Default fan-out width for :meth:`diagnose_batch` (per-call override
        still possible): the thread-pool size for the ``thread`` strategy,
        the shard/worker-process count for ``process``.  Deployment surfaces
        (the CLI ``batch`` and ``serve`` commands) configure concurrency
        here, once, instead of threading a pool size through every call site.
    executor:
        Execution strategy for batch work, by registry name (``"serial"``,
        ``"thread"``, ``"process"`` — see :mod:`repro.parallel`) or as a
        pre-built :class:`~repro.parallel.Executor` instance.  Validated at
        construction time, instantiated lazily on first batch.
    max_inflight:
        Default bound on in-flight batch items (backpressure window for
        :meth:`diagnose_stream` / :meth:`diagnose_batch`).  ``None`` means
        twice the effective worker count.
    """

    def __init__(
        self,
        config: QFixConfig | None = None,
        solver: Solver | None = None,
        *,
        max_workers: int = 4,
        executor: "str | Executor" = "thread",
        max_inflight: int | None = None,
    ) -> None:
        self._validate_workers(max_workers)
        self._validate_inflight(max_inflight)
        if isinstance(executor, str):
            validate_executor_name(executor)
        self.config = config if config is not None else QFixConfig.fully_optimized()
        self.max_workers = max_workers
        self.max_inflight = max_inflight
        self._executor_spec: "str | Executor" = executor
        # Persistent executors keyed by (strategy name, workers): process
        # shards — and their worker-local warm caches — survive across
        # batches, including batches that override the engine's defaults
        # (the harness's warm second pass depends on this).
        self._executors: dict[tuple[str, int], Executor] = {}
        self._executor_lock = threading.Lock()
        # Intra-request fan-out for decomposed solves, created lazily on the
        # first request with ``config.decompose`` and shared by all of them
        # (one pool per engine, sized like the batch tier).
        self._component_scheduler: ComponentScheduler | None = None
        self._shared_solver = solver
        # Warm-start cache: (diagnoser, config, log/complaint fingerprint)
        # -> solver assignment of the last feasible repair.  Re-solving the
        # same encoding then starts from the previous repair instead of
        # ``-inf``; a stale hit is harmless (hints are validated before use).
        self._warm_lock = threading.Lock()
        self._warm_cache: "OrderedDict[Hashable, dict[str, float]]" = OrderedDict()
        self._warm_hits = 0
        self._warm_misses = 0

    def _solver_for(self, config: QFixConfig) -> Solver:
        if self._shared_solver is not None:
            return self._shared_solver
        if config.decompose:
            return DecomposingSolver(
                inner=config.solver,
                time_limit=config.time_limit,
                mip_gap=config.mip_gap,
                use_presolve=config.use_presolve,
                scheduler=self._acquire_component_scheduler(),
            )
        return get_solver(
            config.solver,
            time_limit=config.time_limit,
            mip_gap=config.mip_gap,
            use_presolve=config.use_presolve,
        )

    def _acquire_component_scheduler(self) -> ComponentScheduler:
        with self._executor_lock:
            if self._component_scheduler is None:
                self._component_scheduler = ComponentScheduler(
                    max_workers=self.max_workers,
                    max_inflight=self._resolve_inflight(None, self.max_workers),
                )
            return self._component_scheduler

    # -- concurrency wiring ------------------------------------------------------

    @staticmethod
    def _validate_workers(value: int) -> None:
        """One home for the worker-count invariant, checked at wiring time —
        constructor, per-call override, matrix entry point — never after work
        has already been submitted."""
        if value < 1:
            raise ReproError("max_workers must be at least 1")

    @staticmethod
    def _validate_inflight(value: int | None) -> None:
        if value is not None and value < 1:
            raise ReproError("max_inflight must be at least 1")

    def _resolve_workers(self, override: int | None) -> int:
        workers = override if override is not None else self.max_workers
        self._validate_workers(workers)
        return workers

    def _resolve_inflight(self, override: int | None, workers: int) -> int:
        self._validate_inflight(override)
        window = override if override is not None else self.max_inflight
        return window if window is not None else 2 * workers

    @property
    def executor_name(self) -> str:
        """Registry name of the configured execution strategy."""
        spec = self._executor_spec
        return spec if isinstance(spec, str) else spec.name

    def _acquire_executor(self, spec: "str | Executor | None", workers: int) -> Executor:
        """Resolve the executor for one batch, reusing persistent instances.

        Executors are cached per (strategy, workers) — including per-call
        overrides — so repeated batches with the same wiring reuse the same
        pools, worker processes, and worker-local warm caches.  Everything
        cached is released by :meth:`close`.
        """
        if spec is None:
            spec = self._executor_spec
        if isinstance(spec, Executor):
            return spec.bind(self)
        validate_executor_name(spec)
        key = (spec, workers)
        with self._executor_lock:
            executor = self._executors.get(key)
            if executor is None:
                executor = get_executor(spec, max_workers=workers).bind(self)
                self._executors[key] = executor
            return executor

    def close(self) -> None:
        """Release the persistent executors (worker processes, pools).

        Safe to call repeatedly; the engine remains usable afterwards (the
        next batch simply rebuilds its executor).
        """
        with self._executor_lock:
            executors = list(self._executors.values())
            self._executors.clear()
            scheduler, self._component_scheduler = self._component_scheduler, None
        for executor in executors:
            executor.close()
        if scheduler is not None:
            scheduler.close()
        if isinstance(self._executor_spec, Executor):
            self._executor_spec.close()

    def __enter__(self) -> "DiagnosisEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- warm-start cache --------------------------------------------------------

    #: Maximum number of cached warm starts (LRU-evicted beyond this).
    WARM_CACHE_MAX = 64

    def _warm_lookup(self, key: Hashable) -> dict[str, float] | None:
        with self._warm_lock:
            values = self._warm_cache.get(key)
            if values is None:
                self._warm_misses += 1
                return None
            self._warm_cache.move_to_end(key)
            self._warm_hits += 1
            return dict(values)

    def _warm_store(self, key: Hashable, values: Mapping[str, float]) -> None:
        if not values:
            return
        with self._warm_lock:
            self._warm_cache[key] = dict(values)
            self._warm_cache.move_to_end(key)
            while len(self._warm_cache) > self.WARM_CACHE_MAX:
                self._warm_cache.popitem(last=False)

    def _warm_peek(self, key: Hashable) -> dict[str, float] | None:
        """Read the cache without touching the hit/miss counters.

        Used when *shipping* hints to process workers: the worker's own
        lookup is the one that should count, not the parent's peek.
        """
        with self._warm_lock:
            values = self._warm_cache.get(key)
            return dict(values) if values is not None else None

    def warm_cache_info(self) -> dict[str, int]:
        """Warm-start cache statistics (size, hits, misses)."""
        with self._warm_lock:
            return {
                "size": len(self._warm_cache),
                "hits": self._warm_hits,
                "misses": self._warm_misses,
            }

    def warm_key(self, request: DiagnosisRequest) -> Hashable:
        """The warm-cache / shard-routing key for ``request``.

        Identical to the key :meth:`diagnose` uses internally — (resolved
        diagnoser name, effective config, log+complaint fingerprint) — so
        shard-affine executors route repeats of a request to the worker whose
        local cache holds its previous solution.
        """
        config = request.config if request.config is not None else self.config
        name = request.diagnoser if request.diagnoser is not None else config.diagnoser
        return (name, config, diagnosis_fingerprint(request.log, request.complaints))

    def seed_warm(self, request: DiagnosisRequest, values: Mapping[str, float]) -> None:
        """Pre-load the warm cache for ``request`` (hint shipped from afar).

        A later :meth:`submit` of the same request starts from ``values``.
        Bad hints are harmless — solvers validate them before seeding an
        incumbent — so callers may forward hints speculatively.
        """
        self._warm_store(self.warm_key(request), values)

    # -- in-process path ---------------------------------------------------------

    def diagnose(
        self,
        initial: Database,
        final: Database,
        log: QueryLog,
        complaints: ComplaintSet,
        *,
        diagnoser: str | None = None,
        config: QFixConfig | None = None,
        solver: Solver | None = None,
        warm_key: Hashable | None = None,
    ) -> RepairResult:
        """Run one diagnosis and return the :class:`RepairResult`.

        ``diagnoser`` overrides the config's ``diagnoser`` field; both default
        to ``"auto"``.  ``solver`` overrides the engine's solver wiring for
        this call (the ``QFix`` facade uses this to keep its historical
        one-solver-per-instance behaviour).  Exceptions propagate to the
        caller — use :meth:`submit` for the never-raises service path.

        The engine keeps a bounded warm-start cache: a repeat diagnosis of
        the same (log, complaints, config) hands the previous repair's solver
        assignment to the diagnoser as an incumbent hint.  ``warm_key`` lets
        long-lived callers (sessions) supply a cheap pre-computed cache key
        instead of paying the log fingerprint on every call.
        """
        effective = config if config is not None else self.config
        name = diagnoser if diagnoser is not None else effective.diagnoser
        if complaints.is_empty():
            raise ReproError("the complaint set is empty; nothing to diagnose")
        algorithm = get_diagnoser(name)
        cache_key = (
            name,
            effective,
            warm_key if warm_key is not None else diagnosis_fingerprint(log, complaints),
        )
        warm_start = self._warm_lookup(cache_key)
        with obs.span(
            "engine.diagnose",
            diagnoser=name,
            solver=effective.solver,
            queries=len(log),
            complaints=len(complaints),
            warm_hit=warm_start is not None,
        ) as diag_span:
            result = _call_diagnoser(
                algorithm,
                initial,
                final,
                log,
                complaints,
                config=effective,
                solver=solver if solver is not None else self._solver_for(effective),
                warm_start=warm_start,
            )
            diag_span.set_attribute("feasible", result.feasible)
            diag_span.set_attribute("status", result.status.value)
        if result.feasible and result.solution_values:
            self._warm_store(cache_key, result.solution_values)
        return result

    # -- service path ------------------------------------------------------------

    def submit(self, request: DiagnosisRequest) -> DiagnosisResponse:
        """Handle one request, capturing any failure in the response.

        The returned response echoes ``request.request_id``.  ``ok=False``
        responses carry the exception type and message instead of a repair.
        """
        start = time.perf_counter()
        config = request.config if request.config is not None else self.config
        name = request.diagnoser if request.diagnoser is not None else config.diagnoser
        with obs.maybe_trace(
            "engine.submit", request_id=request.request_id, diagnoser=name
        ) as submit_span:
            try:
                final = request.resolved_final()
                result = self.diagnose(
                    request.initial,
                    final,
                    request.log,
                    request.complaints,
                    diagnoser=name,
                    config=config,
                )
            except Exception as error:  # noqa: BLE001 - isolation boundary
                submit_span.set_status("error")
                submit_span.set_attribute("error_type", type(error).__name__)
                return DiagnosisResponse.from_error(
                    request.request_id,
                    name,
                    error,
                    elapsed_seconds=time.perf_counter() - start,
                )
            submit_span.set_attribute("feasible", result.feasible)
        return DiagnosisResponse.from_result(
            request.request_id,
            name,
            result,
            elapsed_seconds=time.perf_counter() - start,
        )

    def diagnose_stream(
        self,
        requests: Iterable[DiagnosisRequest],
        *,
        max_workers: int | None = None,
        executor: "str | Executor | None" = None,
        max_inflight: int | None = None,
    ) -> Iterator[tuple[int, DiagnosisResponse]]:
        """Serve requests concurrently, yielding ``(index, response)`` pairs
        **as they complete**.

        ``requests`` is consumed lazily under a bounded in-flight window
        (``max_inflight``, default twice the worker count), so arbitrarily
        large batches stream with constant memory and built-in backpressure.
        ``executor`` / ``max_workers`` override the engine's configured
        strategy for this call only.

        Wiring is validated here, eagerly — a bad worker count, window, or
        executor name raises at the call site, not at first iteration of
        the returned generator.
        """
        workers = self._resolve_workers(max_workers)
        window = self._resolve_inflight(max_inflight, workers)
        executor_obj = self._acquire_executor(executor, workers)
        return self._stream(executor_obj, requests, window)

    def _stream(
        self,
        executor_obj: Executor,
        requests: Iterable[DiagnosisRequest],
        window: int,
    ) -> Iterator[tuple[int, DiagnosisResponse]]:
        routed = executor_obj.uses_shard_routing
        # A detached span (never on the scope stack): the generator's
        # lifetime interleaves with the consumer's own spans, so stack
        # discipline cannot hold.  Batch items carry a handle parenting their
        # worker-side spans under it explicitly.
        stream_span = obs.start_detached(
            "engine.stream", executor=executor_obj.name, window=window
        )
        handle = obs.handle_for(stream_span)
        items = (
            self._batch_item(index, request, routed=routed, trace=handle)
            for index, request in enumerate(requests)
        )
        served = 0
        try:
            for index, response in stream_batch(executor_obj, items, max_inflight=window):
                served += 1
                spans = getattr(response, "trace_spans", None)
                if spans and obs.adopt_into(handle, spans):
                    # Stitched into the parent tree; drop the shipped copy so
                    # callers do not double-count it.
                    response.trace_spans = []
                yield index, response
        finally:
            stream_span.set_attribute("responses", served)
            stream_span.finish()

    def _batch_item(
        self,
        index: int,
        request: DiagnosisRequest,
        *,
        routed: bool,
        trace: "obs.ContextHandle | None" = None,
    ) -> BatchItem:
        if not routed:
            # Local strategies execute the request in-process, where
            # :meth:`diagnose` computes its own cache key — fingerprinting
            # here would just double the hashing cost of the batch.
            return BatchItem(index=index, request=request, trace=trace)
        try:
            key = self.warm_key(request)
            hint = self._warm_peek(key)
        except Exception:  # noqa: BLE001 - a malformed request still gets served
            key, hint = None, None
        return BatchItem(
            index=index, request=request, shard_key=key, warm_hint=hint, trace=trace
        )

    def diagnose_batch(
        self,
        requests: Iterable[DiagnosisRequest],
        *,
        max_workers: int | None = None,
        executor: "str | Executor | None" = None,
        max_inflight: int | None = None,
    ) -> list[DiagnosisResponse]:
        """Serve many independent requests concurrently.

        Responses come back in input order.  Each request is handled by
        :meth:`submit`, so a crashing or infeasible case yields an
        ``ok=False`` / ``feasible=False`` response without affecting its
        neighbours.  ``max_workers`` defaults to the engine's configured
        fan-out width, ``executor`` to its configured strategy.

        All wiring is validated *before* anything is submitted — a bad
        worker count, window, or executor name fails fast even for an empty
        batch.
        """
        workers = self._resolve_workers(max_workers)
        self._validate_inflight(max_inflight)
        spec = executor if executor is not None else self._executor_spec
        if isinstance(spec, str):
            validate_executor_name(spec)
        items: Sequence[DiagnosisRequest] = list(requests)
        if not items:
            return []
        with obs.span("engine.batch", requests=len(items)):
            if spec == "thread" and (workers == 1 or len(items) == 1):
                # The historical fast path: no pool for trivial thread batches.
                return [self.submit(request) for request in items]
            responses: list[DiagnosisResponse | None] = [None] * len(items)
            for index, response in self.diagnose_stream(
                items, max_workers=workers, executor=spec, max_inflight=max_inflight
            ):
                responses[index] = response
        missing = [index for index, response in enumerate(responses) if response is None]
        if missing:
            # Every submitted request must come back exactly once; keyed
            # callers (run_matrix) pair responses positionally, so a silent
            # shortfall would mis-attribute every later response.
            name = spec if isinstance(spec, str) else spec.name
            raise ReproError(
                f"executor '{name}' lost {len(missing)} of {len(items)} batch "
                f"responses (first missing index: {missing[0]})"
            )
        return [response for response in responses if response is not None]

    def run_matrix(
        self,
        cells: "Mapping[str, DiagnosisRequest] | Iterable[tuple[str, DiagnosisRequest]]",
        *,
        max_workers: int | None = None,
        executor: "str | Executor | None" = None,
        max_inflight: int | None = None,
    ) -> dict[str, DiagnosisResponse]:
        """Serve a keyed batch of requests: ``{cell_id: request}`` in, ``{cell_id: response}`` out.

        This is the entry point of the scenario harness (:mod:`repro.harness`)
        — a sweep over a matrix of scenario/config cells goes through the same
        :meth:`submit` / :meth:`diagnose_batch` machinery as production
        traffic, so harness results certify the serving path itself.  Each
        response's ``request_id`` is overwritten with its cell id, making the
        mapping self-describing even after serialization.

        Duplicate cell ids are rejected: two cells would otherwise silently
        collapse into one result.
        """
        # Validate wiring first (shared with diagnose_batch): a bad worker
        # count or executor name must fail before any cell is submitted.
        self._resolve_workers(max_workers)
        pairs = list(cells.items()) if isinstance(cells, Mapping) else list(cells)
        seen: set[str] = set()
        for cell_id, _ in pairs:
            if cell_id in seen:
                raise ReproError(f"duplicate matrix cell id {cell_id!r}")
            seen.add(cell_id)
        responses = self.diagnose_batch(
            [request for _, request in pairs],
            max_workers=max_workers,
            executor=executor,
            max_inflight=max_inflight,
        )
        keyed: dict[str, DiagnosisResponse] = {}
        for (cell_id, _), response in zip(pairs, responses):
            response.request_id = cell_id
            keyed[cell_id] = response
        return keyed


def diagnosis_fingerprint(log: QueryLog, complaints: ComplaintSet) -> Hashable:
    """Stable fingerprint of a (log, complaints) pair for warm-start keying.

    Two calls with the same rendered log and the same complaint targets map
    to the same key, so a repeat diagnosis reuses the cached solver
    assignment.  Collisions are merely a performance hazard, never a
    correctness one: solvers validate hints before seeding an incumbent.
    """
    return (log.render_sql(), complaint_fingerprint(complaints))


def complaint_fingerprint(complaints: ComplaintSet) -> Hashable:
    """Stable fingerprint of a complaint set (rids, targets, dirty presence)."""
    return tuple(
        sorted(
            (
                complaint.rid,
                complaint.exists_in_dirty,
                None
                if complaint.target is None
                else tuple(sorted(complaint.target.items())),
            )
            for complaint in complaints
        )
    )


def _call_diagnoser(
    algorithm: "object",
    initial: Database,
    final: Database,
    log: QueryLog,
    complaints: ComplaintSet,
    *,
    config: QFixConfig,
    solver: Solver,
    warm_start: "dict[str, float] | None",
) -> RepairResult:
    """Invoke a diagnoser, forwarding ``warm_start`` only when it accepts it.

    Custom diagnosers registered before the warm-start API existed keep
    working — they just solve cold.
    """
    if warm_start is not None and accepts_keyword(algorithm.diagnose, "warm_start"):
        return algorithm.diagnose(
            initial,
            final,
            log,
            complaints,
            config=config,
            solver=solver,
            warm_start=warm_start,
        )
    return algorithm.diagnose(
        initial, final, log, complaints, config=config, solver=solver
    )


def serve_jsonl_lines(
    engine: DiagnosisEngine, lines: Iterable[str]
) -> list[DiagnosisResponse]:
    """Serve JSONL :class:`DiagnosisRequest` lines, one response per request.

    This is the shared contract behind the CLI ``batch`` command and the HTTP
    ``POST /v1/batch`` endpoint: blank lines are skipped, a malformed line
    becomes an ``ok=False`` response *in place* (with the caller's
    ``request_id`` echoed when the JSON parsed far enough to carry one,
    ``line-<n>`` otherwise), and output order matches input order.
    """
    requests: list[DiagnosisRequest | None] = []
    parse_failures: dict[int, DiagnosisResponse] = {}
    for index, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        request_id = f"line-{index + 1}"
        try:
            payload = json.loads(text)
            # The payload parsed: echo the caller's correlation id even if the
            # request itself turns out to be malformed.
            if isinstance(payload, Mapping) and payload.get("request_id"):
                request_id = str(payload["request_id"])
            requests.append(DiagnosisRequest.from_dict(payload))
        except Exception as error:  # noqa: BLE001 - isolation boundary
            parse_failures[len(requests)] = DiagnosisResponse.from_error(
                request_id, "", error
            )
            requests.append(None)

    served = engine.diagnose_batch(
        [request for request in requests if request is not None]
    )
    iterator = iter(served)
    return [
        parse_failures[index] if request is None else next(iterator)
        for index, request in enumerate(requests)
    ]
