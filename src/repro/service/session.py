"""Long-lived repair sessions over an evolving query log.

A :class:`RepairSession` absorbs log updates instead of re-ingesting the world
per diagnosis call: the dirty final state is maintained *incrementally* — each
:meth:`append` applies just the new query to the cached state — so repeated
diagnoses over a growing log cost one query application per update rather than
a full replay of the history.  This is the session abstraction motivated by
the incremental view-maintenance line of work (answering queries under
updates): the expensive derived state (``Dn``) is kept materialized and
patched, never recomputed from scratch unless the log itself is rewritten
(:meth:`accept_repair`).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.complaints import Complaint, ComplaintSet
from repro.core.config import QFixConfig
from repro.core.repair import RepairResult
from repro.db.database import Database
from repro.exceptions import ReproError
from repro.queries.executor import apply_query, replay
from repro.queries.log import QueryLog
from repro.queries.query import Query
from repro.service.engine import DiagnosisEngine
from repro.service.types import DiagnosisRequest, DiagnosisResponse


class RepairSession:
    """Holds an initial state and a growing log, with cached replay state.

    Parameters
    ----------
    initial:
        The database state before the log (snapshotted; later mutations of the
        caller's object do not leak into the session).
    log:
        Queries already executed when the session opens (replayed once).
    engine:
        The :class:`DiagnosisEngine` serving this session.  A private engine
        with ``config`` is created when omitted.
    config:
        Configuration for the private engine (ignored when ``engine`` given).
    session_id:
        Opaque identifier echoed as the ``request_id`` of responses produced
        by :meth:`submit`.
    """

    def __init__(
        self,
        initial: Database,
        log: QueryLog | Iterable[Query] | None = None,
        *,
        engine: DiagnosisEngine | None = None,
        config: QFixConfig | None = None,
        session_id: str = "",
    ) -> None:
        self.engine = engine if engine is not None else DiagnosisEngine(config=config)
        self.session_id = session_id
        self._initial = initial.snapshot()
        if log is None:
            self._log = QueryLog()
        elif isinstance(log, QueryLog):
            self._log = log
        else:
            self._log = QueryLog(log)
        self._final = replay(self._initial, self._log)
        #: Number of from-scratch replays performed (1 at construction).  The
        #: cache tests assert this stays flat across append/diagnose cycles.
        self.full_replays = 1
        self._complaints = ComplaintSet()

    # -- state access ------------------------------------------------------------

    @property
    def initial(self) -> Database:
        """The immutable-by-convention initial state ``D0``."""
        return self._initial

    @property
    def log(self) -> QueryLog:
        """The current query log."""
        return self._log

    @property
    def final(self) -> Database:
        """The cached dirty final state ``Dn`` (kept current incrementally)."""
        return self._final

    @property
    def complaints(self) -> ComplaintSet:
        """The currently registered complaints."""
        return self._complaints

    def __len__(self) -> int:
        return len(self._log)

    # -- log evolution -----------------------------------------------------------

    def append(self, query: Query) -> "RepairSession":
        """Append ``query`` to the log and patch the cached final state.

        Only the new query is applied — no replay of the existing history.
        The query runs against a snapshot and log/state are swapped together,
        so a query that raises mid-application (e.g. an unknown attribute)
        leaves the session unchanged instead of corrupting the cache.
        Returns ``self`` so updates chain fluently.
        """
        patched = apply_query(self._final, query)
        self._log = self._log.append(query)
        self._final = patched
        return self

    def extend(self, queries: Iterable[Query]) -> "RepairSession":
        """Append several queries (each applied incrementally)."""
        for query in queries:
            self.append(query)
        return self

    def append_many(self, queries: Iterable[Query]) -> "RepairSession":
        """Append a batch of queries atomically.

        All queries are applied to one staging snapshot first and the
        log/state swap happens only after every application succeeded — a
        failure anywhere in the batch leaves the session untouched (the
        per-query :meth:`append` would leave the prefix applied).  One
        snapshot total, versus one per query via :meth:`extend`.
        """
        items = list(queries)
        if not items:
            return self
        staged = self._final.snapshot()
        for query in items:
            apply_query(staged, query, in_place=True)
        self._log = self._log.extend(items)
        self._final = staged
        return self

    def accept_repair(self, result: RepairResult) -> "RepairSession":
        """Adopt a repaired log as the session's new history.

        The repaired log replaces the current one, the final state is rebuilt
        by a full replay (parameters changed, so the cache is invalid), and
        the complaints — now presumed resolved — are cleared.
        """
        if len(result.repaired_log) != len(self._log):
            raise ReproError(
                "repaired log length does not match the session log; "
                "was the session updated while the diagnosis ran?"
            )
        self._log = result.repaired_log
        self._final = replay(self._initial, self._log)
        self.full_replays += 1
        self._complaints = ComplaintSet()
        return self

    # -- complaints --------------------------------------------------------------

    def add_complaint(
        self,
        complaint_or_rid: Complaint | int,
        target: Mapping[str, float] | None = None,
        *,
        exists_in_dirty: bool = True,
    ) -> "RepairSession":
        """Register a complaint against the current final state.

        Accepts either a ready :class:`Complaint` or the ``(rid, target)``
        shorthand; ``target=None`` with a rid registers a removal complaint.
        """
        if isinstance(complaint_or_rid, Complaint):
            complaint = complaint_or_rid
        else:
            complaint = Complaint(
                complaint_or_rid,
                dict(target) if target is not None else None,
                exists_in_dirty,
            )
        self._complaints.add(complaint)
        return self

    def clear_complaints(self) -> "RepairSession":
        """Drop all registered complaints."""
        self._complaints = ComplaintSet()
        return self

    # -- diagnosis ---------------------------------------------------------------

    def diagnose(
        self,
        *,
        diagnoser: str | None = None,
        config: QFixConfig | None = None,
    ) -> RepairResult:
        """Diagnose the registered complaints against the cached final state."""
        return self.engine.diagnose(
            self._initial,
            self._final,
            self._log,
            self._complaints,
            diagnoser=diagnoser,
            config=config,
        )

    def submit(self, *, diagnoser: str | None = None) -> DiagnosisResponse:
        """Like :meth:`diagnose`, but never raises — returns a response object."""
        request = DiagnosisRequest(
            initial=self._initial,
            log=self._log,
            complaints=self._complaints,
            final=self._final,
            diagnoser=diagnoser,
            request_id=self.session_id,
        )
        return self.engine.submit(request)

    def to_request(self, *, diagnoser: str | None = None) -> DiagnosisRequest:
        """Snapshot the session as a serializable :class:`DiagnosisRequest`."""
        return DiagnosisRequest(
            initial=self._initial.snapshot(),
            log=self._log,
            complaints=ComplaintSet(self._complaints),
            final=self._final.snapshot(),
            diagnoser=diagnoser,
            request_id=self.session_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RepairSession(queries={len(self._log)}, "
            f"complaints={len(self._complaints)}, rows={len(self._final)})"
        )
