"""QFix reproduction: diagnosing and repairing data errors through query histories.

This package is an independent, from-scratch reproduction of

    Xiaolan Wang, Alexandra Meliou, Eugene Wu.
    "QFix: Diagnosing errors through query histories." SIGMOD 2017.

The public API re-exports the pieces most users need: the relational substrate
(:mod:`repro.db`), the query model (:mod:`repro.queries`), the SQL surface
(:mod:`repro.sql`), the MILP substrate (:mod:`repro.milp`), the QFix core
(:mod:`repro.core`), the service layer (:mod:`repro.service` — sessions,
batched diagnosis, serializable request/response types), the execution tier
(:mod:`repro.parallel` — serial / thread / process strategies with
load-balanced worker shards and streaming backpressure), the HTTP serving
layer (:mod:`repro.server` — threaded stdlib server, session store, typed
client, telemetry), the decision-tree baseline (:mod:`repro.baselines`), the
workload generators (:mod:`repro.workload`), the experiment harness
(:mod:`repro.experiments`), and the scenario-matrix correctness harness
(:mod:`repro.harness` — seeded scenario grids swept through the engine and
checked against differential oracles).

For one-off, in-process diagnosis the legacy :class:`QFix` facade still works;
for anything service-shaped (batches, long-lived sessions, RPC payloads) use
:class:`DiagnosisEngine` / :class:`RepairSession` from the service layer.
"""

from repro.core import (
    Complaint,
    ComplaintKind,
    ComplaintSet,
    BasicRepairer,
    IncrementalRepairer,
    QFix,
    QFixConfig,
    EncodingConfig,
    RepairResult,
    RepairAccuracy,
    evaluate_repair,
)
from repro.db import AttributeSpec, Database, Schema
from repro.queries import (
    DeleteQuery,
    InsertQuery,
    QueryLog,
    UpdateQuery,
    replay,
)
from repro.sql import parse_query, parse_script
from repro.parallel import (
    available_executors,
    get_executor,
    register_executor,
)
from repro.service import (
    DiagnosisEngine,
    DiagnosisRequest,
    DiagnosisResponse,
    RepairSession,
    available_diagnosers,
    get_diagnoser,
    register_diagnoser,
)
#: HTTP serving layer re-exports, resolved lazily via module ``__getattr__``
#: so that library/CLI users who never serve traffic don't import the
#: transport stack (http.server, urllib) at package-import time.
_SERVER_EXPORTS = frozenset(
    {
        "DiagnosisApp",
        "DiagnosisClient",
        "DiagnosisServer",
        "ServerError",
        "SessionStore",
        "Telemetry",
        "make_server",
        "serve",
    }
)

#: Scenario-harness re-exports, also lazy: the matrix sweep machinery is only
#: imported by users who actually run sweeps.
_HARNESS_EXPORTS = frozenset(
    {
        "CellSpec",
        "HarnessReport",
        "HarnessRunner",
        "OracleViolation",
    }
)


def __getattr__(name: str):
    if name in _SERVER_EXPORTS:
        from repro import server

        return getattr(server, name)
    if name in _HARNESS_EXPORTS:
        from repro import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.2.0"

__all__ = [
    "Complaint",
    "ComplaintKind",
    "ComplaintSet",
    "BasicRepairer",
    "IncrementalRepairer",
    "QFix",
    "QFixConfig",
    "EncodingConfig",
    "RepairResult",
    "RepairAccuracy",
    "evaluate_repair",
    "AttributeSpec",
    "Database",
    "Schema",
    "UpdateQuery",
    "InsertQuery",
    "DeleteQuery",
    "QueryLog",
    "replay",
    "parse_query",
    "parse_script",
    "DiagnosisEngine",
    "DiagnosisRequest",
    "DiagnosisResponse",
    "RepairSession",
    "available_diagnosers",
    "get_diagnoser",
    "register_diagnoser",
    "available_executors",
    "get_executor",
    "register_executor",
    "DiagnosisApp",
    "DiagnosisClient",
    "DiagnosisServer",
    "ServerError",
    "SessionStore",
    "Telemetry",
    "make_server",
    "serve",
    "CellSpec",
    "HarnessReport",
    "HarnessRunner",
    "OracleViolation",
    "__version__",
]
