"""Command-line entry point: ``qfix-experiments <command> [options]``.

Three kinds of commands exist: the figure reproductions of the paper, the
``batch`` service command that feeds a JSONL file of serialized
:class:`~repro.service.DiagnosisRequest` payloads through the
:class:`~repro.service.DiagnosisEngine` thread pool, and the ``serve``
command that boots the :mod:`repro.server` HTTP front end.

Examples::

    qfix-experiments example2
    qfix-experiments figure4 --scale small
    qfix-experiments all --scale small --seed 3
    qfix-experiments batch --input requests.jsonl --output responses.jsonl --max-workers 8
    qfix-experiments batch --input requests.jsonl --executor process --max-inflight 16
    qfix-experiments serve --host 0.0.0.0 --port 8080 --workers 8 --max-inflight 32
    qfix-experiments serve --data-dir ./qfix-data --shards 4 --fsync batch
    qfix-experiments serve --trace-sample-rate 0.1 --slow-trace-ms 250 --log-json
    qfix-experiments harness --grid smoke --seed 1 --budget 60s --output report.json
    qfix-experiments harness --grid smoke --executor process --max-workers 2
    qfix-experiments harness --grid smoke --trace-dump traces.json
    qfix-experiments trace --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, TextIO

from repro.parallel import available_executors
from repro.service.engine import DiagnosisEngine, serve_jsonl_lines
from repro.experiments import (
    example2,
    figure4,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from repro.experiments.common import ExperimentResult, format_table

#: Registry of runnable experiments.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "figure4": figure4.run,
    "figure6": figure6.run,
    "figure6-multi": figure6.run_multi,
    "figure6-single": figure6.run_single,
    "figure6-qtype": figure6.run_query_type,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "example2": example2.run,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="qfix-experiments",
        description=(
            "Reproduce the tables and figures of the QFix paper, or serve a "
            "batch of diagnosis requests."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "batch", "serve", "harness", "trace"],
        help=(
            "which figure to reproduce ('all' runs every experiment; 'batch' "
            "runs a JSONL file of diagnosis requests through the engine; "
            "'serve' boots the HTTP diagnosis service; 'harness' sweeps a "
            "scenario matrix through the differential correctness oracle; "
            "'trace' runs one fully traced diagnosis and prints its span tree)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="parameter preset: 'small' for quick runs, 'paper' for the paper's sizes",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload random seed")
    parser.add_argument(
        "--input",
        default=None,
        help="batch mode: JSONL file of DiagnosisRequest payloads ('-' for stdin)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="batch mode: where to write JSONL responses (default: stdout)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help=(
            "batch/harness mode: fan-out width for concurrent diagnosis "
            "(threads for --executor thread, worker processes for "
            "--executor process)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="thread",
        help=(
            "batch/harness/serve mode: execution strategy — 'serial' runs "
            "inline, 'thread' uses a thread pool (fine for the native HiGHS "
            "backend), 'process' fans out over load-balanced worker processes "
            "(use for the CPU-bound branch-and-bound backend, where threads "
            "serialize on the GIL); serve mode applies it to the engine "
            "behind /v1/batch"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "batch/harness mode: bound on in-flight requests (backpressure "
            "window; default: twice --max-workers); serve mode: admission "
            "limit — excess requests get 429 + Retry-After (default: "
            "unlimited)"
        ),
    )
    parser.add_argument(
        "--decompose",
        action="store_true",
        help=(
            "batch/serve mode: enable the decompose-and-conquer pipeline by "
            "default (log compaction + connected-component splitting with "
            "intra-request parallelism) for requests that carry no explicit "
            "config; harness mode: force decomposition on every cell of the "
            "grid (the differential cells of the long-log family carry their "
            "own decompose axis and do not need this flag)"
        ),
    )
    harness_group = parser.add_argument_group("harness mode")
    harness_group.add_argument(
        "--grid",
        default="smoke",
        help="harness mode: named cell grid to sweep (micro, smoke, full, longlog)",
    )
    harness_group.add_argument(
        "--budget",
        default=None,
        help=(
            "harness mode: wall-clock budget, e.g. '60s', '2m', or plain "
            "seconds; cells beyond the budget are reported as skipped"
        ),
    )
    serve_group = parser.add_argument_group("serve mode")
    serve_group.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve mode: interface to bind (0.0.0.0 for all)",
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=8080,
        help="serve mode: TCP port to bind (0 picks an ephemeral port)",
    )
    serve_group.add_argument(
        "--workers",
        type=int,
        default=4,
        help="serve mode: engine thread-pool width for /v1/batch fan-out",
    )
    serve_group.add_argument(
        "--max-request-bytes",
        type=int,
        default=None,
        help="serve mode: reject request bodies larger than this (413)",
    )
    serve_group.add_argument(
        "--port-file",
        default=None,
        help=(
            "serve mode: write the actually bound port to this file once "
            "listening (useful with --port 0 in scripts and CI)"
        ),
    )
    serve_group.add_argument(
        "--data-dir",
        default=None,
        help=(
            "serve mode: persist sessions under this directory (WAL + "
            "snapshots) and recover them on startup; omitted = in-memory only"
        ),
    )
    serve_group.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "serve mode: consistent-hash shard directories under --data-dir "
            "(fixed for the lifetime of a data directory)"
        ),
    )
    serve_group.add_argument(
        "--fsync",
        choices=("always", "batch", "never"),
        default="always",
        help=(
            "serve mode: WAL fsync policy — 'always' fsyncs every record "
            "(machine-crash safe), 'batch' every N records, 'never' leaves "
            "it to the OS (process-crash safe only)"
        ),
    )
    serve_group.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help=(
            "serve mode: WAL records per shard between automatic snapshot "
            "compactions (0 disables automatic snapshots)"
        ),
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help=(
            "serve mode: fraction of requests to trace end-to-end, 0..1 "
            "(0 disables the flight recorder; an incoming X-Trace-Id header "
            "always forces a trace regardless of the rate)"
        ),
    )
    obs_group.add_argument(
        "--slow-trace-ms",
        type=float,
        default=500.0,
        help=(
            "traced requests slower than this (milliseconds) are pinned in "
            "the slow-trace annex, surviving ring-buffer eviction"
        ),
    )
    obs_group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="serve mode: threshold for the structured 'qfix' logger hierarchy",
    )
    obs_group.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "serve mode: emit one JSON object per log record (machine-"
            "ingestible, with trace_id correlation) instead of text"
        ),
    )
    obs_group.add_argument(
        "--trace-dump",
        default=None,
        help=(
            "harness mode: trace every cell (forces sampling on) and write "
            "the flight recorder's full contents to this JSON file after the "
            "sweep"
        ),
    )
    return parser


def run_experiment(name: str, scale: str, seed: int) -> ExperimentResult:
    """Run one named experiment and print its table."""
    runner = EXPERIMENTS[name]
    result = runner(scale=scale, seed=seed)
    print(f"== {result.name}: {result.description}")
    print(format_table(result.rows))
    print()
    return result


def _default_engine_config(decompose: bool):
    """Engine default config for ``--decompose`` (None keeps the engine's own).

    Requests that carry an explicit config are untouched — the flag only
    changes the default applied to config-less requests, mirroring how the
    engine treats every other config field.
    """
    if not decompose:
        return None
    from repro.core.config import QFixConfig

    return QFixConfig.fully_optimized(decompose=True)


def run_batch(
    input_path: str | None,
    output_path: str | None,
    max_workers: int,
    executor: str = "thread",
    max_inflight: int | None = None,
    decompose: bool = False,
    *,
    stdin: TextIO | None = None,
) -> int:
    """Serve a JSONL file of diagnosis requests and emit JSONL responses.

    Each input line is one serialized request; each output line is the
    matching response, in input order.  A malformed line becomes an
    ``ok=False`` response rather than aborting the batch, mirroring the
    engine's per-request error isolation.  ``--executor`` picks the execution
    strategy (``process`` for CPU-bound multi-core fan-out) and
    ``--max-inflight`` bounds the backpressure window.  Exit status: 2 for
    usage errors, 1 when any request failed (so scripted callers can detect
    trouble), 0 when every request was served successfully.
    """
    if input_path is None:
        print("batch mode requires --input (path to a JSONL file, or '-')", file=sys.stderr)
        return 2
    if max_workers < 1:
        print("--max-workers must be at least 1", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight < 1:
        print("--max-inflight must be at least 1", file=sys.stderr)
        return 2

    if input_path == "-":
        lines = (stdin if stdin is not None else sys.stdin).read().splitlines()
    else:
        try:
            with open(input_path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            print(f"cannot read --input file: {error}", file=sys.stderr)
            return 2

    engine = DiagnosisEngine(
        config=_default_engine_config(decompose),
        max_workers=max_workers,
        executor=executor,
        max_inflight=max_inflight,
    )
    try:
        responses = serve_jsonl_lines(engine, lines)
    finally:
        engine.close()

    payload = "\n".join(json.dumps(response.to_dict()) for response in responses)
    if output_path is None or output_path == "-":
        if payload:
            print(payload)
    else:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(payload + ("\n" if payload else ""))

    failures = sum(1 for response in responses if not response.ok)
    print(
        f"batch: served {len(responses)} request(s), {failures} failed",
        file=sys.stderr,
    )
    return 1 if failures else 0


def parse_budget(text: str | None) -> float | None:
    """Parse a wall-clock budget: ``'60s'``, ``'2m'``, or plain seconds."""
    if text is None:
        return None
    raw = text.strip().lower()
    multiplier = 1.0
    if raw.endswith("ms"):
        raw, multiplier = raw[:-2], 0.001
    elif raw.endswith("s"):
        raw = raw[:-1]
    elif raw.endswith("m"):
        raw, multiplier = raw[:-1], 60.0
    try:
        value = float(raw) * multiplier
    except ValueError:
        raise ValueError(f"cannot parse budget {text!r} (try '60s', '2m', or '90')") from None
    if value <= 0:
        raise ValueError("budget must be positive")
    return value


def run_harness(
    grid_name: str,
    seed: int,
    budget: str | None,
    output_path: str | None,
    max_workers: int,
    executor: str = "thread",
    max_inflight: int | None = None,
    trace_dump: str | None = None,
    slow_trace_ms: float = 500.0,
    decompose: bool = False,
) -> int:
    """Sweep a named scenario grid and report oracle violations.

    Prints a per-cell table and the seed-determinism fingerprint digest, and
    writes the full JSON report to ``--output`` when given.  The sweep runs
    through the same executor tier as production batches (``--executor
    process`` certifies the multi-core serving path).  Exit status: 2 for
    usage errors, 1 when any oracle violation was found, 0 otherwise — so CI
    can gate on the sweep directly.  ``--trace-dump`` forces tracing on for
    the whole sweep and archives the flight recorder as JSON — CI uploads it
    so a slow or violating cell arrives with its solver phase breakdown.
    """
    # Imported lazily: the figure commands don't pay for the harness stack.
    from repro.harness import get_grid, run_grid

    try:
        budget_seconds = parse_budget(budget)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if max_workers < 1:
        print("--max-workers must be at least 1", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight < 1:
        print("--max-inflight must be at least 1", file=sys.stderr)
        return 2
    try:
        cells = get_grid(grid_name, seed)
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(str(error), file=sys.stderr)
        return 2
    if decompose:
        # Force the decompose-and-conquer pipeline on every cell; cell ids
        # pick up the "decomposed" marker so the report shows what ran.
        from dataclasses import replace as _replace

        cells = [_replace(cell, decompose=True) for cell in cells]

    tracer = None
    if trace_dump is not None:
        from repro.obs import configure_tracing

        # Every cell traced: the dump is a CI artifact, not a sampling study.
        tracer = configure_tracing(
            1.0, slow_trace_ms=slow_trace_ms, capacity=4096, slow_capacity=256
        )

    engine = DiagnosisEngine(
        max_workers=max_workers, executor=executor, max_inflight=max_inflight
    )
    try:
        report = run_grid(
            cells,
            grid_name=grid_name,
            seed=seed,
            budget_seconds=budget_seconds,
            max_workers=max_workers,
            engine=engine,
        )
    finally:
        engine.close()

    rows = [
        {
            "cell": cell.cell_id,
            "ok": cell.ok,
            "feasible": cell.feasible,
            "status": cell.status,
            "distance": cell.distance,
            "f1": cell.accuracy.f1 if cell.accuracy is not None else "",
            "seconds": cell.elapsed_seconds,
        }
        for cell in report.cells
    ]
    print(f"== harness: grid '{grid_name}', seed {seed}")
    print(format_table(rows))
    summary = report.summary()
    print()
    print(
        "cells={cells} executed={executed} skipped={skipped} feasible={feasible} "
        "violations={violations}".format(**summary)
    )
    phases = summary.get("phase_seconds") or {}
    if phases:
        print(
            "phase seconds: "
            + " ".join(f"{name}={seconds:.3f}" for name, seconds in phases.items())
        )
    print(f"scenario fingerprints: {report.fingerprint_digest()}")
    for violation in report.violations:
        print(
            f"ORACLE VIOLATION [{violation.invariant}] {violation.cell_id}: "
            f"{violation.message}",
            file=sys.stderr,
        )

    if output_path is not None:
        payload = report.to_json()
        if output_path == "-":
            print(payload)
        else:
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"report written to {output_path}")

    if tracer is not None and tracer.store is not None and trace_dump is not None:
        dump = tracer.store.dump()
        with open(trace_dump, "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"trace dump written to {trace_dump} "
            f"({dump['traces_recorded']} trace(s), "
            f"{dump['slow_traces_recorded']} slow)"
        )
    return 1 if report.violations else 0


def run_serve(
    host: str,
    port: int,
    workers: int,
    max_request_bytes: int | None,
    port_file: str | None,
    executor: str = "thread",
    max_inflight: int | None = None,
    data_dir: str | None = None,
    shards: int = 1,
    fsync: str = "always",
    snapshot_every: int = 256,
    trace_sample_rate: float = 0.0,
    slow_trace_ms: float = 500.0,
    log_level: str = "info",
    log_json: bool = False,
    decompose: bool = False,
) -> int:
    """Boot the HTTP diagnosis service and block until stopped.

    The bound address is printed once listening (with ``--port 0`` this is
    the only way to learn the ephemeral port); ``--port-file`` additionally
    persists the port for scripted callers.  With ``--data-dir`` the session
    tier journals to disk, recovers on startup, and SIGTERM/SIGINT shut down
    gracefully (WAL flushed, final snapshot published).

    ``--trace-sample-rate`` turns on the flight recorder: the process-wide
    tracer is configured *before* the app is built, so
    :class:`~repro.server.app.DiagnosisApp` (which defaults to the global
    tracer) picks it up, and ``GET /v1/debug/traces`` serves the recordings.
    """
    # Imported lazily so the figure commands don't pay for the server stack
    # (the repro package re-exports repro.server lazily for the same reason).
    from repro.obs import configure_logging, configure_tracing
    from repro.server.app import DEFAULT_MAX_REQUEST_BYTES, serve

    if workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if not 0.0 <= trace_sample_rate <= 1.0:
        print("--trace-sample-rate must be between 0 and 1", file=sys.stderr)
        return 2
    if slow_trace_ms <= 0:
        print("--slow-trace-ms must be positive", file=sys.stderr)
        return 2
    try:
        configure_logging(log_level, json_mode=log_json)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if trace_sample_rate > 0:
        configure_tracing(trace_sample_rate, slow_trace_ms=slow_trace_ms)
    limit = max_request_bytes if max_request_bytes is not None else DEFAULT_MAX_REQUEST_BYTES
    if limit < 1:
        print("--max-request-bytes must be at least 1", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight < 1:
        print("--max-inflight must be at least 1", file=sys.stderr)
        return 2
    durability = None
    if data_dir is not None:
        from repro.durability import DurabilityConfig
        from repro.exceptions import ReproError

        try:
            durability = DurabilityConfig(
                data_dir=data_dir,
                shards=shards,
                fsync=fsync,
                snapshot_every=snapshot_every,
            )
        except ReproError as error:
            print(str(error), file=sys.stderr)
            return 2

    def on_ready(server) -> None:
        bound_host, bound_port = server.server_address[0], server.port
        print(f"serving on http://{bound_host}:{bound_port}", flush=True)
        if port_file is not None:
            # Written atomically: pollers watch for the file to appear, so it
            # must never be observable empty.
            staging = f"{port_file}.tmp"
            with open(staging, "w", encoding="utf-8") as handle:
                handle.write(f"{bound_port}\n")
            os.replace(staging, port_file)

    serve(
        host,
        port,
        engine=DiagnosisEngine(
            config=_default_engine_config(decompose),
            max_workers=workers,
            executor=executor,
        ),
        max_request_bytes=limit,
        max_inflight=max_inflight,
        durability=durability,
        ready_callback=on_ready,
    )
    return 0


def _format_span_tree(tree: dict) -> list[str]:
    """Render a recorded trace (a span-tree dict) as indented ASCII lines."""
    lines = [
        "trace {id}  root={root}  {ms:.1f}ms  {count} span(s){slow}".format(
            id=tree.get("trace_id", ""),
            root=tree.get("root_name", ""),
            ms=float(tree.get("duration_ms", 0.0)),
            count=tree.get("span_count", 0),
            slow="  SLOW" if tree.get("slow") else "",
        )
    ]

    def _walk(node: dict, prefix: str, connector: str) -> None:
        attributes = node.get("attributes", {})
        detail = " ".join(f"{key}={value}" for key, value in attributes.items())
        status = node.get("status", "ok")
        lines.append(
            "{prefix}{connector}{name}  {ms:.1f}ms{status}{detail}".format(
                prefix=prefix,
                connector=connector,
                name=node.get("name", ""),
                ms=float(node.get("duration_ms", 0.0)),
                status="" if status == "ok" else f"  [{status}]",
                detail=f"  ({detail})" if detail else "",
            )
        )
        children = node.get("children", [])
        child_prefix = prefix + ("   " if connector.startswith("└") else "│  ")
        if not connector:
            child_prefix = prefix
        for index, child in enumerate(children):
            last = index == len(children) - 1
            _walk(child, child_prefix, "└─ " if last else "├─ ")

    root = tree.get("root")
    if root is not None:
        _walk(root, "", "")
    return lines


def run_trace(
    input_path: str | None,
    seed: int,
    output_path: str | None = None,
    slow_trace_ms: float = 500.0,
) -> int:
    """Run one diagnosis with tracing forced on and print its span tree.

    Without ``--input`` a small built-in synthetic scenario is diagnosed (one
    corrupted query, full complaint set — enough to light up every phase
    span).  With ``--input`` the first JSONL line of the file is served
    instead, so a request captured from production can be re-run under the
    profiler.  ``--output`` additionally writes the full span tree as JSON.
    Exit status: 2 for usage errors, 1 when the diagnosis failed, 0 otherwise.
    """
    # Imported lazily, like the other service commands.
    from repro.obs import configure_tracing, reset_tracing
    from repro.service.types import DiagnosisRequest

    if input_path is not None:
        try:
            with open(input_path, "r", encoding="utf-8") as handle:
                first = next((line for line in handle if line.strip()), None)
        except OSError as error:
            print(f"cannot read --input file: {error}", file=sys.stderr)
            return 2
        if first is None:
            print("--input file holds no request lines", file=sys.stderr)
            return 2
        try:
            request = DiagnosisRequest.from_dict(json.loads(first))
        except Exception as error:  # noqa: BLE001 - CLI boundary
            print(f"cannot decode request: {error}", file=sys.stderr)
            return 2
    else:
        from repro.workload.spec import ScenarioSpec, build_spec_scenario

        scenario = build_spec_scenario(ScenarioSpec(seed=seed))
        request = DiagnosisRequest(
            initial=scenario.initial,
            log=scenario.corrupted_log,
            complaints=scenario.complaints,
            final=scenario.dirty,
            request_id=f"trace-demo-s{seed}",
        )

    tracer = configure_tracing(1.0, slow_trace_ms=slow_trace_ms)
    engine = DiagnosisEngine(max_workers=1)
    try:
        response = engine.submit(request)
    finally:
        engine.close()

    store = tracer.store
    recorded = store.list(limit=1) if store is not None else []
    if not recorded:
        print("no trace was recorded", file=sys.stderr)
        reset_tracing()
        return 1
    tree = store.get(recorded[0]["trace_id"]) or {}
    reset_tracing()

    for line in _format_span_tree(tree):
        print(line)
    print()
    print(
        f"diagnosis: ok={response.ok} feasible={response.feasible} "
        f"status={response.status} elapsed={response.elapsed_seconds:.3f}s"
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(tree, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"span tree written to {output_path}")
    return 0 if response.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "serve":
        return run_serve(
            args.host,
            args.port,
            args.workers,
            args.max_request_bytes,
            args.port_file,
            args.executor,
            args.max_inflight,
            args.data_dir,
            args.shards,
            args.fsync,
            args.snapshot_every,
            args.trace_sample_rate,
            args.slow_trace_ms,
            args.log_level,
            args.log_json,
            args.decompose,
        )
    if args.experiment == "batch":
        return run_batch(
            args.input,
            args.output,
            args.max_workers,
            args.executor,
            args.max_inflight,
            args.decompose,
        )
    if args.experiment == "harness":
        return run_harness(
            args.grid,
            args.seed,
            args.budget,
            args.output,
            args.max_workers,
            args.executor,
            args.max_inflight,
            args.trace_dump,
            args.slow_trace_ms,
            args.decompose,
        )
    if args.experiment == "trace":
        return run_trace(args.input, args.seed, args.output, args.slow_trace_ms)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run_experiment(name, args.scale, args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
