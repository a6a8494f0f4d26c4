"""Command-line entry point: run a simulated test and check it.

Usage::

    python -m repro --isolation snapshot-isolation --txns 1000 \
        --fault tidb-retry --model snapshot-isolation

Generates a workload against the MVCC simulator (optionally with a fault
injector), checks the observation with Elle, prints the verdict plus every
counterexample, and exits 1 when the requested model is violated (0 when
it holds, 2 on a usage or input error) — suitable for CI pipelines the way
Jepsen tests are.

Real observations work too: ``--in history.jsonl`` checks a JSON-lines
history captured from an actual system instead of generating one (``--in -``
reads stdin), and ``--dump-history out.jsonl`` saves whatever was checked
for replay.

``--follow`` switches to the streaming incremental checker: operations are
consumed in chunks of ``--chunk`` (from ``--in``/stdin, or from the
generated workload), each chunk re-checks the observed prefix incrementally
— only keys whose slices changed are re-analyzed — and a one-line verdict
delta is printed per chunk (``--json`` makes those lines machine-readable,
in exactly the service's verdict-reply record shape).  The final verdict is
byte-identical to the batch check of the same operations.

``python -m repro serve --port 7907`` runs the checker as a resident
daemon multiplexing many concurrent checking sessions (see
:mod:`repro.service`), and ``--connect HOST:PORT`` (or ``unix:PATH``)
ships a history to such a daemon instead of checking locally — same
flags, same verdict, same exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import Profile, StreamingChecker, check
from .core.consistency import ALL_MODELS, SERIALIZABLE
from .db import INJECTORS, Isolation, Windowed
from .errors import ReproError
from .generator import RunConfig, WorkloadConfig, run_workload
from .history import dump_history, iter_op_chunks, load_history


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Generate a transactional workload against the built-in "
        "MVCC simulator and check it for isolation anomalies.",
    )
    parser.add_argument(
        "--workload",
        choices=["list-append", "rw-register", "grow-set", "counter"],
        default="list-append",
    )
    parser.add_argument(
        "--isolation",
        choices=[i.value for i in Isolation],
        default="serializable",
        help="isolation level the simulated database actually provides",
    )
    parser.add_argument(
        "--model",
        choices=sorted(ALL_MODELS),
        default=SERIALIZABLE,
        help="consistency model to check the observation against",
    )
    parser.add_argument("--txns", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=10)
    parser.add_argument("--keys", type=int, default=3)
    parser.add_argument("--writes-per-key", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fault",
        choices=sorted(INJECTORS),
        default=None,
        help="inject one of the paper's case-study bugs",
    )
    parser.add_argument(
        "--fault-window",
        type=int,
        default=None,
        metavar="PERIOD",
        help="gate the fault to periodic windows of this commit period",
    )
    parser.add_argument("--crash-probability", type=float, default=0.0)
    parser.add_argument(
        "--timestamps",
        action="store_true",
        help="expose database timestamps and infer start-ordered edges",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="verdict line only"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings (analysis, graph freeze, each SCC "
        "mask family, explanation rendering) and SCC run counters",
    )
    parser.add_argument(
        "--in",
        dest="in_path",
        default=None,
        metavar="PATH",
        help="check a JSON-lines history file instead of generating a "
        "workload ('-' reads stdin; generator options are ignored)",
    )
    parser.add_argument(
        "--dump-history",
        default=None,
        metavar="PATH",
        help="write the checked history to PATH as JSON lines",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="stream the history through the incremental checker, "
        "re-checking the observed prefix after every chunk and printing "
        "per-chunk verdict deltas (final verdict identical to batch)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=1000,
        metavar="OPS",
        help="operations per streaming chunk in --follow mode "
        "(default: 1000)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --follow/--connect: print per-chunk verdict deltas as "
        "JSON lines (the checker service's verdict-record shape)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help="ship the history to a running checker daemon at HOST:PORT "
        "or unix:PATH instead of checking locally (see 'serve')",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the checker as a resident daemon: many concurrent "
        "checking sessions multiplexed over one event loop, speaking "
        "newline-delimited JSON frames (see repro.service).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="TCP port to listen on (0 picks an ephemeral port, printed "
        "on startup)",
    )
    parser.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="unix socket path to listen on (with or instead of --port)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="concurrent session limit (default: 64)",
    )
    parser.add_argument(
        "--max-pending-ops",
        type=int,
        default=50_000,
        metavar="OPS",
        help="per-session backlog high-watermark; appends stall (and "
        "backpressure the client) beyond it (default: 50000)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="evict sessions idle this long with an empty backlog "
        "(default: 300)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=1000,
        metavar="OPS",
        help="default analysis slice size for sessions that don't choose "
        "their own (default: 1000)",
    )
    parser.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        metavar="MB",
        help="global memory watermark (estimated resident footprint): "
        "above it the daemon degrades gracefully — retire settled "
        "prefixes of consenting sessions, checkpoint-and-evict the "
        "coldest (durable daemons), then shed new opens with a "
        "structured 'overloaded' error carrying retry_after "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--quantum",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deficit-scheduler quantum: seconds of analysis credit per "
        "scheduling visit; an expensive session sits out rotations "
        "proportional to its overdraft (default: 0.25)",
    )
    parser.add_argument(
        "--session-max-ops",
        type=int,
        default=None,
        metavar="OPS",
        help="default per-session total-ops quota; a batch past it is "
        "refused with a structured 'quota' error (default: unbounded)",
    )
    parser.add_argument(
        "--session-max-analyze-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-session analyze-time quota; appends are "
        "refused with 'quota' once a session has consumed this much "
        "checker time (default: unbounded)",
    )
    parser.add_argument(
        "--retire-idle-txns",
        type=int,
        default=None,
        metavar="TXNS",
        help="default auto-retirement window: after each analysis slice "
        "retire the settled prefix, sparing the newest N transactions — "
        "for keyspace-rotating streams only (a retired key that recurs "
        "poisons its session); keeps a forever-stream's resident state "
        "O(active window) (default: off)",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the final stats snapshot here on graceful drain",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="make sessions durable: write-ahead op journals and periodic "
        "checkpoints under DIR, so a killed daemon restarts where it left "
        "off (see README, 'Durability & crash recovery')",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=20_000,
        metavar="OPS",
        help="with --data-dir: checkpoint a session's checker state every "
        "N analyzed ops (default: 20000); restart cost is the WAL tail "
        "since the last checkpoint",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "batch", "never"],
        default="batch",
        metavar="POLICY",
        help="with --data-dir: 'always' fsyncs the journal before every "
        "ack (power-loss safe, slowest), 'batch' (default) flushes every "
        "ack to the OS (kill -9 safe) and fsyncs at checkpoints, 'never' "
        "skips fsync entirely (tests)",
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="reject frames longer than this with a structured "
        "frame-too-large error instead of buffering them "
        f"(default: {_default_max_frame_bytes()})",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the metrics registry as a Prometheus text-format "
        "scrape on http://METRICS_HOST:PORT/metrics (0 picks an "
        "ephemeral port, printed on startup); also enables the "
        "'metrics' wire frame and per-chunk tracing",
    )
    parser.add_argument(
        "--metrics-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind host for --metrics-port (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="append structured JSON event lines (admission refusals, "
        "quota trips, ladder rungs, checkpoint/restore, fsync stalls, "
        "slow chunks) to PATH, or '-' for stdout; also enables metrics "
        "and tracing",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warn", "error"],
        default="info",
        metavar="LEVEL",
        help="minimum event level for --log-json (default: info)",
    )
    parser.add_argument(
        "--slow-chunk-ms",
        type=float,
        default=None,
        metavar="MS",
        help="dump the span tree of any chunk whose analysis takes at "
        "least MS milliseconds to the event log ('slow-chunk', level "
        "warn); independent of --quantum, which bounds scheduling "
        "credit, not a single chunk's cost",
    )
    parser.add_argument(
        "--trace-chunks",
        type=int,
        default=None,
        metavar="N",
        help="keep the last N per-chunk span trees in memory, browsable "
        "at /traces on the metrics port (default: 256 when telemetry "
        "is on)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress startup/drain lines"
    )
    return parser


def _default_max_frame_bytes() -> int:
    from .service.protocol import MAX_FRAME_BYTES

    return MAX_FRAME_BYTES


def _generate(args, fault_factory):
    """Run the simulated workload the generator options describe."""
    config = RunConfig(
        txns=args.txns,
        concurrency=args.concurrency,
        isolation=Isolation(args.isolation),
        workload=WorkloadConfig(
            workload=args.workload,
            active_keys=args.keys,
            max_writes_per_key=args.writes_per_key,
        ),
        seed=args.seed,
        crash_probability=args.crash_probability,
        expose_timestamps=args.timestamps,
        faults=fault_factory,
    )
    return run_workload(config)


def _verdict_line(valid, model, anomaly_types) -> str:
    """The one-line --quiet verdict (identical locally and via --connect)."""
    verdict = "VALID" if valid else "INVALID"
    return (
        f"{verdict} under {model}: "
        f"{', '.join(anomaly_types) or 'no anomalies'}"
    )


def _report(result, args, profile) -> int:
    """Print the final verdict (shared by batch and follow modes)."""
    if args.quiet:
        print(_verdict_line(result.valid, args.model, result.anomaly_types))
    else:
        print(result.report())
    if profile is not None:
        print()
        print(profile.report())
    return 0 if result.valid else 1


def _op_chunks(args, fault_factory):
    """The chunked operation source every streaming mode shares.

    Returns ``(chunks, opened)``: an iterator of op lists sized by
    ``--chunk`` — from ``--in PATH``/stdin, or the generated workload —
    plus the file handle to close afterwards (``None`` unless a path was
    opened).
    """
    if args.in_path is not None:
        if args.in_path == "-":
            return iter_op_chunks(sys.stdin, args.chunk), None
        opened = open(args.in_path, "r", encoding="utf-8")
        return iter_op_chunks(opened, args.chunk), opened
    ops = _generate(args, fault_factory).ops
    chunks = (
        list(ops[i:i + args.chunk])
        for i in range(0, len(ops), args.chunk)
    )
    return chunks, None


def _follow(args, fault_factory, profile) -> int:
    """Streaming mode: chunked ingest, per-chunk verdict deltas."""
    from .service.protocol import record_summary, update_record

    checker = StreamingChecker(
        workload=args.workload,
        consistency_model=args.model,
        timestamp_edges=args.timestamps,
        profile=profile,
    )
    chunks, opened = _op_chunks(args, fault_factory)
    update = None
    try:
        for chunk in chunks:
            update = checker.extend(chunk)
            if args.json:
                print(
                    json.dumps(update_record(update), separators=(",", ":")),
                    flush=True,
                )
            elif not args.quiet:
                print(record_summary(update_record(update)), flush=True)
    finally:
        if opened is not None:
            opened.close()
        # Dump whatever was ingested even when a chunk raised — the replay
        # artifact matters most when something went wrong (batch mode
        # likewise dumps before checking).
        if args.dump_history is not None:
            dump_history(checker.history, args.dump_history)
    if update is None:  # empty stream: verdict on the empty observation
        update = checker.extend(())
    if not args.quiet:
        print()
    return _report(update.result, args, profile)


def _check_batch(args, fault_factory, profile) -> int:
    """Batch mode: load or generate the whole history, check it once."""
    if args.in_path is not None:
        if args.in_path == "-":
            history = load_history(sys.stdin)
        else:
            history = load_history(args.in_path)
    else:
        history = _generate(args, fault_factory)
    if args.dump_history is not None:
        dump_history(history, args.dump_history)
    result = check(
        history,
        workload=args.workload,
        consistency_model=args.model,
        timestamp_edges=args.timestamps,
        profile=profile,
    )
    return _report(result, args, profile)


def _connect(args, fault_factory) -> int:
    """Client mode: ship the history to a running daemon, print its verdict."""
    from .history.io import dump_ops
    from .service.client import ServiceClient
    from .service.protocol import record_summary

    chunks, opened = _op_chunks(args, fault_factory)
    shipped = []
    try:
        with ServiceClient(args.connect) as client:
            session = client.open_session(
                workload=args.workload,
                consistency_model=args.model,
                chunk_ops=args.chunk,
                timestamp_edges=args.timestamps,
            )
            for chunk in chunks:
                client.append(session, chunk)
                if args.dump_history is not None:
                    shipped.extend(chunk)
                if args.follow:
                    record = client.verdict(session)
                    if args.json:
                        print(
                            json.dumps(record, separators=(",", ":")),
                            flush=True,
                        )
                    elif not args.quiet:
                        print(record_summary(record), flush=True)
            final = client.verdict(session, report=not args.quiet)
            client.close_session(session)
    finally:
        if opened is not None:
            opened.close()
        if args.dump_history is not None:
            with open(args.dump_history, "w", encoding="utf-8") as fh:
                dump_ops(shipped, fh)
    if args.json and not args.follow:
        trimmed = {k: v for k, v in final.items() if k != "report"}
        print(json.dumps(trimmed, separators=(",", ":")))
    if args.quiet:
        print(
            _verdict_line(final["valid"], args.model, final["anomaly_types"])
        )
    else:
        if args.follow and not args.json:
            print()
        print(final["report"])
    return 0 if final["valid"] else 1


def _serve_main(argv: Optional[List[str]]) -> int:
    """The ``python -m repro serve`` entry point."""
    import asyncio

    from .service.server import serve
    from .service.session import (
        DEFAULT_QUANTUM_SECONDS,
        SessionConfig,
        SessionRegistry,
    )

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.port is None and args.unix is None:
        parser.error("need --port and/or --unix to listen on")
    if args.chunk <= 0:
        parser.error("--chunk must be positive")
    if args.checkpoint_every <= 0:
        parser.error("--checkpoint-every must be positive")
    if args.max_frame_bytes is not None and args.max_frame_bytes <= 0:
        parser.error("--max-frame-bytes must be positive")
    if args.max_resident_mb is not None and args.max_resident_mb <= 0:
        parser.error("--max-resident-mb must be positive")
    if args.quantum is not None and args.quantum <= 0:
        parser.error("--quantum must be positive")
    if args.metrics_port is not None and args.metrics_port < 0:
        parser.error("--metrics-port must be >= 0")
    if args.slow_chunk_ms is not None and args.slow_chunk_ms <= 0:
        parser.error("--slow-chunk-ms must be positive")
    if args.trace_chunks is not None and args.trace_chunks <= 0:
        parser.error("--trace-chunks must be positive")
    obs = None
    telemetry = (
        args.metrics_port is not None
        or args.log_json is not None
        or args.slow_chunk_ms is not None
        or args.trace_chunks is not None
    )
    if telemetry:
        from .obs import DEFAULT_TRACE_CAPACITY, Observability, open_event_log

        events = None
        if args.log_json is not None:
            events = open_event_log(args.log_json, level=args.log_level)
        obs = Observability.enabled(
            events=events,
            slow_chunk_ms=args.slow_chunk_ms,
            trace_capacity=args.trace_chunks or DEFAULT_TRACE_CAPACITY,
        )
    default_limits = None
    if (
        args.session_max_ops is not None
        or args.session_max_analyze_seconds is not None
        or args.retire_idle_txns is not None
    ):
        default_limits = SessionConfig(
            max_ops=args.session_max_ops,
            max_analyze_seconds=args.session_max_analyze_seconds,
            retire_idle_txns=args.retire_idle_txns or 0,
        )
    registry = SessionRegistry(
        max_sessions=args.max_sessions,
        max_pending_ops=args.max_pending_ops,
        idle_timeout=args.idle_timeout,
        default_chunk_ops=args.chunk,
        max_resident_bytes=(
            int(args.max_resident_mb * 1024 * 1024)
            if args.max_resident_mb is not None
            else None
        ),
        quantum_seconds=(
            args.quantum if args.quantum is not None
            else DEFAULT_QUANTUM_SECONDS
        ),
        default_limits=default_limits,
        obs=obs,
    )
    durability = None
    if args.data_dir is not None:
        from .service.durability import DurabilityManager

        durability = DurabilityManager(
            args.data_dir,
            checkpoint_every=args.checkpoint_every,
            fsync=args.fsync,
            obs=obs,
        )
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                unix_path=args.unix,
                registry=registry,
                stats_path=args.stats_json,
                durability=durability,
                max_frame_bytes=args.max_frame_bytes
                if args.max_frame_bytes is not None
                else _default_max_frame_bytes(),
                obs=obs,
                metrics_host=args.metrics_host,
                metrics_port=args.metrics_port,
                quiet=args.quiet,
            )
        )
    finally:
        if obs is not None:
            obs.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fault_window is not None and args.fault_window < 1:
        parser.error("--fault-window must be positive")
    if args.chunk <= 0:
        parser.error("--chunk must be positive")
    if args.json and not (args.follow or args.connect):
        parser.error("--json requires --follow or --connect")
    if args.connect and args.profile:
        parser.error("--profile is not supported with --connect "
                     "(profiles are collected in the local process)")

    fault_factory = None
    if args.fault is not None:
        injector_cls = INJECTORS[args.fault]
        if args.fault_window is not None:
            def fault_factory(rng, _cls=injector_cls):
                return Windowed(_cls(rng), period=args.fault_window)
        else:
            def fault_factory(rng, _cls=injector_cls):
                return _cls(rng)

    if args.connect:
        return _connect(args, fault_factory)
    profile = Profile() if args.profile else None
    try:
        if args.follow:
            return _follow(args, fault_factory, profile)
        return _check_batch(args, fault_factory, profile)
    except (ReproError, OSError) as exc:
        # Exit 2 like argparse's usage errors: 1 always means INVALID.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
