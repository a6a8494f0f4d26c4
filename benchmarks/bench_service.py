"""Checker-service throughput: interleaved sessions on one resident daemon.

The service's promise is that many independent test runs can share one
resident checker instead of paying a process (and index build) each.
This benchmark measures what that costs at steady state: a real daemon on
a unix socket, driven by the load generator with N interleaved sessions
(``--sessions 1 4 16``), each streaming its own simulated observation in
``--frame-ops`` batches and ending with a verdict.  Recorded per row:

* ``ops_per_second`` — sustained ingest+check throughput across all
  sessions (wall clock over the append..verdict phase);
* ``mean_chunk_seconds`` / ``max_chunk_seconds`` — per-chunk incremental
  check latency, from the server's own per-session timers (the ``stats``
  frame), i.e. time a session waits for one analysis slice;
* ``cpu_count`` — on a single core the session sweep measures
  *multiplexing overhead*, not parallel speedup: total work is fixed per
  session, so ops/s should hold roughly flat as sessions grow, and that
  flatness is the claim worth tracking;
* ``append_ms_p50/p95/p99`` — client-observed append round-trip latency
  (request write to reply read, backpressure waits included), the number
  a production harness would actually feel.

``--obs`` runs the daemon with telemetry live (metrics registry + chunk
tracer, as ``serve --metrics-port`` would) and adds
``analyze_ms_p50/p95/p99`` from the tracer's per-chunk spans — the
server-side analysis tail, measured by the instrumentation itself.
``--obs-overhead`` runs one shape twice back-to-back, telemetry off then
on, and fails (exit 2) when the instrumented run's throughput drops
below ``1/--obs-tolerance`` of the bare run — the "off the hot path"
claim as a guard, not folklore.

``--durability`` runs the same sweep against a *durable* daemon — WAL on
every append, periodic checkpoints (``--checkpoint-every``), the chosen
``--fsync`` policy — so the journal's steady-state overhead is a recorded
number, not folklore.

Rows append to ``BENCH_elle_scaling.json`` as ``service_scaling`` runs.
``--baseline PATH --tolerance X`` turns the run into a CI regression
guard: each row's throughput is compared against the best committed
``service_scaling`` row at the same (sessions, txns, chunk, durability)
shape, and the process exits 2 when it is more than ``X`` times slower.

Every session's verdict is asserted against a local batch ``check()`` of
the same operations (validity, anomaly types, and count) — the full
byte-identity oracle lives in the test suite; here it guards against the
benchmark measuring a daemon that silently diverged.
"""

import argparse
import os
import sys


def _session_streams(sessions, args):
    """One generated observation per session (built once per sweep)."""
    from repro.service.client import session_workload

    return {
        f"load-{index}": session_workload(
            workload=args.workload,
            isolation=args.isolation,
            fault=args.fault,
            seed=args.seed + index,
            txns=args.txns,
        )
        for index in range(sessions)
    }


def _batch_expectations(streams, workload):
    """Local batch verdicts for each session stream.

    Must mirror the daemon sessions run_load opens: same workload,
    default analyzer options — otherwise the divergence guard compares
    against the wrong oracle.
    """
    from repro import History, check

    return {
        name: check(History(ops), workload=workload)
        for name, ops in streams.items()
    }


def _measure(streams, args, obs=None):  # pragma: no cover - manual entry
    import shutil
    import tempfile

    from repro.service import BackgroundService, run_load

    sessions = len(streams)
    sock = os.path.join(args.socket_dir, f"bench-{sessions}.sock")
    if os.path.exists(sock):
        os.unlink(sock)
    service_kwargs = {}
    data_dir = None
    if obs is not None:
        service_kwargs["obs"] = obs
    if args.durability:
        from repro.service import DurabilityManager

        data_dir = tempfile.mkdtemp(prefix="bench-durability-")
        service_kwargs["durability"] = DurabilityManager(
            data_dir,
            checkpoint_every=args.checkpoint_every,
            fsync=args.fsync,
        )
    try:
        with BackgroundService(unix_path=sock, port=None, **service_kwargs):
            out = run_load(
                f"unix:{sock}",
                workload=args.workload,
                frame_ops=args.frame_ops,
                chunk_ops=args.chunk,
                streams=streams,
            )
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
    session_stats = out["stats"]["sessions"].values()
    chunks = sum(s["chunks_checked"] for s in session_stats)
    analyze = sum(s["analyze_seconds"] for s in session_stats)
    append_ms = out["client"]["append_ms"]
    row = {
        "mode": "service",
        "durability": bool(args.durability),
        "obs": obs is not None,
        "sessions": sessions,
        "txns_per_session": args.txns,
        "workload": args.workload,
        "ops": out["ops"],
        "frame_ops": args.frame_ops,
        "chunk_ops": args.chunk,
        "seconds": round(out["seconds"], 4),
        "ops_per_second": round(out["ops_per_second"], 1),
        "chunks": chunks,
        "mean_chunk_seconds": round(analyze / chunks, 5) if chunks else 0.0,
        "max_chunk_seconds": round(
            max(s["max_chunk_seconds"] for s in session_stats), 5
        ),
        "analyze_seconds": round(analyze, 4),
        "append_ms_p50": append_ms["p50"],
        "append_ms_p95": append_ms["p95"],
        "append_ms_p99": append_ms["p99"],
    }
    if obs is not None and obs.tracer is not None:
        from repro.obs import percentiles

        analyze_ms = percentiles(
            [trace["ms"] for trace in obs.tracer.snapshot()]
        )
        for name, value in analyze_ms.items():
            row[f"analyze_ms_{name}"] = round(value, 3)
    if args.durability:
        row["fsync"] = args.fsync
        row["checkpoint_every"] = args.checkpoint_every
    return row, out["verdicts"]


def _bench_obs(args):  # pragma: no cover - manual entry point
    """One telemetry-enabled daemon for a sweep (fresh tracer per call)."""
    from repro.obs import Observability

    return Observability.enabled(trace_capacity=4096)


def _obs_overhead(args):  # pragma: no cover - manual entry point
    """Back-to-back bare vs instrumented run of one sweep shape.

    Same streams, same daemon configuration, telemetry off then on.
    Returns both rows plus the failure lines (instrumented throughput
    below ``1/--obs-tolerance`` of bare) for the caller to report.
    """
    sessions = args.sessions[0]
    streams = _session_streams(sessions, args)
    expected = _batch_expectations(streams, args.workload)
    bare, verdicts = _measure(streams, args)
    _verify(verdicts, expected)
    instrumented, verdicts = _measure(streams, args, obs=_bench_obs(args))
    _verify(verdicts, expected)
    failures = []
    floor = bare["ops_per_second"] / args.obs_tolerance
    if instrumented["ops_per_second"] < floor:
        failures.append(
            f"telemetry overhead: {instrumented['ops_per_second']:.0f} "
            f"ops/s instrumented vs {bare['ops_per_second']:.0f} bare "
            f"(floor {floor:.0f} at tolerance {args.obs_tolerance:g}x)"
        )
    print(
        f"obs overhead @ {sessions} sessions x {args.txns} txns: "
        f"bare {bare['ops_per_second']:.0f} ops/s, instrumented "
        f"{instrumented['ops_per_second']:.0f} ops/s "
        f"({instrumented['ops_per_second'] / bare['ops_per_second']:.3f}x)"
    )
    return [bare, instrumented], failures


def _completed(ops):
    """Drop the transactions a wave left forever in flight.

    Each wave's processes are never reused (``_shifted`` re-bases them),
    so an invoke the wave didn't complete stays provisional for the rest
    of the stream — and a permanently provisional transaction pins the
    keys it touched and every transaction that depends on it, so
    residency would grow with every wave.  A process alternates
    invoke/completion, so the only possibly-pending invoke per process is
    its last op.
    """
    from repro.history.ops import OpType

    last = {}
    for op in ops:
        last[op.process] = op
    dangling = {
        op.index for op in last.values() if op.type is OpType.INVOKE
    }
    return [op for op in ops if op.index not in dangling]


def _shifted(ops, index_base, key_base, process_base):
    """Re-base one generated wave so it extends an existing stream.

    Indices must be strictly increasing across a session's lifetime,
    keys must be fresh (a retired key that recurs poisons the session),
    and processes must be fresh too — a wave may end with a transaction
    still in flight, and its process would then be invoking again in the
    next wave with the prior invoke forever pending.  Every wave's ops
    get all three shifted past the previous waves' maxima.
    """
    import dataclasses

    out = []
    for op in ops:
        value = op.value
        if value is not None:
            value = tuple(
                dataclasses.replace(mop, key=mop.key + key_base)
                for mop in value
            )
        out.append(
            dataclasses.replace(
                op,
                index=op.index + index_base,
                process=op.process + process_base,
                value=value,
            )
        )
    return out


def _soak(args):  # pragma: no cover - manual entry point
    """Forever-stream survival: hours of traffic in minutes of shape.

    A handful of auto-retiring sessions stream rotating-keyspace waves
    for ``--soak`` seconds on one daemon.  The claim under test: resident
    ops stay flat (bounded by the active window) while total ingested ops
    grow without bound — the row records both, plus peak RSS, and the run
    fails (exit 2) if residency grew past ``--mem-tolerance`` times its
    first-wave footprint while total ops grew at least 10x.
    """
    import resource
    import time

    from repro.service import BackgroundService, ServiceClient
    from repro.service.client import session_workload
    from repro.service.session import SessionRegistry

    sock = os.path.join(args.socket_dir, "bench-soak.sock")
    if os.path.exists(sock):
        os.unlink(sock)
    registry = SessionRegistry(max_pending_ops=200_000)
    sessions = [f"soak-{i}" for i in range(args.soak_sessions)]
    wave_txns = args.soak_wave_txns
    totals = {name: 0 for name in sessions}
    key_base = {name: 0 for name in sessions}
    index_base = {name: 0 for name in sessions}
    process_base = {name: 0 for name in sessions}
    resident_samples = []
    waves = 0
    begin = time.perf_counter()
    with BackgroundService(unix_path=sock, port=None, registry=registry):
        with ServiceClient(f"unix:{sock}", retries=2) as client:
            for name in sessions:
                client.open_session(
                    session_id=name,
                    chunk_ops=args.chunk,
                    retire_idle_txns=args.retire_window,
                )
            deadline = time.perf_counter() + args.soak
            while time.perf_counter() < deadline:
                for offset, name in enumerate(sessions):
                    ops = _completed(
                        session_workload(
                            seed=args.seed + waves * len(sessions) + offset,
                            txns=wave_txns,
                            active_keys=4,
                            max_writes_per_key=4,
                        )
                    )
                    shifted = _shifted(
                        ops,
                        index_base[name],
                        key_base[name],
                        process_base[name],
                    )
                    index_base[name] = shifted[-1].index + 1
                    key_base[name] += 1 + max(
                        mop.key
                        for op in ops
                        if op.value
                        for mop in op.value
                    )
                    process_base[name] += 1 + max(
                        op.process for op in ops
                    )
                    for i in range(0, len(shifted), args.frame_ops):
                        client.append(name, shifted[i:i + args.frame_ops])
                    totals[name] += len(shifted)
                    client.verdict(name)
                stats = client.stats()["server"]
                resident_samples.append(stats["resident_ops"])
                waves += 1
            final = client.stats()["server"]
            for name in sessions:
                client.close_session(name)
    elapsed = time.perf_counter() - begin
    total_ops = sum(totals.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_resident = resident_samples[0] if resident_samples else 0
    max_resident = max(resident_samples) if resident_samples else 0
    row = {
        "mode": "service-soak",
        "durability": False,
        "sessions": args.soak_sessions,
        "txns_per_session": wave_txns,
        "workload": "list-append",
        "chunk_ops": args.chunk,
        "frame_ops": args.frame_ops,
        "waves": waves,
        "ops": total_ops,
        "seconds": round(elapsed, 4),
        "ops_per_second": round(total_ops / elapsed, 1) if elapsed else 0.0,
        "peak_mb": round(peak_mb, 1),
        "first_wave_resident_ops": first_resident,
        "max_resident_ops": max_resident,
        "retired_ops": final["retired_ops"],
        "retired_txns": final["retired_txns"],
        "growth": round(total_ops / max_resident, 1) if max_resident else 0.0,
    }
    print(
        f"soak {elapsed:.0f}s: {waves} waves, {total_ops} ops total, "
        f"resident peak {max_resident} ops "
        f"(first wave {first_resident}), retired {final['retired_ops']} "
        f"ops, RSS peak {peak_mb:.0f} MB, "
        f"{row['ops_per_second']:.0f} ops/s"
    )
    failures = []
    if total_ops < 10 * max(max_resident, 1):
        failures.append(
            f"total ops {total_ops} did not reach 10x the resident peak "
            f"{max_resident}; soak too short to witness retirement"
        )
    if (
        first_resident
        and max_resident > args.mem_tolerance * first_resident
    ):
        failures.append(
            f"resident ops grew {max_resident / first_resident:.1f}x over "
            f"the first wave ({first_resident} -> {max_resident}); "
            f"tolerance {args.mem_tolerance:g}x — retirement is not "
            "keeping the stream O(active window)"
        )
    return row, failures


def _verify(verdicts, expected):  # pragma: no cover - manual entry point
    for name, record in verdicts.items():
        batch = expected[name]
        assert record["valid"] == batch.valid, name
        assert record["anomaly_types"] == list(batch.anomaly_types), name
        assert record["anomalies"] == len(batch.anomalies), name


def _enforce_baseline(results, baseline_path, tolerance):  # pragma: no cover
    """Throughput guard against the best committed service rows.

    Matches by (sessions, txns_per_session, chunk_ops, workload,
    durability) among
    the five most recent ``service_scaling`` runs (the same recency
    window the batch guard uses, so a one-off fast machine ages out).
    """
    from _record import load_runs

    runs = [
        run
        for run in load_runs(baseline_path)
        if run.get("benchmark") == "service_scaling"
    ][-5:]
    best = {}
    for run in runs:
        for row in run.get("results", []):
            if "ops_per_second" not in row:
                continue
            key = (
                row.get("mode", "service"),
                row.get("sessions"),
                row.get("txns_per_session"),
                row.get("chunk_ops"),
                row.get("workload", "list-append"),
                row.get("durability", False),
            )
            if key not in best or row["ops_per_second"] > best[key]:
                best[key] = row["ops_per_second"]
    violations = []
    for row in results:
        if "ops_per_second" not in row:
            continue
        key = (
            row.get("mode", "service"),
            row["sessions"],
            row["txns_per_session"],
            row["chunk_ops"],
            row["workload"],
            row.get("durability", False),
        )
        reference = best.get(key)
        if reference is None:
            print(f"baseline: no committed service record for {key}; skipping")
            continue
        if row["ops_per_second"] < reference / tolerance:
            violations.append(
                f"{key[1]} sessions/{key[2]} txns/chunk={key[3]}: "
                f"{row['ops_per_second']:.0f} ops/s vs best committed "
                f"{reference:.0f} ops/s (tolerance {tolerance:g}x)"
            )
    return violations


def main(argv=None) -> None:  # pragma: no cover - manual entry point
    from _record import record_run

    parser = argparse.ArgumentParser(
        description="Benchmark the checker daemon with N interleaved "
        "sessions and record sustained throughput + chunk latency."
    )
    parser.add_argument(
        "--sessions",
        type=int,
        nargs="+",
        default=[1, 4, 16],
        metavar="N",
        help="interleaved session counts to sweep (default: 1 4 16)",
    )
    parser.add_argument("--txns", type=int, default=1000,
                        help="transactions per session (default: 1000)")
    parser.add_argument("--workload", default="list-append",
                        choices=["list-append", "rw-register",
                                 "grow-set", "counter"])
    parser.add_argument("--isolation", default="serializable")
    parser.add_argument("--fault", default=None,
                        help="fault injector name for every session")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frame-ops", type=int, default=500,
                        help="operations per append frame (default: 500)")
    parser.add_argument("--chunk", type=int, default=1000,
                        help="server analysis slice size (default: 1000)")
    parser.add_argument("--socket-dir", default="/tmp",
                        help="directory for the benchmark unix sockets")
    parser.add_argument(
        "--durability",
        action="store_true",
        help="run the daemon with a write-ahead log and checkpoints on a "
        "throwaway data dir, measuring the durable-ingest overhead",
    )
    parser.add_argument(
        "--fsync",
        default="batch",
        choices=["always", "batch", "never"],
        help="fsync policy for --durability (default: batch)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=20_000,
        metavar="OPS",
        help="checkpoint cadence for --durability (default: 20000)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="run the daemon with telemetry live (metrics registry + "
        "chunk tracer) and record analyze_ms_p50/p95/p99 from the "
        "tracer's per-chunk spans",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="run the first --sessions shape twice, telemetry off then "
        "on, and fail (exit 2) when the instrumented run is slower than "
        "1/--obs-tolerance of the bare run",
    )
    parser.add_argument(
        "--obs-tolerance",
        type=float,
        default=1.05,
        metavar="X",
        help="throughput ratio tolerated by --obs-overhead "
        "(default: 1.05, i.e. within 5%%)",
    )
    parser.add_argument(
        "--soak",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the forever-stream soak instead of the session sweep: "
        "auto-retiring sessions ingest rotating-keyspace waves for this "
        "long; the row records total vs resident ops and peak RSS, and "
        "the run fails when residency grows past --mem-tolerance",
    )
    parser.add_argument(
        "--soak-sessions",
        type=int,
        default=3,
        metavar="N",
        help="concurrent sessions during --soak (default: 3)",
    )
    parser.add_argument(
        "--soak-wave-txns",
        type=int,
        default=150,
        metavar="TXNS",
        help="transactions per wave per session during --soak "
        "(default: 150)",
    )
    parser.add_argument(
        "--retire-window",
        type=int,
        default=50,
        metavar="TXNS",
        help="retire_idle_txns for soak sessions: the settled prefix "
        "retires after each slice, sparing the newest N transactions "
        "(default: 50)",
    )
    parser.add_argument(
        "--mem-tolerance",
        type=float,
        default=3.0,
        metavar="X",
        help="--soak fails when peak resident ops exceed X times the "
        "first wave's residency (default: 3.0)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="benchmark record file treated as the committed baseline; "
        "rows slower than the best matching service record by more than "
        "--tolerance fail the run (exit 2)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        metavar="X",
        help="throughput slowdown multiplier tolerated before failing "
        "(default 4.0; heterogeneous runners need headroom)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="benchmark record file (default: BENCH_elle_scaling.json "
        "at the repository root)",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        results, failures = _obs_overhead(args)
        path = record_run(
            "service_scaling", results, path=args.out,
            cpu_count=os.cpu_count(),
        )
        print(f"recorded to {path}")
        if failures:
            print("telemetry overhead guard FAILED:")
            for line in failures:
                print(f"  {line}")
            sys.exit(2)
        return

    if args.soak is not None:
        row, failures = _soak(args)
        path = record_run(
            "service_scaling", [row], path=args.out, cpu_count=os.cpu_count()
        )
        print(f"recorded to {path}")
        if failures:
            print("service soak FAILED:")
            for line in failures:
                print(f"  {line}")
            sys.exit(2)
        return

    results = []
    for sessions in args.sessions:
        streams = _session_streams(sessions, args)
        expected = _batch_expectations(streams, args.workload)
        obs = _bench_obs(args) if args.obs else None
        row, verdicts = _measure(streams, args, obs=obs)
        _verify(verdicts, expected)
        results.append(row)
        mode = f" [durable, fsync={args.fsync}]" if args.durability else ""
        if args.obs:
            mode += " [obs]"
        print(
            f"{sessions:>3} sessions x {args.txns} txns{mode}: "
            f"{row['ops_per_second']:>9.0f} ops/s, "
            f"mean chunk {row['mean_chunk_seconds'] * 1e3:.1f} ms, "
            f"max {row['max_chunk_seconds'] * 1e3:.1f} ms "
            f"({row['chunks']} chunks), append p99 "
            f"{row['append_ms_p99']:.1f} ms"
        )

    violations = (
        _enforce_baseline(results, args.baseline, args.tolerance)
        if args.baseline
        else []
    )
    path = record_run(
        "service_scaling", results, path=args.out, cpu_count=os.cpu_count()
    )
    print(f"recorded to {path}")
    if violations:
        print("service benchmark regression guard FAILED:")
        for line in violations:
            print(f"  {line}")
        sys.exit(2)


if __name__ == "__main__":  # pragma: no cover
    main()
