"""The ``serve-durable`` workload: a durable daemon fed by a closed loop.

One client process drives a ``python -m repro serve`` daemon over a unix
socket: one connection, one outstanding frame.  Two auto-retiring
sessions take rotating-keyspace list-append traffic round-robin, frame
by frame; one runs against a clean serializable database, the other
under the ``tidb-retry`` injector (§7.1).  The daemon journals every
append (``--fsync batch``) and checkpoints every ``CHECKPOINT_EVERY``
analyzed ops, so checkpoints land during the run.

After the stream the daemon is killed with SIGKILL and restarted on the
same data directory, ``RESTARTS`` times; each time the client resumes
both sessions and asks for their verdicts, which must equal the verdicts
from before the kill.  Each session's verdict must also equal a batch
``check()`` of the same operations, and that check's time is the
workload's ``check_s``.  Set-up, check and stream times are reported
normalized to the host's speed (``harness.Probe``); the wall figures are
in the row.

The input is sized from ``--seconds`` (``ROUNDS_PER_SECOND``), so one
seed and one run length always stream the same operations.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness
from harness import BenchmarkError, Probe, Spans, median, percentile

#: Session name -> fault injector (``None`` = clean database).
SESSIONS = {"clean": None, "retry": "tidb-retry"}
MODEL = "serializable"
WAVE_TXNS = 150
FRAME_OPS = 100
#: Frames per timed stream segment; the host probe runs between segments.
SEGMENT_FRAMES = 24
CHUNK_OPS = 500
RETIRE_IDLE_TXNS = 50
CHECKPOINT_EVERY = 4000
FSYNC = "batch"
#: Waves per session streamed per second of ``--seconds``; sizes the
#: input from the run length so one seed always means the same input.
ROUNDS_PER_SECOND = 2.5
#: Kill/restart cycles per run (recover_s and set-up are their medians).
RESTARTS = 3
CHECK_REPS = 9
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# Input: rotating-keyspace waves


def _completed(ops):
    """Drop the invocations a wave left in flight.

    Every wave gets fresh processes, so an invoke the wave never completed
    would stay pending forever and pin the retirement horizon.
    """
    from repro.history.ops import OpType

    last = {}
    for op in ops:
        last[op.process] = op
    dangling = {op.index for op in last.values() if op.type is OpType.INVOKE}
    return [op for op in ops if op.index not in dangling]


def _rebase(ops, index_base, key_base, process_base):
    """Shift a wave past the indices, keys and processes already sent."""
    out = []
    for op in ops:
        value = op.value
        if value is not None:
            value = tuple(
                dataclasses.replace(m, key=m.key + key_base) for m in value
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


def session_stream(seed: int, slot: int, fault: Optional[str], rounds: int):
    """One session's whole stream: ``rounds`` re-based waves."""
    from repro.service.client import session_workload

    stream: List = []
    key_base = process_base = 0
    for wave in range(rounds):
        ops = _completed(
            session_workload(
                fault=fault,
                seed=(seed * 1_000_003 + wave) * 2 + slot,
                txns=WAVE_TXNS,
                active_keys=4,
                max_writes_per_key=4,
            )
        )
        index_base = stream[-1].index + 1 if stream else 0
        stream.extend(_rebase(ops, index_base, key_base, process_base))
        key_base += 1 + max(m.key for op in ops if op.value for m in op.value)
        process_base += 1 + max(op.process for op in ops)
    return stream


def frames(streams: Dict[str, List]) -> List[Tuple[str, List]]:
    """Append frames of every session, interleaved round-robin."""
    cut = {
        name: [ops[i:i + FRAME_OPS] for i in range(0, len(ops), FRAME_OPS)]
        for name, ops in streams.items()
    }
    out = []
    for i in range(max(len(c) for c in cut.values())):
        for name, chunks in cut.items():
            if i < len(chunks):
                out.append((name, chunks[i]))
    return out


# ---------------------------------------------------------------------------
# The daemon


class Daemon:
    """One ``python -m repro serve`` process on a unix socket."""

    def __init__(self, work: Path, traced: bool) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.sock = work / "d.sock"
        self.data_dir = work / "data"
        self.log_json = work / "events.jsonl"
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.address = "unix:" + os.path.relpath(self.sock)
        self.starts = 0

    def start(self) -> float:
        """Spawn and wait for the first ``pong``; returns set-up seconds."""
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        if self.sock.exists():
            self.sock.unlink()
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--unix", os.path.relpath(self.sock),
            "--data-dir", os.path.relpath(self.data_dir),
            "--fsync", FSYNC,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--quiet",
        ]
        if self.traced:
            argv += [
                "--metrics-port", "0",
                "--trace-chunks", "16384",
                "--log-json", os.path.relpath(self.log_json),
                "--log-level", "info",
            ]
        out = open(self.work / f"daemon-{self.starts}.log", "w")
        begin = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT,
                env=harness.child_env(), cwd=str(harness.ROOT),
            )
        finally:
            out.close()
        self.starts += 1
        while True:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"daemon exited with {self.proc.returncode} at start"
                )
            if self.sock.exists():
                try:
                    with ServiceClient(self.address, timeout=5.0) as client:
                        if client.ping()["type"] == "pong":
                            return time.perf_counter() - begin
                except ServiceError:
                    pass
            if time.perf_counter() - begin > START_TIMEOUT_S:
                raise BenchmarkError("daemon did not answer ping")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM not found")

    def kill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self) -> None:
        """Graceful drain; SIGKILL when it does not end in time."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()

    def data_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.data_dir.rglob("*")
            if path.is_file()
        )


def _open(client, name: str) -> None:
    client.open_session(
        session_id=name,
        workload="list-append",
        consistency_model=MODEL,
        chunk_ops=CHUNK_OPS,
        retire_idle_txns=RETIRE_IDLE_TXNS,
        resume=True,
    )


#: Verdict fields that must match between streamed, resumed and batch.
VERDICT_KEYS = ("valid", "anomalies", "anomaly_types", "not", "but_possibly")


def _summary(record: Dict[str, Any]) -> Dict[str, Any]:
    return {key: record[key] for key in VERDICT_KEYS}


def _batch_summary(result) -> Dict[str, Any]:
    return {
        "valid": result.valid,
        "anomalies": len(result.anomalies),
        "anomaly_types": list(result.anomaly_types),
        "not": sorted(result.not_),
        "but_possibly": sorted(result.but_possibly),
    }


# ---------------------------------------------------------------------------
# Telemetry readers (traced runs only)


def _http_get(metrics_address: str, path: str) -> str:
    host_port = metrics_address.split("://", 1)[-1]
    host, port = host_port.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    if response.status != 200:
        raise BenchmarkError(f"GET {path} answered {response.status}")
    return body


def parse_exposition(text: str) -> Dict[str, List[Tuple[str, float]]]:
    """Prometheus text format -> ``{series name: [(labels, value)]}``."""
    series: Dict[str, List[Tuple[str, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        series.setdefault(name, []).append((labels.rstrip("}"), float(value)))
    return series


def _total(series, name: str) -> float:
    return sum(value for _labels, value in series.get(name, ()))


def histogram_quantile(series, name: str, q: float) -> float:
    """Quantile ``q`` of an unlabelled histogram, linear within buckets."""
    buckets = []
    for labels, count in series.get(name + "_bucket", ()):
        bound = labels.split('le="', 1)[1].split('"', 1)[0]
        buckets.append((float("inf") if bound == "+Inf" else float(bound), count))
    buckets.sort()
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            span = count - lower_count
            share = (rank - lower_count) / span if span else 1.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


def _span_ms(trace: Dict[str, Any], name: str) -> float:
    return sum(span["ms"] for span in trace["spans"] if span["name"] == name)


# ---------------------------------------------------------------------------
# One phase: stream, verdicts, kill/restart cycles


def stream_phase(streams, sent_bytes: int, work: Path, traced: bool,
                 spans: Spans, probe: Probe):
    """Run the whole durable phase once; returns its measurements.

    ``sent_bytes`` is the size of the streamed ops as compact JSON, the
    denominator of ``write_amp``.  The stream goes out in segments of
    ``SEGMENT_FRAMES`` frames, each ending with both sessions' verdicts,
    so the daemon is idle when the client probes the host's speed
    between segments; probe time is not stream time.  Set-up and
    recovery are bracketed by probes too.
    """
    from repro.errors import ReproError
    from repro.service import ServiceClient

    daemon = Daemon(work, traced)
    out: Dict[str, Any] = {
        "setup_s": [], "recover_s": [], "probe_s": [], "failures": [],
    }

    def bracketed(key: str, seconds: float, before: float) -> None:
        """Record a timing raw and normalized by the probes around it."""
        after = probe()
        out["probe_s"] += [before, after]
        out[key].append(seconds)
        out.setdefault(key + "_normalized", []).append(
            harness.normalize(seconds, (before + after) / 2)
        )

    attempted = failed = 0
    plan = frames(streams)
    try:
        before = probe()
        with spans.span("daemon.start"):
            bracketed("setup_s", daemon.start(), before)
        append_ms: List[float] = []
        resident: List[int] = []
        with ServiceClient(daemon.address, timeout=120.0) as client:
            for name in streams:
                _open(client, name)
            with spans.span("stream", frames=len(plan)) as stream_span:
                ingest_s = ingest_normalized_s = 0.0
                acked = 0
                before = probe()
                for start in range(0, len(plan), SEGMENT_FRAMES):
                    segment = plan[start:start + SEGMENT_FRAMES]
                    begin = time.perf_counter()
                    for i, (name, ops) in enumerate(segment, start):
                        attempted += 1
                        sent = time.perf_counter()
                        try:
                            acked += client.append(name, ops)["ops"]
                        except ReproError as exc:
                            failed += 1
                            out["failures"].append(
                                f"append to {name}: {exc}"
                            )
                        append_ms.append(
                            (time.perf_counter() - sent) * 1000.0
                        )
                        if traced and i % 20 == 0:
                            resident.append(
                                client.stats()["server"]["resident_ops"]
                            )
                    verdicts = {}
                    for name in streams:
                        verdicts[name] = _summary(client.verdict(name))
                    segment_s = time.perf_counter() - begin
                    after = probe()
                    out["probe_s"].append(after)
                    ingest_s += segment_s
                    ingest_normalized_s += harness.normalize(
                        segment_s, (before + after) / 2
                    )
                    before = after
            stream_span["verdicts"] = verdicts
            stats = client.stats()
            if traced:
                address = stats["metrics_address"]
                out["metrics_text"] = _http_get(address, "/metrics")
                out["traces"] = json.loads(
                    _http_get(address, "/traces?limit=16384")
                )
                resident.append(stats["server"]["resident_ops"])
        out.update(
            verdicts=verdicts,
            ingest_ops_per_s=acked / ingest_normalized_s,
            ingest_ops_per_s_wall=acked / ingest_s,
            append_ms=append_ms,
            stats=stats,
            resident_peak=max(resident) if resident else 0,
            peak_rss_mb=daemon.peak_rss_mb(),
            write_amp=daemon.data_bytes() / sent_bytes,
            checkpoint_files_bytes=sum(
                p.stat().st_size for p in daemon.data_dir.rglob("*.ckpt")
            ),
        )
        for cycle in range(RESTARTS):
            with spans.span("recover", cycle=cycle) as recover_span:
                before = probe()
                begin = time.perf_counter()
                daemon.kill()
                setup_s = daemon.start()
                with ServiceClient(daemon.address, timeout=120.0) as client:
                    for name in streams:
                        _open(client, name)
                    resumed = {
                        name: _summary(client.verdict(name))
                        for name in streams
                    }
                recover_s = time.perf_counter() - begin
                bracketed("setup_s", setup_s, before)
                out["recover_s"].append(recover_s)
            recover_span["verdicts"] = resumed
            for name in streams:
                attempted += 1
                if resumed[name] != verdicts[name]:
                    failed += 1
                    out["failures"].append(
                        f"{name}: resumed verdict {resumed[name]} differs "
                        f"from pre-kill verdict {verdicts[name]}"
                    )
    finally:
        daemon.stop()
    if traced and daemon.log_json.exists():
        restores = [
            json.loads(line)
            for line in daemon.log_json.read_text().splitlines()
            if '"session-restore"' in line
        ]
        out["wal_tail_ops"] = [event.get("backlog", 0) for event in restores]
    out.update(attempted=attempted, failed=failed)
    return out


def batch_checks(
    streams, reps: int, probe: Probe, warm_up: bool = False
) -> Tuple[List[float], List[float], Dict[str, Dict[str, Any]]]:
    """``reps`` batch ``check()`` passes over every session's ops.

    Returns each pass's seconds (both sessions), the same normalized by
    the probes on either side of the pass, and the verdicts.  With
    ``warm_up`` one more pass runs first, untimed: it pays this process's
    lazy imports.
    """
    from repro import History, check

    times, normalized, verdicts = [], [], {}
    probes = [probe()]
    for rep in range(reps + warm_up):
        total = 0.0
        for name, ops in streams.items():
            history = History(ops)
            begin = time.perf_counter()
            result = check(history, workload="list-append",
                           consistency_model=MODEL)
            total += time.perf_counter() - begin
            summary = _batch_summary(result)
            if verdicts.setdefault(name, summary) != summary:
                raise BenchmarkError(f"batch check of {name} is not stable")
        probes.append(probe())
        if rep or not warm_up:
            times.append(total)
            normalized.append(
                harness.normalize(total, (probes[-2] + probes[-1]) / 2)
            )
    return times, normalized, verdicts


def gate(phase, expected) -> Tuple[int, int, List[str]]:
    """Streamed verdicts against batch ones; the clean session is valid."""
    failures = list(phase["failures"])
    attempted = phase["attempted"]
    failed = phase["failed"]
    for name, want in expected.items():
        attempted += 1
        got = phase["verdicts"][name]
        if got != want:
            failed += 1
            failures.append(f"{name}: streamed {got} != batch {want}")
    if not expected["clean"]["valid"]:
        failed += 1
        failures.append("clean session is not valid")
    return attempted, failed, failures


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = harness.run_dir(name, seed, trace)
    try:
        return _run(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, trace, work: Path) -> int:
    from repro.history.io import encode_op
    from repro.history.ops import OpType

    spans = Spans(f"{name}-seed{seed}")
    rounds = max(2, round(seconds * ROUNDS_PER_SECOND))
    with spans.span("generate"):
        streams = {
            session: session_stream(seed, slot, fault, rounds)
            for slot, (session, fault) in enumerate(SESSIONS.items())
        }
    probe = Probe()
    with spans.span("batch-check"):
        check_wall, check_times, expected = batch_checks(
            streams, CHECK_REPS // 2, probe, warm_up=True
        )
    row: Dict[str, Any] = dict(
        harness.environment(seed),
        workload=name,
        rounds=rounds,
        ops=sum(len(ops) for ops in streams.values()),
        txns=sum(
            1 for ops in streams.values() for op in ops
            if op.type is OpType.INVOKE
        ),
        bytes=sum(
            len(json.dumps(encode_op(op), separators=(",", ":")))
            for ops in streams.values()
            for op in ops
        ),
        fsync=FSYNC,
        checkpoint_every=CHECKPOINT_EVERY,
        expected=expected,
    )
    if trace:
        return _trace(name, seed, streams, work, spans, row, expected, probe)
    with spans.span("phase"):
        phase = stream_phase(
            streams, row["bytes"], work, False, spans, probe
        )
    # The rest of the check passes run after the stream, so the median
    # spans the run instead of one stretch of it.
    with spans.span("batch-check"):
        wall, times, again = batch_checks(
            streams, CHECK_REPS - CHECK_REPS // 2, probe
        )
    if again != expected:
        raise BenchmarkError("batch verdicts changed between passes")
    check_wall += wall
    check_times += times
    attempted, failed, failures = gate(phase, expected)
    metrics = {
        "setup_s": (median(phase["setup_s_normalized"]), "s"),
        "check_s": (median(check_times), "s"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
        "ingest_ops_per_s": (phase["ingest_ops_per_s"], "ops/s"),
    }
    row.update(
        _user_figures(phase),
        failed_frac=failed / attempted,
        setup_s_wall=median(phase["setup_s"]),
        check_s_wall=median(check_wall),
        ingest_ops_per_s_wall=phase["ingest_ops_per_s_wall"],
        probe_s=median(phase["probe_s"]),
    )
    return harness.emit(
        trace=trace,
        attempted=attempted, failed=failed, failures=failures,
        metrics=metrics, row=row,
    )


def _user_figures(phase) -> Dict[str, Any]:
    """The service user's figures that only this workload has."""
    return {
        "append_ms_p50": percentile(phase["append_ms"], 0.50),
        "append_ms_p95": percentile(phase["append_ms"], 0.95),
        "append_samples": len(phase["append_ms"]),
        "write_amp": phase["write_amp"],
        "recover_s": median(phase["recover_s"]),
    }


def _trace(name, seed, streams, work, spans, row, expected, probe) -> int:
    with spans.span("phase.untraced"):
        plain = stream_phase(
            streams, row["bytes"], work / "plain", False, spans, probe
        )
    with spans.span("phase.traced") as traced_span:
        traced = stream_phase(
            streams, row["bytes"], work / "traced", True, spans, probe
        )
    traced_span["daemon_traces"] = traced["traces"]
    attempted = failed = 0
    failures: List[str] = []
    for phase in (plain, traced):
        a, f, why = gate(phase, expected)
        attempted += a
        failed += f
        failures += why

    series = parse_exposition(traced["metrics_text"])
    traces = traced["traces"]
    chunk_ms = [t["ms"] for t in traces] or [0.0]
    sessions = traced["stats"]["sessions"].values()
    reused = sum(s["keys_reused"] for s in sessions)
    reanalyzed = sum(s["keys_reanalyzed"] for s in sessions)
    checkpoints = _total(series, "repro_checkpoints_written_total")
    figures = _user_figures(plain)
    metrics = {
        "service.chunk_ms_p50": (percentile(chunk_ms, 0.50), "ms"),
        "service.chunk_ms_p95": (percentile(chunk_ms, 0.95), "ms"),
        "service.keys_reused_frac": (
            reused / (reused + reanalyzed) if reused + reanalyzed else 0.0,
            "frac",
        ),
        "service.backpressure_wait_s": (
            _total(series, "repro_backpressure_wait_seconds_sum"), "s"
        ),
        "service.decode_ms_p50": (
            percentile([_span_ms(t, "decode") for t in traces] or [0.0], 0.5),
            "ms",
        ),
        "service.buffer_ms_p50": (
            percentile([_span_ms(t, "buffer") for t in traces] or [0.0], 0.5),
            "ms",
        ),
        "service.resident_ops_peak": (traced["resident_peak"], "count"),
        "wal.appends": (_total(series, "repro_wal_appends_total"), "count"),
        "wal.fsync_ms_p50": (
            1000.0 * histogram_quantile(series, "repro_wal_fsync_seconds", 0.5),
            "ms",
        ),
        "wal.fsync_ms_p95": (
            1000.0 * histogram_quantile(series, "repro_wal_fsync_seconds", 0.95),
            "ms",
        ),
        "checkpoint.count": (checkpoints, "count"),
        "checkpoint.s": (
            _total(series, "repro_checkpoint_seconds_sum") / checkpoints
            if checkpoints else 0.0,
            "s",
        ),
        "checkpoint.bytes": (
            _total(series, "repro_checkpoint_bytes_sum") / checkpoints
            if checkpoints else 0.0,
            "bytes",
        ),
        "recover.wal_tail_ops": (
            median(traced.get("wal_tail_ops") or [0]), "count"
        ),
        "append_ms_p50": (figures["append_ms_p50"], "ms"),
        "append_ms_p95": (figures["append_ms_p95"], "ms"),
        "write_amp": (figures["write_amp"], "ratio"),
        "recover_s": (figures["recover_s"], "s"),
        "obs.overhead": (
            plain["ingest_ops_per_s"] / traced["ingest_ops_per_s"] - 1.0,
            "frac",
        ),
    }
    row.update(
        figures,
        ingest_ops_per_s_untraced=plain["ingest_ops_per_s"],
        ingest_ops_per_s_traced=traced["ingest_ops_per_s"],
        checkpoint_files_bytes=traced["checkpoint_files_bytes"],
        chunks_traced=len(traces),
        trace_file=str(harness.trace_path(name, seed)),
    )
    spans.write(harness.trace_path(name, seed), {"row": row})
    return harness.emit(
        trace=True,
        attempted=attempted, failed=failed, failures=failures,
        metrics=metrics, row=row,
    )
