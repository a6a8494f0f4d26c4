"""Blocking client for the checker daemon, plus a multi-session load driver.

:class:`ServiceClient` speaks the lockstep frame protocol over a TCP or
unix socket: every request writes one line and reads one reply line, so
the client needs no event loop and embeds anywhere — test harnesses,
CI scripts, ``python -m repro --connect``.  Error replies raise
:class:`~repro.errors.ServiceError` with the server's message and code.

Every connect, read, and write is bounded by a timeout: a frozen or dead
daemon surfaces as :class:`~repro.errors.ServiceUnavailableError` instead
of a hang.  With ``retries > 0`` the client also *recovers*: it redials
with exponential backoff, re-opens its sessions with ``resume`` (the
daemon restores them — live, or from its durability directory after a
crash), and re-sends the interrupted request.  Appends carry client-side
sequence numbers, so a re-sent batch the server already journaled and
applied is acknowledged again without being re-applied — resume is
idempotent and no acked operation is ever lost or doubled.

:func:`run_load` is the standing load generator: it builds N independent
observations from the existing workload generator (optionally with a
fault injector), opens N sessions on one connection, and interleaves
their ``append`` frames round-robin — the service's intended traffic
shape — then collects every verdict and the server's stats.  The CI
smoke job and ``benchmarks/bench_service.py`` both drive it.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from collections import deque
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..db import INJECTORS, Isolation
from ..errors import ServiceError, ServiceUnavailableError
from ..generator import RunConfig, WorkloadConfig, run_workload
from ..history.ops import Op, OpType
from ..obs import percentiles
from .protocol import decode_frame, encode_frame, encode_ops

#: Append round-trip latencies retained for the client metrics snapshot.
APPEND_LATENCY_WINDOW = 1024

Address = Union[str, Tuple[str, int]]


def retry_delay(
    rng: random.Random, base: float, previous: float, cap: float
) -> float:
    """One decorrelated-jitter backoff step.

    ``uniform(base, previous * 3)`` capped at ``cap`` — the classic
    decorrelated jitter: the next delay is drawn from a window that grows
    with the previous one, so a fleet of clients that all lost the same
    daemon spreads its redials across time instead of thundering back in
    synchronized exponential waves.
    """
    return min(cap, rng.uniform(base, max(base, previous * 3)))


def parse_address(text: str) -> Address:
    """``HOST:PORT`` or ``unix:PATH`` into a connectable address."""
    if text.startswith("unix:"):
        return text  # kept verbatim; connect() strips the scheme
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ServiceError(
            f"bad address {text!r}; expected HOST:PORT or unix:PATH"
        )
    return (host or "127.0.0.1", int(port))


class _SessionState:
    """Client-side resume bookkeeping for one open session."""

    __slots__ = ("open_frame", "next_seq")

    def __init__(self, open_frame: Dict[str, Any]) -> None:
        self.open_frame = open_frame
        self.next_seq = 1  # sequence number the next append will carry


class ServiceClient:
    """A lockstep connection to a running checker daemon.

    ``timeout`` bounds every connect, write, and reply read; expiry (or a
    refused/reset/closed connection) raises
    :class:`~repro.errors.ServiceUnavailableError`.  ``retries`` is how
    many times one request may redial after such a failure — the default
    0 keeps the historical fail-fast behavior; chaos-facing callers pass
    e.g. ``retries=5`` and survive a daemon ``kill -9`` mid-stream.
    ``backoff`` is the base retry delay; each retry sleeps a
    decorrelated-jitter draw (see :func:`retry_delay`) capped at
    ``max_backoff``, so many clients redialing the same daemon spread
    out instead of thundering.  A structured ``overloaded`` reply (the
    daemon shed the request under memory pressure) is also retried, and
    its server-suggested ``retry_after`` takes precedence over the local
    backoff.  ``rng`` injects the jitter source (tests seed it).
    """

    # Telemetry counters default at class level so partially constructed
    # clients (tests build them via ``__new__``) still count correctly;
    # augmented assignment rebinds them per instance.
    _connects = 0
    _requests = 0
    _retries = 0
    _sessions_resumed = 0
    _backoff_seconds = 0.0
    _appends = 0
    _append_ms: Optional[deque] = None

    def __init__(
        self,
        address: Address,
        timeout: float = 60.0,
        *,
        retries: int = 0,
        backoff: float = 0.2,
        max_backoff: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        self.address: Address = address
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._sessions: Dict[str, _SessionState] = {}
        self._append_ms = deque(maxlen=APPEND_LATENCY_WINDOW)
        self._connect()

    # ------------------------------------------------------------------
    # Transport

    def _connect(self) -> None:
        try:
            if isinstance(self.address, str):  # "unix:PATH", kept verbatim
                scheme = len("unix:")
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.address[scheme:])
            else:
                sock = socket.create_connection(
                    self.address, timeout=self.timeout
                )
        except (OSError, socket.timeout) as exc:
            raise ServiceUnavailableError(
                f"cannot connect to {self.address!r}: {exc}"
            ) from None
        self._sock = sock
        self._fh = sock.makefile("rwb")
        self._connects += 1

    def _drop_connection(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _exchange(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One raw round trip.  Transport failure drops the connection and
        raises :class:`ServiceUnavailableError`; a structured error reply
        raises :class:`ServiceError` (the connection stays good)."""
        if self._fh is None:
            self._connect()
            self._resume_sessions()
        try:
            self._fh.write(encode_frame(frame))
            self._fh.flush()
            line = self._fh.readline()
        except socket.timeout:
            self._drop_connection()
            raise ServiceUnavailableError(
                f"request timed out after {self.timeout}s "
                "(daemon frozen or unreachable)"
            ) from None
        except (OSError, ValueError) as exc:
            self._drop_connection()
            raise ServiceUnavailableError(
                f"connection to checker service lost: {exc}"
            ) from None
        if not line:
            self._drop_connection()
            raise ServiceUnavailableError(
                "connection closed by server mid-request"
            )
        reply = decode_frame(line)
        if reply.get("type") == "error":
            raise ServiceError(
                reply.get("error", "unknown service error"),
                code=reply.get("code"),
                retry_after=reply.get("retry_after"),
            )
        return reply

    def _resume_sessions(self) -> None:
        """Re-attach every tracked session on a fresh connection.

        ``resume: true`` makes the re-open idempotent: the daemon attaches
        to a live session, restores an evicted/crashed one from disk, or
        creates it fresh — and its ``applied_seq`` reply tells us which
        appends it has already durably applied, so the pending re-send in
        :meth:`request` dedupes instead of doubling.
        """
        for state in self._sessions.values():
            reply = self._exchange(state.open_frame)
            applied = reply.get("applied_seq", 0)
            state.next_seq = max(state.next_seq, applied + 1)
            self._sessions_resumed += 1

    # ------------------------------------------------------------------

    def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame, await its reply; error replies raise.

        Retries transport failures (up to ``self.retries`` times, with
        decorrelated-jitter backoff) by reconnecting, resuming every open
        session, and re-sending this frame verbatim.  Appends are safe to
        re-send because they carry sequence numbers; the other frames are
        read-only or idempotent by construction.  Structured
        ``overloaded`` replies retry too, sleeping the server-suggested
        ``retry_after`` when one is given.
        """
        attempt = 0
        delay = self.backoff
        self._requests += 1
        while True:
            try:
                return self._exchange(frame)
            except ServiceUnavailableError:
                if attempt >= self.retries:
                    raise
                delay = retry_delay(
                    self._rng, self.backoff, delay, self.max_backoff
                )
                attempt += 1
                self._retries += 1
                self._backoff_seconds += delay
                time.sleep(delay)
            except ServiceError as exc:
                if exc.code != "overloaded" or attempt >= self.retries:
                    raise
                delay = retry_delay(
                    self._rng, self.backoff, delay, self.max_backoff
                )
                attempt += 1
                self._retries += 1
                sleep_for = (
                    exc.retry_after if exc.retry_after is not None else delay
                )
                self._backoff_seconds += sleep_for
                time.sleep(sleep_for)

    def open_session(
        self,
        session_id: Optional[str] = None,
        workload: str = "list-append",
        consistency_model: str = "serializable",
        chunk_ops: Optional[int] = None,
        timestamp_edges: bool = False,
        options: Optional[Dict[str, Any]] = None,
        resume: Optional[bool] = None,
        fresh: bool = False,
        max_ops: Optional[int] = None,
        max_analyze_seconds: Optional[float] = None,
        retire_idle_txns: int = 0,
    ) -> str:
        """Open (or, with ``resume``, re-attach) a checking session.

        ``resume`` defaults to on exactly when the client retries: a
        retried ``open`` whose first ack was lost must not fail as a
        duplicate.  ``fresh=True`` asks a durable daemon to discard any
        on-disk state under this id first.
        """
        if resume is None:
            resume = self.retries > 0
        frame: Dict[str, Any] = {
            "type": "open",
            "session": session_id or f"c-{uuid.uuid4().hex[:12]}",
            "workload": workload,
            "model": consistency_model,
            "timestamp_edges": timestamp_edges,
        }
        if chunk_ops is not None:
            frame["chunk"] = chunk_ops
        if options:
            frame["options"] = options
        if max_ops is not None:
            frame["max_ops"] = max_ops
        if max_analyze_seconds is not None:
            frame["max_analyze_seconds"] = max_analyze_seconds
        if retire_idle_txns:
            frame["retire_idle_txns"] = retire_idle_txns
        if resume:
            frame["resume"] = True
        if fresh:
            frame["fresh"] = True
        reply = self.request(frame)
        opened = reply["session"]
        # Track for reconnect: later resumes must not wipe state again.
        reopen = dict(frame, session=opened, resume=True)
        reopen.pop("fresh", None)
        state = _SessionState(reopen)
        state.next_seq = reply.get("applied_seq", 0) + 1
        self._sessions[opened] = state
        return opened

    def append(self, session_id: str, ops: Sequence[Op]) -> Dict[str, Any]:
        frame: Dict[str, Any] = {
            "type": "append",
            "session": session_id,
            "ops": encode_ops(ops),
        }
        state = self._sessions.get(session_id)
        if state is not None:
            frame["seq"] = state.next_seq
        begin = time.perf_counter()
        reply = self.request(frame)
        if self._append_ms is None:
            self._append_ms = deque(maxlen=APPEND_LATENCY_WINDOW)
        self._append_ms.append((time.perf_counter() - begin) * 1000.0)
        self._appends += 1
        if state is not None:
            state.next_seq = reply.get("applied_seq", state.next_seq) + 1
        return reply

    def verdict(self, session_id: str, report: bool = False) -> Dict[str, Any]:
        return self.request({
            "type": "verdict",
            "session": session_id,
            "report": bool(report),
        })

    def ping(self) -> Dict[str, Any]:
        """The ``ping`` health frame: liveness plus load at a glance."""
        return self.request({"type": "ping"})

    def stats(self, session_id: Optional[str] = None) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"type": "stats"}
        if session_id is not None:
            frame["session"] = session_id
        return self.request(frame)

    def close_session(self, session_id: str) -> Dict[str, Any]:
        self._sessions.pop(session_id, None)
        try:
            return self.request({"type": "close", "session": session_id})
        except ServiceError as exc:
            if self.retries > 0 and exc.code == "unknown-session":
                # The close itself was retried and its first ack lost:
                # the session is gone, which is what we asked for.
                return {"type": "closed", "session": session_id}
            raise

    @property
    def metrics(self) -> Dict[str, Any]:
        """A snapshot of this client's own telemetry.

        ``redials`` counts reconnects after the first dial;
        ``backoff_seconds`` is cumulative sleep across every retry;
        ``append_ms`` is the p50/p95/p99 digest of append round-trip
        latency (request write to reply read — backpressure waits
        included) over the last ``APPEND_LATENCY_WINDOW`` appends.
        """
        return {
            "requests": self._requests,
            "retries": self._retries,
            "redials": max(0, self._connects - 1),
            "sessions_resumed": self._sessions_resumed,
            "backoff_seconds": round(self._backoff_seconds, 4),
            "appends": self._appends,
            "append_ms": {
                name: round(value, 3)
                for name, value in percentiles(
                    self._append_ms or ()
                ).items()
            },
        }

    def close(self) -> None:
        self._sessions.clear()
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Load generation


def session_workload(
    workload: str = "list-append",
    isolation: str = "serializable",
    fault: Optional[str] = None,
    seed: int = 0,
    txns: int = 500,
    concurrency: int = 8,
    active_keys: int = 4,
    max_writes_per_key: Optional[int] = None,
) -> List[Op]:
    """One session's worth of traffic from the simulator, as operations.

    ``max_writes_per_key`` bounds per-key writes so the keyspace rotates
    — the traffic shape that makes settled-prefix retirement
    (``retire_idle_txns``) effective on long-running sessions.
    """
    fault_factory = None
    if fault is not None:
        injector = INJECTORS[fault]

        def fault_factory(rng, _cls=injector):
            return _cls(rng)

    workload_config = (
        WorkloadConfig(
            workload=workload,
            active_keys=active_keys,
            max_writes_per_key=max_writes_per_key,
        )
        if max_writes_per_key is not None
        else WorkloadConfig(workload=workload, active_keys=active_keys)
    )
    history = run_workload(
        RunConfig(
            txns=txns,
            concurrency=concurrency,
            isolation=Isolation(isolation),
            workload=workload_config,
            seed=seed,
            faults=fault_factory,
        )
    )
    return list(history.ops)


def rotating_stream(waves: Iterable[Sequence[Op]]) -> List[Op]:
    """Concatenate waves into one forever-stream that retirement can settle.

    Each wave is shifted past the op indices, integer keys and processes
    of the waves before it, and loses the invocations it left in flight
    (a never-completed invoke pins its keys and dependents forever).
    """
    stream: List[Op] = []
    key_base = process_base = 0
    for ops in waves:
        last = {op.process: op for op in ops}
        dangling = {op.index for op in last.values() if op.type is OpType.INVOKE}
        ops = [op for op in ops if op.index not in dangling]
        if not ops:
            continue
        index_base = stream[-1].index + 1 - ops[0].index if stream else 0
        for op in ops:
            value = op.value
            if value is not None:
                value = tuple(replace(m, key=m.key + key_base) for m in value)
            stream.append(
                replace(
                    op,
                    index=op.index + index_base,
                    process=op.process + process_base,
                    value=value,
                )
            )
        key_base += 1 + max(
            (m.key for op in ops if op.value for m in op.value), default=-1
        )
        process_base += 1 + max(op.process for op in ops)
    return stream


def run_load(
    address: Address,
    *,
    sessions: int = 4,
    txns: int = 500,
    workload: str = "list-append",
    isolation: str = "serializable",
    fault: Optional[str] = None,
    consistency_model: str = "serializable",
    seed: int = 0,
    frame_ops: int = 250,
    chunk_ops: int = 1000,
    report: bool = False,
    streams: Optional[Dict[str, Sequence[Op]]] = None,
    timeout: float = 60.0,
    retries: int = 0,
) -> Dict[str, Any]:
    """Drive N interleaved sessions against a daemon; returns the verdicts.

    Each session gets an independent simulated observation (seeds
    ``seed .. seed+N-1``); their ``append`` frames of ``frame_ops``
    operations are interleaved round-robin on one connection, the way
    many concurrent test runs would share one resident checker.  Returns
    per-session verdict records, the server stats, and throughput
    (``ops_per_second`` over the append+verdict phase).

    ``streams`` overrides the generated traffic with pre-built op
    sequences per session name (callers that also batch-check the same
    streams — the benchmark — generate each observation only once).
    """
    if streams is None:
        streams = {
            f"load-{index}": session_workload(
                workload=workload,
                isolation=isolation,
                fault=fault,
                seed=seed + index,
                txns=txns,
            )
            for index in range(sessions)
        }
    else:
        sessions = len(streams)
    with ServiceClient(address, timeout=timeout, retries=retries) as client:
        for name in streams:
            client.open_session(
                session_id=name,
                workload=workload,
                consistency_model=consistency_model,
                chunk_ops=chunk_ops,
            )
        begin = time.perf_counter()
        cursors = {name: 0 for name in streams}
        live = list(streams)
        while live:
            for name in list(live):
                ops = streams[name]
                start = cursors[name]
                if start >= len(ops):
                    live.remove(name)
                    continue
                client.append(name, ops[start:start + frame_ops])
                cursors[name] = start + frame_ops
        verdicts = {
            name: client.verdict(name, report=report) for name in streams
        }
        elapsed = time.perf_counter() - begin
        stats = client.stats()
        client_metrics = client.metrics
        for name in streams:
            client.close_session(name)
    total_ops = sum(len(ops) for ops in streams.values())
    return {
        "sessions": sessions,
        "txns_per_session": txns,
        "ops": total_ops,
        "seconds": elapsed,
        "ops_per_second": total_ops / elapsed if elapsed else float("inf"),
        "verdicts": verdicts,
        "stats": stats,
        "client": client_metrics,
    }
