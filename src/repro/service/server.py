"""The checker daemon: an asyncio JSON-lines server over TCP/unix sockets.

One event loop multiplexes every connection and every session — the right
shape for a single-core box, where concurrency comes from interleaving,
not threads.  The split of labor with :mod:`repro.service.session`:

* each connection runs :meth:`CheckerService._handle` — read a frame,
  dispatch, write exactly one reply, repeat;
* one *analyzer task* repeatedly asks the registry for the next runnable
  session and analyzes a single bounded chunk, then yields the loop, so
  socket reads/writes interleave between slices and no session starves
  another;
* ``append`` replies are withheld while a session's backlog is at its
  high-watermark (:meth:`SessionRegistry.accepts`), which stalls the
  lockstep client — backpressure without any dedicated flow-control
  frames;
* an eviction task sweeps idle sessions on a timer.

``drain()`` is the graceful-shutdown path (wired to SIGTERM/SIGINT by
:func:`serve`): stop accepting connections, finish analyzing every
buffered operation, answer whatever frames are still in flight, write the
final stats record if configured, and return.  A client that already got
its verdicts sees a clean EOF.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..errors import ProtocolError, ReproError, ServiceError
from ..obs import Observability
from ..obs.httpd import MetricsExporter
from .durability import DurabilityManager
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    decode_ops,
    encode_frame,
    open_fields,
    request_type,
    update_record,
)
from .session import SessionConfig, SessionRegistry

#: How often the eviction sweep runs, as a fraction of the idle timeout.
EVICTION_SWEEPS_PER_TIMEOUT = 4


class CheckerService:
    """The daemon: listeners, the analyzer loop, and frame dispatch."""

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        stats_path: Optional[str] = None,
        durability: Optional[DurabilityManager] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        obs: Optional[Observability] = None,
        metrics_host: str = "127.0.0.1",
        metrics_port: Optional[int] = None,
    ) -> None:
        if port is None and unix_path is None:
            raise ServiceError("need a TCP port and/or a unix socket path")
        if max_frame_bytes <= 0:
            raise ServiceError("max_frame_bytes must be positive")
        if metrics_port is not None and (
            obs is None or obs.registry is None
        ):
            raise ServiceError(
                "metrics_port needs an Observability with a registry"
            )
        self.registry = registry if registry is not None else SessionRegistry()
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.stats_path = stats_path
        self.durability = durability
        self.max_frame_bytes = max_frame_bytes
        self.obs = obs
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self.exporter: Optional[MetricsExporter] = None
        self.started_at: Optional[float] = None
        self._started_mono: Optional[float] = None
        self.addresses: List[str] = []
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: set = set()
        self._tasks: List[asyncio.Task] = []
        self._work = asyncio.Event()
        self._progress = asyncio.Condition()
        self._draining = False
        self._stopped = asyncio.Event()
        if obs is not None:
            # One bundle for the whole stack: the registry and durability
            # layers inherit the server's instruments unless a test wired
            # their own.
            if self.registry.obs is None:
                self.registry.obs = obs
            if durability is not None and durability.obs is None:
                durability.obs = obs
            if obs.registry is not None:
                self._register_gauges(obs.registry)
        if durability is not None:
            # Idle eviction must leave a restorable session behind: the
            # final checkpoint covers everything analyzed (eviction only
            # fires on empty backlogs), so a later open restores it.
            self.registry.on_evict = self._checkpoint_for_eviction

    def _register_gauges(self, metrics_registry) -> None:
        """Callback gauges: scrape-time reads of the registry's truth."""
        registry = self.registry
        metrics_registry.gauge(
            "repro_sessions_open",
            "Sessions currently open.",
            fn=lambda: len(registry.sessions),
        )
        metrics_registry.gauge(
            "repro_backlog_ops",
            "Operations buffered but not yet analyzed, all sessions.",
            fn=lambda: sum(
                s.backlog for s in registry.sessions.values()
            ),
        )
        metrics_registry.gauge(
            "repro_resident_ops",
            "Operations resident in memory (checker state plus backlogs).",
            fn=lambda: sum(
                s.resident_ops for s in registry.sessions.values()
            ),
        )
        metrics_registry.gauge(
            "repro_est_bytes",
            "Estimated resident footprint in bytes, all sessions.",
            fn=registry.estimated_bytes,
        )
        metrics_registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the daemon's listeners bound.",
            fn=self.uptime_seconds,
        )
        metrics_registry.gauge(
            "repro_draining",
            "1 while the daemon is draining, else 0.",
            fn=lambda: 1 if self._draining else 0,
        )

    def uptime_seconds(self) -> float:
        if self._started_mono is None:
            return 0.0
        return time.monotonic() - self._started_mono

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> List[str]:
        """Bind the listeners and start the background tasks.

        Returns the bound addresses (``host:port`` — with the real port
        when 0 asked for an ephemeral one — and/or ``unix:path``).
        """
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=self.max_frame_bytes
            )
            bound = server.sockets[0].getsockname()
            self.port = bound[1]
            self.addresses.append(f"{bound[0]}:{bound[1]}")
            self._servers.append(server)
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle, self.unix_path, limit=self.max_frame_bytes
            )
            self.addresses.append(f"unix:{self.unix_path}")
            self._servers.append(server)
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        if self.metrics_port is not None:
            self.exporter = MetricsExporter(
                self.obs.registry,
                host=self.metrics_host,
                port=self.metrics_port,
                tracer=self.obs.tracer,
                health=self._pong,
            )
            self.metrics_port = await self.exporter.start()
        if self.obs is not None:
            self.obs.emit(
                "serve-start",
                addresses=list(self.addresses),
                metrics=(
                    self.exporter.address
                    if self.exporter is not None
                    else None
                ),
            )
        self._tasks.append(asyncio.create_task(self._analyze_loop()))
        self._tasks.append(asyncio.create_task(self._evict_loop()))
        return self.addresses

    async def drain(self) -> Dict[str, Any]:
        """Graceful shutdown: no new connections, all backlogs analyzed."""
        if self._draining:
            await self._stopped.wait()
            return self.stats_record()
        self._draining = True
        if self.obs is not None:
            self.obs.emit(
                "drain-begin",
                sessions=len(self.registry.sessions),
                backlog=sum(
                    s.backlog for s in self.registry.sessions.values()
                ),
            )
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # Let the analyzer finish every buffered chunk before stopping it.
        self._work.set()
        async with self._progress:
            while self.registry.has_work():
                await self._progress.wait()
            # Wake parked append waiters so they observe the drain and
            # refuse their batches instead of buffering unanalyzed ops.
            self._progress.notify_all()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        # Belt and braces: if anything slipped into a backlog between the
        # quiescence check and the analyzer stopping, finish it inline —
        # the stats snapshot (and CI's backlog == 0 assertion) must
        # describe a fully analyzed state.
        while self.registry.has_work():
            self.registry.run_slice()
        if self.durability is not None:
            # A drained daemon restarts from checkpoints alone: every
            # healthy session's full state lands on disk before exit.
            for session in self.registry.sessions.values():
                if session.error is None:
                    self.durability.checkpoint(session)
            self.durability.close()
        for writer in list(self._connections):
            writer.close()
        if self.unix_path is not None:
            import os

            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        record = self.stats_record()
        if self.stats_path is not None:
            with open(self.stats_path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
        if self.obs is not None:
            summary = record["server"]
            self.obs.emit(
                "drain-complete",
                sessions_opened=summary["sessions_opened"],
                ops_ingested=summary["ops_ingested"],
                chunks_checked=summary["chunks_checked"],
            )
        # The exporter outlives the listeners on purpose — a scrape racing
        # the drain still answers — and stops only once the final stats
        # snapshot exists.
        if self.exporter is not None:
            await self.exporter.stop()
        self._stopped.set()
        return record

    def stats_record(self) -> Dict[str, Any]:
        """The full stats snapshot (the ``stats`` frame body, plus state)."""
        record = {
            "type": "stats",
            "addresses": list(self.addresses),
            "draining": self._draining,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "server": self.registry.stats(),
            "sessions": {
                session_id: session.stats()
                for session_id, session in self.registry.sessions.items()
            },
        }
        if self.started_at is not None:
            record["started_at"] = round(self.started_at, 3)
        if self.exporter is not None:
            record["metrics_address"] = self.exporter.address
        if self.durability is not None:
            record["durability"] = self.durability.stats()
        return record

    def _checkpoint_for_eviction(self, session) -> None:
        """The registry's pre-eviction hook (durable daemons only)."""
        if session.error is None:
            try:
                self.durability.checkpoint(session)
            except Exception:  # pragma: no cover - disk full etc.
                # Losing a checkpoint degrades restart cost (full WAL
                # replay), never correctness: the WAL has every acked op.
                pass

    # ------------------------------------------------------------------
    # Background tasks

    async def _analyze_loop(self) -> None:
        """Round-robin bounded slices: the service's only analysis driver."""
        while True:
            outcome = self.registry.run_slice()
            if outcome is None:
                self._work.clear()
                async with self._progress:
                    self._progress.notify_all()
                await self._work.wait()
                continue
            session, update, exc = outcome
            if (
                self.durability is not None
                and update is not None
                and exc is None
            ):
                # Periodic checkpoints ride the analyzer's cadence: after
                # a slice lands, snapshot if enough new ops were analyzed
                # since the last one.  Synchronous, like the slice itself
                # — bounded work between yields.
                try:
                    self.durability.maybe_checkpoint(session)
                except Exception:  # pragma: no cover - disk full etc.
                    pass  # degraded restart cost only; the WAL is intact
            # One chunk analyzed (or a session poisoned — also progress):
            # wake verdict waiters and backpressured appends, then yield
            # the loop so socket I/O interleaves between slices.
            async with self._progress:
                self._progress.notify_all()
            await asyncio.sleep(0)

    async def _evict_loop(self) -> None:
        interval = max(
            self.registry.idle_timeout / EVICTION_SWEEPS_PER_TIMEOUT, 0.05
        )
        while True:
            await asyncio.sleep(interval)
            self.registry.evict_idle()
            # Same sweep, same clock: when the resident estimate is over
            # the watermark, climb the degradation ladder (retire settled
            # prefixes, then checkpoint-and-evict the coldest sessions).
            self.registry.relieve_pressure()

    # ------------------------------------------------------------------
    # Connections

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        break  # clean EOF between frames
                    line = exc.partial  # final frame missing its newline
                except asyncio.LimitOverrunError as exc:
                    # Oversized frame: discard through the next newline,
                    # answer with a structured error, and keep both the
                    # connection and the session alive — one bad frame
                    # must not poison anything.
                    dropped = await self._discard_oversized_line(
                        reader, exc
                    )
                    self._count_error(
                        "frame-too-large",
                        None,
                        f"frame exceeds {self.max_frame_bytes} bytes",
                    )
                    writer.write(encode_frame({
                        "type": "error",
                        "code": "frame-too-large",
                        "error": (
                            f"frame exceeds {self.max_frame_bytes} bytes; "
                            "split the append into smaller batches"
                        ),
                    }))
                    await writer.drain()
                    if not dropped:  # EOF inside the oversized line
                        break
                    continue
                reply = await self._reply_for(line)
                writer.write(encode_frame(reply))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    @staticmethod
    async def _discard_oversized_line(reader, overrun) -> bool:
        """Consume bytes through the oversized line's newline, so the
        parser re-synchronizes on the following frame.  Returns False at
        EOF.

        ``readuntil`` raises ``LimitOverrunError`` *without* consuming:
        ``overrun.consumed`` is the scanned prefix (up to the separator
        when one was found, the whole buffer when not), so exactly that
        much is dropped — bytes after the newline belong to the next
        frame and survive.
        """
        while True:
            if overrun.consumed:
                await reader.readexactly(overrun.consumed)
            try:
                # Either the separator itself (sep-found case) or the
                # line's next byte (sep-not-yet-seen case).
                if await reader.readexactly(1) == b"\n":
                    return True
            except asyncio.IncompleteReadError:
                return False
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.IncompleteReadError:
                return False
            except asyncio.LimitOverrunError as exc:
                overrun = exc

    async def _reply_for(self, line: bytes) -> Dict[str, Any]:
        session_id = None
        try:
            frame = decode_frame(line)
            session_id = frame.get("session")
            return await self._dispatch(frame, line)
        except (ReproError, ValueError) as exc:
            # Malformed frames, session poisonings, bad configs, unknown
            # sessions: the request fails with a structured, coded error;
            # the connection (and server) live on.
            code = getattr(exc, "code", "bad-request")
            reply = {
                "type": "error",
                "code": code,
                "error": str(exc),
                "session": session_id,
            }
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                reply["retry_after"] = retry_after
            self._count_error(code, session_id, str(exc))
            return reply
        except Exception as exc:  # pragma: no cover - defensive
            # A daemon must outlive its bugs; the frame fails loudly
            # instead of tearing the connection (and every session) down.
            self._count_error("internal", session_id, str(exc))
            return {
                "type": "error",
                "code": "internal",
                "error": f"internal error: {type(exc).__name__}: {exc}",
                "session": session_id,
            }

    def _count_error(
        self, code: str, session_id: Any, message: str
    ) -> None:
        obs = self.obs
        if obs is None:
            return
        if obs.metrics is not None:
            obs.metrics.frame_errors_total.labels(code).inc()
        obs.emit(
            "frame-error",
            level="warn",
            code=code,
            session=session_id,
            error=message,
        )

    async def _dispatch(
        self, frame: Dict[str, Any], line: bytes
    ) -> Dict[str, Any]:
        """Answer one decoded frame; ``line`` is its bytes as received."""
        kind = request_type(frame)
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.frames_total.labels(kind).inc()
        if self._draining and kind in ("open", "append"):
            raise ServiceError(
                "server is draining; no new work accepted", code="draining"
            )
        if kind == "ping":
            return self._pong()
        if kind == "metrics":
            return self._metrics()
        if kind == "open":
            return self._open(frame)
        if kind == "stats":
            return self._stats(frame)
        # The remaining frames address an existing session.
        session = self.registry.get(frame.get("session"))
        session.touch()
        if kind == "append":
            return await self._append(session, frame, line)
        if kind == "verdict":
            return await self._verdict(session, frame)
        return await self._close(session)

    def _pong(self) -> Dict[str, Any]:
        """The ``ping`` health frame: cheap liveness plus load at a glance.

        Answered even while draining — a health checker must be able to
        distinguish "draining" from "dead".
        """
        registry = self.registry
        return {
            "type": "pong",
            "draining": self._draining,
            "sessions": len(registry.sessions),
            "backlog": sum(
                s.backlog for s in registry.sessions.values()
            ),
            "est_bytes": registry.estimated_bytes(),
            "overloaded": registry.overloaded(),
        }

    def _metrics(self) -> Dict[str, Any]:
        """The ``metrics`` frame: the registry snapshot over the wire.

        The JSON twin of the ``/metrics`` scrape, for clients already on
        the frame socket (no second port needed).  Answered even while
        draining, like ``ping`` and ``stats``.
        """
        obs = self.obs
        if obs is None or obs.registry is None:
            return {"type": "metrics", "enabled": False}
        reply: Dict[str, Any] = {
            "type": "metrics",
            "enabled": True,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "families": obs.registry.snapshot(),
        }
        if self.exporter is not None:
            reply["scrape_address"] = self.exporter.address
        if obs.tracer is not None:
            reply["traces"] = {
                "chunks_traced": obs.tracer.chunks_traced,
                "slow_chunks": obs.tracer.slow_chunks,
                "capacity": obs.tracer.capacity,
                "slow_chunk_ms": obs.tracer.slow_chunk_ms,
            }
        return reply

    def _open(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        fields = open_fields(frame)
        session_id = frame.get("session")
        resume = bool(frame.get("resume"))
        if frame.get("fresh") and self._durable_state(session_id):
            # Explicit wipe: the client wants a clean slate under a
            # recycled id, not whatever a previous run left on disk.
            if session_id not in self.registry.sessions:
                self.durability.drop(session_id, destroy=True)
        elif resume and session_id is not None:
            # Idempotent reattach: a reconnecting client re-opens its
            # session — live (the daemon never died, only the socket),
            # on disk (the daemon restarted, or evicted it), or gone
            # (fresh start).  The ``applied_seq`` in the reply tells the
            # client exactly which appends to re-send.
            existing = self.registry.sessions.get(session_id)
            if existing is None and self._durable_state(session_id):
                existing = self.durability.recover_session(
                    session_id, self.registry
                )
                existing.resumed = True
                self._work.set()
            if existing is not None:
                return self._opened_reply(existing, resumed=True)
        elif (
            session_id is not None
            and session_id not in self.registry.sessions
            and self._durable_state(session_id)
        ):
            # A plain open of a session that left durable state behind
            # (idle-evicted, or the daemon restarted under it) restores
            # from disk rather than silently starting empty.
            session = self.durability.recover_session(
                session_id, self.registry
            )
            session.resumed = True
            self._work.set()
            return self._opened_reply(session, resumed=True)
        config = SessionConfig(
            workload=fields.get("workload", SessionConfig.workload),
            consistency_model=fields.get("model", SessionConfig.consistency_model),
            chunk_ops=fields.get("chunk", self.registry.default_chunk_ops),
            process_edges=fields.get("process_edges", True),
            realtime_edges=fields.get("realtime_edges", True),
            timestamp_edges=fields.get("timestamp_edges", False),
            max_ops=fields.get("max_ops"),
            max_analyze_seconds=fields.get("max_analyze_seconds"),
            retire_idle_txns=fields.get("retire_idle_txns", 0),
            options=fields.get("options", {}),
        )
        session = self.registry.open(config, session_id)
        if self.durability is not None:
            try:
                self.durability.open_session(session)
            except BaseException:
                self.registry.close(session.id)
                raise
        return self._opened_reply(session, resumed=False)

    def _durable_state(self, session_id: Any) -> bool:
        return (
            self.durability is not None
            and isinstance(session_id, str)
            and self.durability.has_state(session_id)
        )

    def _opened_reply(self, session, resumed: bool) -> Dict[str, Any]:
        reply = {
            "type": "opened",
            "session": session.id,
            "workload": session.config.workload,
            "model": session.config.consistency_model,
            "chunk": session.config.chunk_ops,
            "applied_seq": session.applied_seq,
        }
        if resumed:
            reply["resumed"] = True
            reply["ops_ingested"] = session.ops_ingested
        return reply

    def _stats(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        session_id = frame.get("session")
        if session_id is not None:
            session = self.registry.get(session_id)
            return {
                "type": "stats",
                "session": session_id,
                "stats": session.stats(),
            }
        return self.stats_record()

    async def _append(
        self, session, frame: Dict[str, Any], line: bytes
    ) -> Dict[str, Any]:
        """Buffer one batch; ``line`` is the frame's bytes as received.

        ``line`` arrives as an argument, not as server state: the
        backpressure wait below yields to other connections' frames.
        """
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        decode_begin = perf_counter() if tracer is not None else 0.0
        records = frame.get("ops", ())
        ops = decode_ops(records)
        if tracer is not None:
            # Parked on the session; the next analyzed chunk's trace
            # carries them as spans preceding ``analyze``.
            session.trace_spans.append(
                tracer.span("decode", perf_counter() - decode_begin)
            )
        seq = frame.get("seq")
        if seq is not None and (
            not isinstance(seq, int) or isinstance(seq, bool) or seq <= 0
        ):
            raise ProtocolError(
                f"append seq must be a positive integer, got {seq!r}"
            )
        # Backpressure: hold the reply until the backlog is below the
        # high-watermark.  The analyzer's progress notifications wake us;
        # a poisoning also unblocks (buffer() will then refuse the batch),
        # and so does a drain — whose quiescence check must not be raced
        # by a parked append buffering ops after the analyzer stopped.
        wait_begin: Optional[float] = None
        async with self._progress:
            while (
                not self.registry.accepts(session)
                and session.error is None
                and not self._draining
            ):
                if wait_begin is None:
                    wait_begin = perf_counter()
                await self._progress.wait()
        if wait_begin is not None and obs is not None:
            waited = perf_counter() - wait_begin
            if obs.metrics is not None:
                obs.metrics.backpressure_waits_total.inc()
                obs.metrics.backpressure_wait_seconds.observe(waited)
            obs.emit(
                "backpressure",
                level="debug",
                session=session.id,
                waited_ms=round(waited * 1000.0, 3),
                backlog=session.backlog,
            )
        if self._draining:
            raise ServiceError(
                "server is draining; no new work accepted", code="draining"
            )
        if seq is not None and seq <= session.applied_seq:
            # Duplicate delivery: the batch was applied and acked, but the
            # ack never reached the client (it reconnected and re-sent).
            # Acking again without re-applying makes re-delivery a no-op.
            return {
                "type": "appended",
                "session": session.id,
                "ops": 0,
                "deduped": len(ops),
                "buffered": session.backlog,
                "seq": seq,
                "applied_seq": session.applied_seq,
            }
        # Op-level dedupe catches the half-applied case: the server logged
        # and buffered the batch, then died before acking.  Indices are
        # strictly increasing across a stream, so anything at or below the
        # high-water mark has already been accepted.
        fresh, records = session.dedupe_ops(ops, records)
        deduped = len(ops) - len(fresh)
        # The frame itself is the journal line when it names its own seq
        # and every op is kept; otherwise the WAL writes the server's seq
        # and the surviving records.
        raw = line if seq is not None and not deduped else None
        if seq is None:
            seq = session.applied_seq + 1
        # Admission before the journal: a refused batch (closed, poisoned,
        # over quota) must not come back on restart.  Nothing awaits from
        # here to the buffer below, so the answer still holds there.
        session.admit(len(fresh))
        if self.durability is not None and fresh:
            # WAL first, ack second: once the reply goes out the ops must
            # survive a crash, so they hit the journal (flushed, and
            # fsynced per policy) before they are even buffered.
            wal_begin = perf_counter() if tracer is not None else 0.0
            self.durability.log_append(session, seq, records, raw)
            if tracer is not None:
                session.trace_spans.append(
                    tracer.span("wal", perf_counter() - wal_begin)
                )
        if tracer is not None:
            buffer_begin = perf_counter()
            self.registry.append(session.id, fresh)
            session.trace_spans.append(
                tracer.span("buffer", perf_counter() - buffer_begin)
            )
        else:
            self.registry.append(session.id, fresh)
        session.applied_seq = seq
        self._work.set()
        reply = {
            "type": "appended",
            "session": session.id,
            "ops": len(fresh),
            "buffered": session.backlog,
            "seq": seq,
            "applied_seq": session.applied_seq,
        }
        if deduped:
            reply["deduped"] = deduped
        return reply

    async def _verdict(self, session, frame: Dict[str, Any]) -> Dict[str, Any]:
        await self._drain_session(session)
        update = session.verdict()
        record = update_record(update)
        record["session"] = session.id
        if frame.get("report"):
            record["report"] = update.result.report()
        return record

    async def _close(self, session) -> Dict[str, Any]:
        await self._drain_session(session)
        final = self.registry.close(session.id)
        if self.durability is not None:
            # An explicit close is the end of the session's story: its
            # journal and checkpoints have nothing left to recover.
            self.durability.drop(session.id, destroy=True)
        return {"type": "closed", "session": session.id, "stats": final}

    async def _drain_session(self, session) -> None:
        """Wait until the analyzer has consumed this session's backlog."""
        self._work.set()
        async with self._progress:
            while session.has_work:
                await self._progress.wait()


async def serve(
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    registry: Optional[SessionRegistry] = None,
    stats_path: Optional[str] = None,
    durability: Optional[DurabilityManager] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    obs: Optional[Observability] = None,
    metrics_host: str = "127.0.0.1",
    metrics_port: Optional[int] = None,
    quiet: bool = False,
    ready: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run a daemon until SIGTERM/SIGINT, then drain; returns final stats.

    ``ready``, when given, is called with the service once the listeners
    are bound (tests use it to learn ephemeral ports).  ``durability``
    makes every session crash-recoverable (see
    :mod:`repro.service.durability`).  ``obs`` switches on the telemetry
    stack (:mod:`repro.obs`); ``metrics_port`` additionally serves its
    registry as a Prometheus scrape on ``metrics_host``.
    """
    service = CheckerService(
        registry,
        host=host,
        port=port,
        unix_path=unix_path,
        stats_path=stats_path,
        durability=durability,
        max_frame_bytes=max_frame_bytes,
        obs=obs,
        metrics_host=metrics_host,
        metrics_port=metrics_port,
    )
    addresses = await service.start()
    if not quiet:
        for address in addresses:
            print(f"service: listening on {address}", flush=True)
        if service.exporter is not None:
            print(
                f"service: metrics on {service.exporter.address}/metrics",
                flush=True,
            )
    if ready is not None:
        ready(service)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await stop.wait()
    if not quiet:
        print("service: draining", flush=True)
    record = await service.drain()
    if not quiet:
        summary = record["server"]
        print(
            "service: drained — "
            f"{summary['sessions_opened']} sessions, "
            f"{summary['ops_ingested']} ops, "
            f"{summary['chunks_checked']} chunks checked",
            flush=True,
        )
    return record


class BackgroundService:
    """A daemon on a private event loop in a thread (tests, benchmarks).

    The production deployment runs :func:`serve` on the main thread; this
    helper exists so synchronous code — pytest, the load benchmark, a
    notebook — can stand a real server up, talk to it over real sockets
    with the blocking client, and drain it deterministically.
    """

    def __init__(self, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self.service: Optional[CheckerService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self.stats: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()

    def start(self, timeout: float = 10.0) -> "BackgroundService":
        import threading

        started = threading.Event()

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self.service = CheckerService(**self._kwargs)
            await self.service.start()
            started.set()
            await self.service._stopped.wait()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):  # pragma: no cover - defensive
            raise ServiceError("background service failed to start")
        return self

    @property
    def addresses(self) -> List[str]:
        assert self.service is not None
        return self.service.addresses

    @property
    def tcp_address(self) -> str:
        assert self.service is not None
        return f"{self.service.host}:{self.service.port}"

    @property
    def metrics_address(self) -> str:
        """The scrape endpoint's base URL (requires ``metrics_port``)."""
        assert self.service is not None
        assert self.service.exporter is not None, "metrics_port not set"
        return self.service.exporter.address

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        if self._loop is None or self.service is None:
            return self.stats or {}
        if self.stats is None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.drain(), self._loop
            )
            self.stats = future.result(timeout)
            self._thread.join(timeout)
        return self.stats


