"""Checker sessions and their registry: the service's sans-I/O core.

A *session* is one independent checking stream — its own workload, its
own consistency model, its own :class:`~repro.core.incremental.
StreamingChecker` — multiplexed with many others inside a single daemon.
This module holds everything about that multiplexing that is not socket
I/O, so the asyncio server (:mod:`repro.service.server`) stays a thin
shell and the equivalence oracle
(``tests/properties/test_service_equivalence.py``) can drive the exact
scheduling code with hypothesis-chosen interleavings, no sockets needed.

Three design points, all in service of "many sessions, one core":

* **Bounded buffers.**  Appended operations land in a per-session backlog
  deque; a session whose backlog has reached ``max_pending_ops`` stops
  *admitting* appends (:meth:`SessionRegistry.accepts`) until analysis
  drains it.  The server turns that refusal into backpressure by simply
  not replying to the ``append`` frame yet — the lockstep client stalls,
  and eventually so does its TCP window.
* **Bounded slices.**  :meth:`SessionRegistry.run_slice` pops the next
  runnable session in round-robin order and analyzes *one* chunk
  (``chunk_ops`` operations at most) before yielding, so a session
  streaming millions of operations cannot starve a neighbor that needs
  one small verdict.
* **Idle eviction.**  Sessions that have neither received a frame nor had
  work pending for ``idle_timeout`` seconds are evicted, so abandoned
  clients cannot pin checker state (and its per-key caches) forever.

On top of round-robin, the registry runs **deficit scheduling** and a
**memory-watermark degradation ladder** so a hostile mix degrades
gracefully instead of falling over:

* Each analysis slice is charged at its wall-clock cost against the
  session's time *deficit*; every scheduling visit refills the deficit by
  ``quantum_seconds``.  A session whose single chunk costs several quanta
  (an elephant) then sits out proportionally many rotations while its
  cheap neighbors (the mice) keep getting verdicts — fairness in seconds,
  not in slice counts.  The scheduler is work-conserving: when every
  runnable session is in debt, the least indebted one runs anyway.
* Per-session quotas (``max_ops``, ``max_analyze_seconds``) bound what
  one stream may consume; a tripped quota refuses the *batch* with a
  structured ``quota`` error and leaves the session (and its verdicts)
  intact.
* When the estimated resident footprint crosses ``max_resident_bytes``,
  :meth:`SessionRegistry.relieve_pressure` climbs the ladder — retire
  settled prefixes of consenting sessions (``retire_idle_txns > 0``),
  then checkpoint-and-evict the coldest idle sessions (only when an
  ``on_evict`` checkpoint hook is wired, i.e. on durable daemons), and as
  the last rung new ``open`` requests are shed with a structured
  ``overloaded`` error carrying ``retry_after``.

One injectable ``clock`` (``SessionRegistry(clock=...)``) governs *all*
time the registry observes: idle-eviction ages, analyze-seconds quotas,
and scheduler deficits — tests drive every policy deterministically by
faking a single clock.

Error semantics mirror the streaming checker's: a structurally broken
chunk poisons the session — its backlog is discarded, the original
exception is replayed to every later ``verdict`` — but never the server.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.consistency import SERIALIZABLE
from ..core.incremental import StreamingChecker, StreamUpdate
from ..errors import ServiceError
from ..history.ops import Op
from ..obs import Observability, percentiles

#: Default operations per analysis slice (and per incremental re-check).
DEFAULT_CHUNK_OPS = 1000

#: Default scheduler quantum: seconds of analysis credit per visit.
DEFAULT_QUANTUM_SECONDS = 0.25

#: Per-session chunk-latency sample window (for the ``last_chunk_ms``
#: percentile digest in ``stats`` frames).  Always on: a deque of a few
#: hundred floats costs nothing next to a chunk analysis.
CHUNK_LATENCY_WINDOW = 512


@dataclass(frozen=True)
class SessionConfig:
    """Per-session checking configuration, as carried by ``open`` frames."""

    workload: str = "list-append"
    consistency_model: str = SERIALIZABLE
    chunk_ops: int = DEFAULT_CHUNK_OPS
    process_edges: bool = True
    realtime_edges: bool = True
    timestamp_edges: bool = False
    #: Total-ops quota: a batch that would push ``ops_ingested`` past it
    #: is refused with a structured ``quota`` error (``None`` = no cap).
    max_ops: Optional[int] = None
    #: Analyze-time quota in seconds: once the session has consumed this
    #: much checker time, further appends are refused (``None`` = no cap).
    max_analyze_seconds: Optional[float] = None
    #: Auto-retirement: after each analysis slice, retire the settled
    #: prefix but spare the newest N transactions.  0 disables.  Only
    #: streams that rotate their keyspace should opt in — a retired key
    #: that recurs poisons the session (:class:`~repro.errors.
    #: RetiredKeyError`), never silently corrupts its verdicts.
    retire_idle_txns: int = 0
    #: Extra analyzer options (e.g. rw-register ``sources``); values must
    #: be JSON-representable since they ride the ``open`` frame.
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.chunk_ops <= 0:
            raise ServiceError(
                f"chunk_ops must be positive, got {self.chunk_ops}"
            )
        if self.max_ops is not None and self.max_ops <= 0:
            raise ServiceError(
                f"max_ops must be positive, got {self.max_ops}"
            )
        if (
            self.max_analyze_seconds is not None
            and self.max_analyze_seconds <= 0
        ):
            raise ServiceError(
                "max_analyze_seconds must be positive, got "
                f"{self.max_analyze_seconds}"
            )
        if self.retire_idle_txns < 0:
            raise ServiceError(
                f"retire_idle_txns must be >= 0, got {self.retire_idle_txns}"
            )


class Session:
    """One checking stream: a streaming checker plus its backlog and books."""

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        clock: Callable[[], float] = time.monotonic,
        obs: Optional[Observability] = None,
    ) -> None:
        self.id = session_id
        self.config = config
        self._clock = clock
        self.obs = obs
        # Workload/model validation happens here, so a bad ``open`` frame
        # fails before the registry ever records the session.
        options = dict(config.options)
        sources = options.pop("sources", None)
        if sources is not None:
            options["sources"] = tuple(sources)
        self.checker = StreamingChecker(
            workload=config.workload,
            consistency_model=config.consistency_model,
            process_edges=config.process_edges,
            realtime_edges=config.realtime_edges,
            timestamp_edges=config.timestamp_edges,
            **options,
        )
        self.pending: deque = deque()
        self.ops_ingested = 0
        self.chunks_checked = 0
        self.keys_reanalyzed = 0
        self.keys_reused = 0
        self.analyze_seconds = 0.0
        self.max_chunk_seconds = 0.0
        self.last_slice_seconds = 0.0
        #: Recent per-chunk analysis latencies in ms — the sample window
        #: behind the ``last_chunk_ms`` p50/p95/p99 digest in ``stats``.
        self.chunk_ms_window: deque = deque(maxlen=CHUNK_LATENCY_WINDOW)
        #: Spans recorded for this session's next chunk before analysis
        #: ran (frame decode, WAL append, backlog buffering) — the server
        #: parks them here; the tracer folds them into the next chunk's
        #: trace.  Bounded (16 durable appends' worth): a client whose
        #: appends keep being refused must not grow it between the
        #: chunks that would drain it.
        self.trace_spans: deque = deque(maxlen=48)
        #: Scheduler state: seconds of analysis credit.  Refilled by
        #: ``quantum_seconds`` per scheduling visit, charged at each
        #: slice's wall-clock cost; an expensive slice leaves the session
        #: in debt and it sits out rotations until the debt is paid.
        self.deficit = 0.0
        self.quota_trips = 0
        self.txns_retired = 0
        self.retire_calls = 0
        self.last_update: Optional[StreamUpdate] = None
        self.error: Optional[BaseException] = None
        self.closed = False
        self.last_activity = clock()
        # Durability / resume bookkeeping (see repro.service.durability):
        # the highest acked append sequence number, the highest operation
        # index accepted (analyzed or buffered — the duplicate-delivery
        # dedupe line), and how many ops the newest checkpoint covers.
        self.applied_seq = 0
        self.last_buffered_index = -1
        self.checkpointed_ops = 0
        self.resumed = False

    # ------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Operations buffered but not yet analyzed."""
        return len(self.pending)

    @property
    def has_work(self) -> bool:
        """True when the analyzer loop should give this session a slice."""
        return bool(self.pending) and self.error is None and not self.closed

    @property
    def state(self) -> str:
        if self.closed:
            return "closed"
        if self.error is not None:
            return "poisoned"
        return "open"

    @property
    def resident_ops(self) -> int:
        """Operations currently held in memory (checker plus backlog)."""
        return self.checker.resident_ops + len(self.pending)

    @property
    def retired_ops(self) -> int:
        """Operations dropped by settled-prefix retirement."""
        return self.checker.retired_ops

    @property
    def est_bytes(self) -> int:
        """Deterministic footprint estimate for watermark accounting."""
        return self.checker.estimated_bytes() + len(self.pending) * 400

    def touch(self) -> None:
        self.last_activity = self._clock()

    def buffer(self, ops: Sequence[Op]) -> None:
        """Accept one ``append`` batch into the backlog, once :meth:`admit`
        lets it in."""
        self.admit(len(ops))
        self.pending.extend(ops)
        self.ops_ingested += len(ops)
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.ops_ingested_total.labels(self.id).inc(len(ops))
        if ops:
            self.last_buffered_index = max(
                self.last_buffered_index, ops[-1].index
            )
        self.touch()

    def admit(self, n_ops: int) -> None:
        """Refuse an ``append`` batch of ``n_ops`` ops the session cannot take.

        The server asks before it journals a batch, so a refused batch
        never reaches the WAL.  Quota trips are structured errors
        (``code="quota"``), not poisonings: the batch is refused, but the
        session — and every verdict over what it already ingested — stays
        intact.
        """
        if self.closed:
            raise ServiceError(f"session {self.id!r} is closed")
        if self.error is not None:
            raise ServiceError(
                f"session {self.id!r} is poisoned: {self.error}",
                code="poisoned",
            )
        quota = self.config.max_ops
        if quota is not None and self.ops_ingested + n_ops > quota:
            self._trip_quota("ops", quota)
            raise ServiceError(
                f"session {self.id!r} ops quota exceeded: "
                f"{self.ops_ingested} ingested + {n_ops} > {quota}",
                code="quota",
            )
        budget = self.config.max_analyze_seconds
        if budget is not None and self.analyze_seconds >= budget:
            self._trip_quota("analyze_seconds", budget)
            raise ServiceError(
                f"session {self.id!r} analyze-time quota exceeded: "
                f"{self.analyze_seconds:.3f}s >= {budget}s",
                code="quota",
            )

    def _trip_quota(self, quota: str, limit: Any) -> None:
        """Book one quota refusal (counter, metric, event)."""
        self.quota_trips += 1
        obs = self.obs
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.quota_trips_total.labels(quota).inc()
            obs.emit(
                "quota-trip",
                level="warn",
                session=self.id,
                quota=quota,
                limit=limit,
                ops_ingested=self.ops_ingested,
                analyze_seconds=round(self.analyze_seconds, 4),
            )

    def dedupe_ops(
        self, ops: Sequence[Op], records: Sequence[Any]
    ) -> Tuple[List[Op], Sequence[Any]]:
        """Drop operations this session has already accepted.

        Operation indices are strictly increasing across a stream
        (:meth:`History.extend` enforces it), so everything at or below
        ``last_buffered_index`` is a duplicate delivery — a reconnecting
        client re-sending a batch the daemon journaled (maybe partially
        acked) before dying.  Idempotent resume falls out: re-sending is
        always safe.

        ``records`` are the frame's op records, parallel to ``ops``;
        returns the fresh operations and their records (the WAL journals
        the records, so it never re-encodes an operation).
        """
        threshold = self.last_buffered_index
        fresh = [op for op in ops if op.index > threshold]
        if len(fresh) == len(ops):
            return fresh, records
        return fresh, [
            record
            for record, op in zip(records, ops)
            if op.index > threshold
        ]

    def analyze_chunk(self) -> StreamUpdate:
        """Run one bounded slice: up to ``chunk_ops`` backlog operations.

        A failing chunk poisons the session exactly like
        :meth:`StreamingChecker.extend` poisons its stream; the rest of
        the backlog is discarded because the prefix it would extend can
        no longer be trusted.
        """
        if self.error is not None:
            raise self.error
        take = min(len(self.pending), self.config.chunk_ops)
        chunk = [self.pending.popleft() for _ in range(take)]
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        chunk_profile = (
            tracer.chunk_profile() if tracer is not None else None
        )
        pre_spans = list(self.trace_spans)
        self.trace_spans.clear()
        begin = self._clock()
        try:
            update = self.checker.extend(chunk, profile=chunk_profile)
            if self.config.retire_idle_txns:
                # Opt-in auto-retirement rides the analyzer's cadence:
                # after each slice, fold the settled prefix (sparing the
                # newest N transactions) so a forever-stream's resident
                # state tracks its active window, not its age.
                if chunk_profile is not None:
                    with chunk_profile.stage("retire"):
                        self.retire(
                            min_idle_txns=self.config.retire_idle_txns
                        )
                else:
                    self.retire(min_idle_txns=self.config.retire_idle_txns)
        except BaseException as exc:
            self.error = exc
            self.pending.clear()
            if obs is not None:
                obs.emit(
                    "session-poisoned",
                    level="error",
                    session=self.id,
                    chunk=self.chunks_checked,
                    error=str(exc),
                )
            raise
        finally:
            elapsed = self._clock() - begin
            self.analyze_seconds += elapsed
            self.last_slice_seconds = elapsed
            self.max_chunk_seconds = max(self.max_chunk_seconds, elapsed)
        self.chunks_checked += 1
        self.keys_reanalyzed += update.reanalyzed_keys
        self.keys_reused += update.reused_keys
        self.last_update = update
        self.chunk_ms_window.append(elapsed * 1000.0)
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.chunks_checked_total.labels(self.id).inc()
                obs.metrics.chunk_analyze_seconds.labels(self.id).observe(
                    elapsed
                )
                if update.new_anomalies:
                    obs.metrics.anomalies_total.inc(
                        len(update.new_anomalies)
                    )
            if update.new_anomalies:
                obs.emit(
                    "anomalies",
                    level="warn",
                    session=self.id,
                    chunk=update.chunk,
                    new=len(update.new_anomalies),
                    total=len(update.result.anomalies),
                )
            if tracer is not None:
                trace = tracer.record(
                    session=self.id,
                    chunk=update.chunk,
                    ops=len(chunk),
                    txns=update.txns,
                    elapsed_seconds=elapsed,
                    profile=chunk_profile,
                    pre_spans=pre_spans,
                )
                if trace["slow"] and obs.metrics is not None:
                    obs.metrics.slow_chunks_total.inc()
        return update

    def retire(self, min_idle_txns: int = 0) -> Dict[str, Any]:
        """Retire the session's settled prefix (memory relief, not
        semantics: the verdict stream is unchanged — see
        :meth:`StreamingChecker.retire`)."""
        summary = self.checker.retire(min_idle_txns=min_idle_txns)
        self.retire_calls += 1
        self.txns_retired += summary.get("retired_txns", 0)
        return summary

    def verdict(self) -> StreamUpdate:
        """The verdict for everything ingested (backlog must be drained).

        A session that never analyzed a chunk gets the verdict on the
        empty observation, matching ``check_stream([])``.
        """
        if self.error is not None:
            raise ServiceError(
                f"session {self.id!r} is poisoned: {self.error}",
                code="poisoned",
            )
        if self.pending:
            raise ServiceError(
                f"session {self.id!r} still has {len(self.pending)} "
                "unanalyzed operations"
            )
        if self.last_update is None:
            return self.analyze_chunk()
        return self.last_update

    def stats(self) -> Dict[str, Any]:
        """The per-session counters the ``stats`` frame reports."""
        record: Dict[str, Any] = {
            "state": self.state,
            "workload": self.config.workload,
            "model": self.config.consistency_model,
            "chunk_ops": self.config.chunk_ops,
            "ops_ingested": self.ops_ingested,
            "backlog": self.backlog,
            "chunks_checked": self.chunks_checked,
            "keys_reanalyzed": self.keys_reanalyzed,
            "keys_reused": self.keys_reused,
            "analyze_seconds": round(self.analyze_seconds, 4),
            "max_chunk_seconds": round(self.max_chunk_seconds, 4),
            "last_chunk_ms": {
                name: round(value, 3)
                for name, value in percentiles(self.chunk_ms_window).items()
            },
            "resident_ops": self.resident_ops,
            "live_txns": self.checker.live_txns,
            "frozen_edges": self.checker.frozen_edges,
            "retired_ops": self.retired_ops,
            "retired_txns": self.txns_retired,
            "est_bytes": self.est_bytes,
            "quota_trips": self.quota_trips,
            "deficit": round(self.deficit, 4),
            "applied_seq": self.applied_seq,
            "resumed": self.resumed,
        }
        if self.config.max_ops is not None:
            record["max_ops"] = self.config.max_ops
        if self.config.max_analyze_seconds is not None:
            record["max_analyze_seconds"] = self.config.max_analyze_seconds
        if self.config.retire_idle_txns:
            record["retire_idle_txns"] = self.config.retire_idle_txns
        if self.error is not None:
            record["error"] = str(self.error)
        update = self.last_update
        if update is not None:
            record["last_verdict"] = {
                "chunk": update.chunk,
                "txns": update.txns,
                "valid": update.result.valid,
                "anomalies": len(update.result.anomalies),
                "new_anomalies": len(update.new_anomalies),
                "resolved": update.resolved,
            }
        return record


class SessionRegistry:
    """All live sessions, plus admission, scheduling, and eviction policy."""

    def __init__(
        self,
        max_sessions: int = 64,
        max_pending_ops: int = 50_000,
        idle_timeout: float = 300.0,
        default_chunk_ops: int = DEFAULT_CHUNK_OPS,
        clock: Callable[[], float] = time.monotonic,
        max_resident_bytes: Optional[int] = None,
        quantum_seconds: float = DEFAULT_QUANTUM_SECONDS,
        default_limits: Optional[SessionConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if max_sessions <= 0:
            raise ServiceError("max_sessions must be positive")
        if max_pending_ops <= 0:
            raise ServiceError("max_pending_ops must be positive")
        if max_resident_bytes is not None and max_resident_bytes <= 0:
            raise ServiceError("max_resident_bytes must be positive")
        if quantum_seconds <= 0:
            raise ServiceError("quantum_seconds must be positive")
        self.max_sessions = max_sessions
        self.max_pending_ops = max_pending_ops
        self.idle_timeout = idle_timeout
        self.default_chunk_ops = default_chunk_ops
        self.clock = clock
        self.max_resident_bytes = max_resident_bytes
        self.quantum_seconds = quantum_seconds
        #: Daemon-wide session defaults: quota and retirement fields that
        #: an ``open`` frame leaves unset are filled from here (the serve
        #: CLI's ``--session-max-ops`` etc. land in this config).
        self.default_limits = default_limits
        self.obs = obs
        self.sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._rotation: deque = deque()  # round-robin order of session ids
        self._auto_id = 0
        #: Called with each session just before idle eviction drops it.
        #: The durability layer hangs its final checkpoint here, so an
        #: evicted session can be restored from disk instead of starting
        #: empty when a client reopens it.  Memory-pressure eviction (rung
        #: two of the degradation ladder) only runs when this hook is
        #: wired, because without a checkpoint eviction would destroy
        #: state instead of parking it.
        self.on_evict: Optional[Callable[[Session], None]] = None
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_evicted = 0
        self.ops_total = 0
        self.chunks_total = 0
        self.shed_opens = 0
        self.pressure_retired_txns = 0
        self.pressure_evictions = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def open(
        self,
        config: Optional[SessionConfig] = None,
        session_id: Optional[str] = None,
    ) -> Session:
        if session_id is None:
            self._auto_id += 1
            session_id = f"session-{self._auto_id}"
        if session_id in self.sessions:
            raise ServiceError(
                f"session {session_id!r} already open",
                code="duplicate-session",
            )
        if len(self.sessions) >= self.max_sessions:
            raise ServiceError(
                f"session table full ({self.max_sessions}); close a "
                "session or let idle ones evict",
                code="server-full",
            )
        if self.overloaded():
            # Last rung of the degradation ladder: try to relieve memory
            # pressure first; shed the open only when retirement and
            # eviction could not bring the footprint under the watermark.
            self.relieve_pressure()
            if self.overloaded():
                self.shed_opens += 1
                if self.obs is not None:
                    if self.obs.metrics is not None:
                        self.obs.metrics.shed_opens_total.inc()
                    self.obs.emit(
                        "shed-open",
                        level="warn",
                        session=session_id,
                        est_bytes=self.estimated_bytes(),
                        watermark=self.max_resident_bytes,
                        retry_after=self.retry_after_seconds(),
                    )
                raise ServiceError(
                    "resident memory over watermark "
                    f"({self.estimated_bytes()} > "
                    f"{self.max_resident_bytes} estimated bytes); "
                    "retry after existing sessions drain",
                    code="overloaded",
                    retry_after=self.retry_after_seconds(),
                )
        session = Session(
            session_id,
            self._effective_config(config),
            clock=self.clock,
            obs=self.obs,
        )
        self.sessions[session_id] = session
        self._rotation.append(session_id)
        self.sessions_opened += 1
        if self.obs is not None:
            if self.obs.metrics is not None:
                self.obs.metrics.sessions_opened_total.inc()
            self.obs.emit(
                "session-open",
                session=session_id,
                workload=session.config.workload,
                model=session.config.consistency_model,
            )
        return session

    def _effective_config(
        self, config: Optional[SessionConfig]
    ) -> SessionConfig:
        """Fill quota/retirement fields left unset from daemon defaults."""
        config = config or SessionConfig()
        defaults = self.default_limits
        if defaults is None:
            return config
        updates: Dict[str, Any] = {}
        if config.max_ops is None and defaults.max_ops is not None:
            updates["max_ops"] = defaults.max_ops
        if (
            config.max_analyze_seconds is None
            and defaults.max_analyze_seconds is not None
        ):
            updates["max_analyze_seconds"] = defaults.max_analyze_seconds
        if not config.retire_idle_txns and defaults.retire_idle_txns:
            updates["retire_idle_txns"] = defaults.retire_idle_txns
        if not updates:
            return config
        import dataclasses

        return dataclasses.replace(config, **updates)

    def get(self, session_id: Any) -> Session:
        session = self.sessions.get(session_id)
        if session is None:
            raise ServiceError(
                f"unknown session {session_id!r} (never opened, closed, "
                "or evicted as idle)",
                code="unknown-session",
            )
        return session

    def close(self, session_id: str) -> Dict[str, Any]:
        """Remove a session; returns its final counters."""
        session = self.get(session_id)
        session.closed = True
        final = session.stats()
        del self.sessions[session_id]
        self._rotation.remove(session_id)
        self.sessions_closed += 1
        if self.obs is not None:
            if self.obs.metrics is not None:
                self.obs.metrics.sessions_closed_total.inc()
            self.obs.emit(
                "session-close",
                session=session_id,
                ops_ingested=final["ops_ingested"],
                chunks_checked=final["chunks_checked"],
            )
        return final

    def evict_idle(self, now: Optional[float] = None) -> List[str]:
        """Drop sessions idle past the timeout (only with empty backlogs:
        buffered work is never silently discarded)."""
        now = self.clock() if now is None else now
        victims = [
            session_id
            for session_id, session in self.sessions.items()
            if not session.pending
            and now - session.last_activity >= self.idle_timeout
        ]
        for session_id in victims:
            session = self.sessions[session_id]
            if self.on_evict is not None:
                self.on_evict(session)
            del self.sessions[session_id]
            session.closed = True
            self._rotation.remove(session_id)
            self.sessions_evicted += 1
            if self.obs is not None:
                if self.obs.metrics is not None:
                    self.obs.metrics.sessions_evicted_total.inc()
                self.obs.emit(
                    "session-evict",
                    session=session_id,
                    idle_seconds=round(now - session.last_activity, 3),
                )
        return victims

    # ------------------------------------------------------------------
    # Admission and scheduling

    def accepts(self, session: Session) -> bool:
        """High-watermark admission: may this session buffer another batch?

        A batch is admitted while the backlog is *below* the limit, so
        one batch may overshoot it — which keeps arbitrary client batch
        sizes deadlock-free (a batch larger than the whole buffer still
        gets in, one admission at a time).
        """
        return session.backlog < self.max_pending_ops

    def append(self, session_id: str, ops: Sequence[Op]) -> Session:
        """Buffer a decoded batch into a session (the ``append`` frame)."""
        session = self.get(session_id)
        session.buffer(ops)
        self.ops_total += len(ops)
        return session

    def next_runnable(self) -> Optional[Session]:
        """The next session owed an analysis slice: deficit round-robin.

        Visits sessions in rotation order; each visit refills the
        session's time deficit by one quantum (capped at a quantum, so
        idle periods don't bank unbounded credit).  The first session
        with work *and* a positive deficit runs.  When every runnable
        session is in debt — all elephants — the least indebted one runs
        anyway (work-conserving: the analyzer never idles while work
        exists).  With uniformly cheap slices every visit's refill keeps
        deficits positive and this degenerates to plain round-robin,
        strict alternation included.
        """
        fallback: Optional[Session] = None
        for _ in range(len(self._rotation)):
            session_id = self._rotation[0]
            self._rotation.rotate(-1)
            session = self.sessions.get(session_id)
            if session is None or not session.has_work:
                continue
            session.deficit = min(
                session.deficit + self.quantum_seconds, self.quantum_seconds
            )
            if session.deficit > 0:
                return session
            if fallback is None or session.deficit > fallback.deficit:
                fallback = session
        return fallback

    def run_slice(
        self,
    ) -> Optional[Tuple[Session, Optional[StreamUpdate], Optional[BaseException]]]:
        """Analyze one bounded chunk of the next runnable session.

        Returns ``None`` when no session has work; otherwise the session
        plus either its fresh update or the exception that poisoned it
        (already recorded on the session — the server keeps running).
        The slice's wall-clock cost is charged against the session's
        scheduler deficit and counts toward its ``max_analyze_seconds``
        quota.
        """
        session = self.next_runnable()
        if session is None:
            return None
        self.chunks_total += 1
        try:
            update = session.analyze_chunk()
        except Exception as exc:
            session.deficit -= session.last_slice_seconds
            return session, None, exc
        session.deficit -= session.last_slice_seconds
        return session, update, None

    def drain(self, session: Session) -> None:
        """Synchronously analyze a session's whole backlog (client-less
        use: tests, in-process embedding).  The server's analyzer loop is
        the asynchronous equivalent, fair across sessions."""
        while session.has_work:
            session.analyze_chunk()

    def has_work(self) -> bool:
        return any(s.has_work for s in self.sessions.values())

    # ------------------------------------------------------------------
    # Memory governance: watermarks and the degradation ladder

    def estimated_bytes(self) -> int:
        """Estimated resident footprint across every session."""
        return sum(s.est_bytes for s in self.sessions.values())

    def overloaded(self) -> bool:
        """True when the footprint estimate is at/over the watermark."""
        return (
            self.max_resident_bytes is not None
            and self.estimated_bytes() >= self.max_resident_bytes
        )

    def retry_after_seconds(self) -> float:
        """Back-off hint attached to shed ``open`` replies."""
        return min(30.0, max(1.0, self.idle_timeout / 4))

    def relieve_pressure(self) -> Dict[str, Any]:
        """Climb the degradation ladder until under the watermark.

        Rung one retires settled prefixes of consenting sessions
        (``retire_idle_txns > 0``), fattest first — retirement never
        changes verdicts, so it is always the first resort.  Rung two
        checkpoint-and-evicts the coldest sessions with empty backlogs,
        but only when the ``on_evict`` checkpoint hook is wired (durable
        daemons): an eviction without a checkpoint would destroy state.
        Rung three — shedding new opens — lives in :meth:`open`.  Returns
        what the climb did (``retired_txns``, ``evicted``).
        """
        actions: Dict[str, Any] = {"retired_txns": 0, "evicted": []}
        if not self.overloaded():
            return actions
        by_weight = sorted(
            self.sessions.values(), key=lambda s: s.est_bytes, reverse=True
        )
        for session in by_weight:
            if session.error is not None or session.closed:
                continue
            if not session.config.retire_idle_txns:
                continue
            # Under pressure the idle window is ignored: retirement never
            # changes verdicts, so the most aggressive retire is still
            # safe — the window is comfort, not correctness.
            summary = session.retire(min_idle_txns=0)
            retired = summary.get("retired_txns", 0)
            actions["retired_txns"] += retired
            self.pressure_retired_txns += retired
            if retired and self.obs is not None:
                if self.obs.metrics is not None:
                    self.obs.metrics.pressure_actions_total.labels(
                        "retire"
                    ).inc()
                self.obs.emit(
                    "pressure-retire",
                    level="warn",
                    session=session.id,
                    retired_txns=retired,
                    est_bytes=self.estimated_bytes(),
                    watermark=self.max_resident_bytes,
                )
            if not self.overloaded():
                return actions
        if self.on_evict is not None:
            cold = sorted(
                (s for s in self.sessions.values() if not s.pending),
                key=lambda s: s.last_activity,
            )
            for session in cold:
                if not self.overloaded():
                    break
                self.on_evict(session)
                del self.sessions[session.id]
                session.closed = True
                self._rotation.remove(session.id)
                self.sessions_evicted += 1
                self.pressure_evictions += 1
                actions["evicted"].append(session.id)
                if self.obs is not None:
                    if self.obs.metrics is not None:
                        self.obs.metrics.pressure_actions_total.labels(
                            "evict"
                        ).inc()
                        self.obs.metrics.sessions_evicted_total.inc()
                    self.obs.emit(
                        "pressure-evict",
                        level="warn",
                        session=session.id,
                        est_bytes=self.estimated_bytes(),
                        watermark=self.max_resident_bytes,
                    )
        return actions

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Server-wide counters for the ``stats`` frame."""
        sessions = self.sessions.values()
        return {
            "sessions_open": len(self.sessions),
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "sessions_evicted": self.sessions_evicted,
            "ops_ingested": self.ops_total,
            "chunks_checked": self.chunks_total,
            "backlog": sum(s.backlog for s in sessions),
            "resident_ops": sum(s.resident_ops for s in sessions),
            "retired_ops": sum(s.retired_ops for s in sessions),
            "retired_txns": sum(s.txns_retired for s in sessions),
            "est_bytes": self.estimated_bytes(),
            "max_resident_bytes": self.max_resident_bytes,
            "shed_opens": self.shed_opens,
            "quota_trips": sum(s.quota_trips for s in sessions),
            "pressure_retired_txns": self.pressure_retired_txns,
            "pressure_evictions": self.pressure_evictions,
            "quantum_seconds": self.quantum_seconds,
            "max_sessions": self.max_sessions,
            "max_pending_ops": self.max_pending_ops,
            "idle_timeout": self.idle_timeout,
        }
