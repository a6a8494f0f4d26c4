"""Durable sessions: a per-session write-ahead log plus checkpoints.

PR 5's daemon kept every session in memory; any crash threw away weeks of
accumulated checker state.  This module is the durability layer that makes
``repro serve`` crash-safe: each session owns a directory under the
daemon's ``--data-dir`` holding

``meta.json``
    The session's :class:`~repro.service.session.SessionConfig`, written
    atomically at open time.  A session directory without a readable meta
    file is ignored by recovery (the crash landed between ``mkdir`` and
    the meta write — nothing was acked yet).

``wal.jsonl``
    The write-ahead op journal: one JSON line per acked ``append`` batch.
    The line is the append frame as the daemon received it (its ``type``
    and ``session`` fields included), or ``{"seq": N, "ops": [...]}``
    when the server assigned the seq (a seq-less frame) or dedupe
    trimmed ops from the frame; the ops are the frame's own records,
    never re-encoded.  Both forms carry ``seq`` and ``ops``, which is all
    replay reads.  The line is written (and, per the fsync policy,
    synced) *before* the batch is buffered or acked, so an acked op is
    always on disk.  Because a batch is one ``\\n``-terminated line, a
    torn tail (the writer died mid-record) loses at most one *unacked*
    batch — dropped on replay by the same ``allow_torn_tail`` reader
    history files use.

``checkpoint-*.ckpt``
    Periodic serialized snapshots of the whole
    :class:`~repro.core.incremental.StreamingChecker` (history prefix,
    index columns, cached per-key batches) plus the session's counters.
    Written to a temp file, fsynced, checksummed, and atomically renamed;
    the newest two are kept.  Restart cost is therefore O(WAL tail since
    the last checkpoint), not O(history).

Recovery (:meth:`SessionStore.recover`) is defensive at every step: a
checkpoint whose magic, checksum, or unpickling fails falls back to the
next older one, then to a full WAL replay from an empty checker; a torn
WAL tail is dropped; ops the checkpoint already incorporated are skipped
by their (strictly increasing) history index.  The recovered session's
verdict stream is pinned byte-identical to an uninterrupted batch check
by ``tests/service/test_crash_recovery.py``.

Fsync policy trade-offs (``--fsync``):

``always``
    fsync after every WAL append, before the ack.  An acked op survives
    power loss.  Slowest.
``batch`` (default)
    WAL appends are flushed to the OS (surviving process crashes —
    ``kill -9`` included) and fsynced opportunistically, at every
    checkpoint and on close/evict/drain.  An acked op can be lost only
    if the whole machine dies inside the sync window.
``never``
    No fsyncs at all (tests, benchmark floors).  Still crash-safe
    against process death, like ``batch``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import json
import os
import pickle
import re
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ServiceError
from ..history.io import RecordError, decode_records, iter_json_lines
from ..history.ops import Op
from ..obs import Observability
from .session import SessionConfig

#: Recognized ``--fsync`` policies.
FSYNC_POLICIES = ("always", "batch", "never")

#: A WAL fsync slower than this is an I/O stall worth an event line —
#: on healthy local disks a journal fsync is single-digit milliseconds.
FSYNC_STALL_SECONDS = 0.1

#: Checkpoint file magic: bumped if the payload layout ever changes, so a
#: daemon never misreads a checkpoint from an incompatible build.
CHECKPOINT_MAGIC = b"REPROCKPT11\n"

_SAFE_SESSION = re.compile(r"[^A-Za-z0-9._-]")

_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d{12})\.ckpt$")


def _fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: str, data: bytes, fsync: bool) -> None:
    """Write a file so readers see either the old content or all of the
    new — never a prefix (temp file + fsync + rename)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def session_dir_name(session_id: str) -> str:
    """A filesystem-safe directory name for a session id.

    Unsafe characters are percent-escaped and a short digest disambiguates
    collisions, so two distinct ids can never share a directory.
    """
    safe = _SAFE_SESSION.sub(
        lambda m: f"%{ord(m.group(0)):02x}", session_id
    )
    if safe == session_id:
        return safe
    digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


class SessionStore:
    """One session's durable state: its directory, WAL handle, checkpoints."""

    def __init__(
        self,
        root: str,
        session_id: str,
        fsync: str = "batch",
        keep_checkpoints: int = 2,
        obs: Optional[Observability] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {list(FSYNC_POLICIES)}"
            )
        self.session_id = session_id
        self.fsync = fsync
        self.obs = obs
        self.keep_checkpoints = max(1, keep_checkpoints)
        self.path = os.path.join(root, session_dir_name(session_id))
        self.wal_path = os.path.join(self.path, "wal.jsonl")
        self.meta_path = os.path.join(self.path, "meta.json")
        self._wal: Optional[io.BufferedWriter] = None
        self._wal_dirty = False  # bytes written since the last fsync
        self._checkpoint_counter = 0
        self.wal_batches = 0
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # Creation / metadata

    def create(self, meta: Mapping[str, Any]) -> None:
        """Create the session directory and write its meta record."""
        os.makedirs(self.path, exist_ok=True)
        _atomic_write_bytes(
            self.meta_path,
            json.dumps(dict(meta), indent=2).encode("utf-8") + b"\n",
            fsync=self.fsync != "never",
        )

    def load_meta(self) -> Optional[Dict[str, Any]]:
        """The meta record, or ``None`` when absent/unreadable (a session
        directory the crash left half-created — recovery skips it)."""
        try:
            with open(self.meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    @property
    def exists(self) -> bool:
        return os.path.exists(self.meta_path)

    # ------------------------------------------------------------------
    # The write-ahead log

    def log_append(
        self,
        seq: int,
        records: Sequence[Any],
        raw: Optional[bytes],
    ) -> None:
        """Journal one acked batch: write (and per policy sync) before the
        caller buffers or acks it.

        ``raw`` is the append frame as received; when given, it is the
        line, byte for byte (the caller passes it only when the frame's
        own ``seq`` is ``seq`` and dedupe kept every op).  Otherwise the
        line is ``{"seq": seq, "ops": records}``, where ``records`` are
        the frame's already-parsed op records that survived dedupe.
        Either way no operation is re-encoded.
        """
        if self._wal is None:
            self._wal = open(self.wal_path, "ab")
        if raw is not None:
            line = raw.strip()
        else:
            line = json.dumps(
                {"seq": seq, "ops": records}, separators=(",", ":")
            ).encode("utf-8")
        self._wal.write(line + b"\n")
        self._wal.flush()  # out of the process: survives kill -9
        self._wal_dirty = True
        self.wal_batches += 1
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.wal_appends_total.inc()
        if self.fsync == "always":
            self.sync()

    def sync(self) -> None:
        """fsync pending WAL bytes (no-op under ``never`` or when clean)."""
        if self._wal is not None and self._wal_dirty and self.fsync != "never":
            begin = perf_counter()
            os.fsync(self._wal.fileno())
            elapsed = perf_counter() - begin
            obs = self.obs
            if obs is not None:
                if obs.metrics is not None:
                    obs.metrics.wal_fsync_seconds.observe(elapsed)
                if elapsed >= FSYNC_STALL_SECONDS:
                    obs.emit(
                        "wal-fsync-stall",
                        level="warn",
                        session=self.session_id,
                        ms=round(elapsed * 1000.0, 3),
                        threshold_ms=FSYNC_STALL_SECONDS * 1000.0,
                    )
        self._wal_dirty = False

    def replay_wal(self) -> Tuple[int, List[Tuple[int, List[Op]]]]:
        """Read the journal back: ``(highest_seq, [(seq, ops), ...])``.

        Tolerates a torn final line (dropped — it was never acked) via the
        same reader history files use.  Lines split on ``\\n`` alone, the
        terminator the writer emits: a journaled frame may hold a bare
        ``\\r`` between JSON tokens, which universal newlines would cut in
        two.  Every record must be an object with a positive integer
        ``seq`` and an ``ops`` array of well-formed operation records;
        anything else raises :class:`~repro.errors.ServiceError` naming
        ``path:line`` (and, for a bad operation, its ``ops[i]`` slot).
        Batches are returned in write order; sequence numbers are the ack
        bookkeeping, op indices the dedupe key.
        """
        batches: List[Tuple[int, List[Op]]] = []
        highest = 0
        try:
            fh = open(self.wal_path, "r", encoding="utf-8", newline="\n")
        except OSError:
            return 0, []
        with fh:
            for line_number, record in iter_json_lines(
                fh, allow_torn_tail=True
            ):
                seq = record.get("seq") if isinstance(record, dict) else None
                if (
                    type(seq) is not int
                    or seq <= 0
                    or not isinstance(record.get("ops"), list)
                ):
                    raise ServiceError(
                        f"{self.wal_path}:{line_number}: "
                        "malformed WAL record"
                    )
                try:
                    ops = list(decode_records(enumerate(record["ops"])))
                except RecordError as exc:
                    raise ServiceError(
                        f"{self.wal_path}:{line_number}: malformed WAL "
                        f"record: ops[{exc.position}]: {exc.detail}"
                    ) from None
                highest = max(highest, seq)
                batches.append((seq, ops))
        return highest, batches

    # ------------------------------------------------------------------
    # Checkpoints

    def checkpoint_paths(self) -> List[str]:
        """Existing checkpoint files, newest first."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        found = []
        for name in names:
            match = _CHECKPOINT_NAME.match(name)
            if match:
                found.append((int(match.group(1)), name))
        found.sort(reverse=True)
        return [os.path.join(self.path, name) for _n, name in found]

    def write_checkpoint(self, payload: Dict[str, Any]) -> str:
        """Serialize one checkpoint atomically; prune old ones.

        Layout: magic, 8-byte big-endian body length, pickled body,
        SHA-256 of the body.  Any torn or bit-flipped file fails the
        length or digest check on load and recovery falls back.
        """
        existing = self.checkpoint_paths()
        if existing:
            newest = os.path.basename(existing[0])
            self._checkpoint_counter = max(
                self._checkpoint_counter,
                int(_CHECKPOINT_NAME.match(newest).group(1)),
            )
        self._checkpoint_counter += 1
        name = f"checkpoint-{self._checkpoint_counter:012d}.ckpt"
        path = os.path.join(self.path, name)
        body = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        blob = (
            CHECKPOINT_MAGIC
            + len(body).to_bytes(8, "big")
            + body
            + hashlib.sha256(body).digest()
        )
        # The WAL tail a checkpoint supersedes must not outlive it in the
        # cache while the checkpoint itself is still in flight: sync the
        # journal first, then the checkpoint.
        self.sync()
        begin = perf_counter()
        _atomic_write_bytes(path, blob, fsync=self.fsync != "never")
        elapsed = perf_counter() - begin
        self.checkpoints_written += 1
        obs = self.obs
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.checkpoints_written_total.inc()
                obs.metrics.checkpoint_seconds.observe(elapsed)
                obs.metrics.checkpoint_bytes.observe(len(blob))
            obs.emit(
                "checkpoint",
                session=self.session_id,
                bytes=len(blob),
                ms=round(elapsed * 1000.0, 3),
            )
        for stale in self.checkpoint_paths()[self.keep_checkpoints:]:
            try:
                os.unlink(stale)
            except OSError:  # pragma: no cover - already gone
                pass
        return path

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The newest checkpoint that validates, else ``None``.

        Every failure mode — unreadable file, wrong magic, short body,
        checksum mismatch, unpicklable payload — falls back to the next
        older checkpoint; recovery then replays a longer WAL tail.
        """
        for path in self.checkpoint_paths():
            payload = self._read_checkpoint(path)
            if payload is not None:
                return payload
        return None

    @staticmethod
    def _read_checkpoint(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(CHECKPOINT_MAGIC):
            return None
        offset = len(CHECKPOINT_MAGIC)
        if len(blob) < offset + 8:
            return None
        length = int.from_bytes(blob[offset:offset + 8], "big")
        body = blob[offset + 8:offset + 8 + length]
        digest = blob[offset + 8 + length:offset + 8 + length + 32]
        if len(body) != length or len(digest) != 32:
            return None
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL handle (state stays on disk)."""
        if self._wal is not None:
            self.sync()
            self._wal.close()
            self._wal = None

    def destroy(self) -> None:
        """Remove the session's durable state (clean ``close`` frames)."""
        self.close()
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(self.path, name))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        try:
            os.rmdir(self.path)
        except OSError:  # pragma: no cover - concurrent cleanup
            pass


class DurabilityManager:
    """The daemon-wide durability policy: data dir, cadence, fsync mode.

    Sans-I/O-adjacent by design: everything here is synchronous file work
    the asyncio shell calls inline (WAL appends are a buffered write +
    optional fsync; checkpoints are the expensive part and happen on the
    analyzer's cadence, bounded by ``checkpoint_every``).
    """

    def __init__(
        self,
        data_dir: str,
        checkpoint_every: int = 20_000,
        fsync: str = "batch",
        keep_checkpoints: int = 2,
        obs: Optional[Observability] = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ServiceError("checkpoint_every must be positive")
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {list(FSYNC_POLICIES)}"
            )
        self.data_dir = data_dir
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.keep_checkpoints = keep_checkpoints
        self.obs = obs
        self.sessions_dir = os.path.join(data_dir, "sessions")
        os.makedirs(self.sessions_dir, exist_ok=True)
        self._stores: Dict[str, SessionStore] = {}
        self.checkpoints_written = 0
        self.sessions_recovered = 0

    # ------------------------------------------------------------------

    def store(self, session_id: str) -> SessionStore:
        store = self._stores.get(session_id)
        if store is None:
            store = SessionStore(
                self.sessions_dir,
                session_id,
                fsync=self.fsync,
                keep_checkpoints=self.keep_checkpoints,
                obs=self.obs,
            )
            self._stores[session_id] = store
        return store

    def has_state(self, session_id: str) -> bool:
        """True when the session left durable state behind on disk."""
        return self.store(session_id).exists

    # ------------------------------------------------------------------
    # Session lifecycle hooks (called by the server / registry)

    def open_session(self, session) -> None:
        """Create durable state for a fresh session (WAL starts empty)."""
        store = self.store(session.id)
        store.create({
            "format": 1,
            "session_id": session.id,
            "config": dataclasses.asdict(session.config),
        })

    def log_append(
        self,
        session,
        seq: int,
        records: Sequence[Any],
        raw: Optional[bytes],
    ) -> None:
        """WAL the batch; must be called before buffering/acking it.

        See :meth:`SessionStore.log_append` for the two line forms.
        """
        self.store(session.id).log_append(seq, records, raw)

    def maybe_checkpoint(self, session) -> bool:
        """Checkpoint when enough new ops were analyzed since the last."""
        analyzed = session.checker.history.op_count
        if analyzed - session.checkpointed_ops < self.checkpoint_every:
            return False
        self.checkpoint(session)
        return True

    def checkpoint(self, session) -> str:
        """Serialize the session's full checker state now."""
        store = self.store(session.id)
        path = store.write_checkpoint(_session_payload(session))
        session.checkpointed_ops = session.checker.history.op_count
        self.checkpoints_written += 1
        return path

    def recover_session(self, session_id: str, registry):
        """Rebuild one session from disk into ``registry``.

        Newest valid checkpoint first; the WAL tail (ops whose history
        index exceeds what the checkpoint incorporated) lands in the
        backlog for the analyzer to drain, exactly as if the client had
        just appended it.  Returns the live
        :class:`~repro.service.session.Session`.
        """
        store = self.store(session_id)
        meta = store.load_meta()
        if meta is None:
            raise ServiceError(
                f"session {session_id!r} has no recoverable state",
                code="unknown-session",
            )
        config = SessionConfig(**(meta.get("config") or {}))
        payload = store.load_checkpoint()
        highest_seq, batches = store.replay_wal()
        session = registry.open(config, session_id)
        try:
            if payload is not None and payload.get("session_id") == session_id:
                _restore_payload(session, payload)
            covered = session.checker.history.max_index
            session.applied_seq = max(session.applied_seq, highest_seq)
            for _seq, ops in batches:
                fresh = [op for op in ops if op.index > covered]
                if not fresh:
                    continue
                covered = fresh[-1].index
                session.pending.extend(fresh)
                session.ops_ingested += len(fresh)
                registry.ops_total += len(fresh)
            session.last_buffered_index = covered
        except BaseException:
            registry.close(session_id)
            raise
        self.sessions_recovered += 1
        obs = self.obs
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.sessions_recovered_total.inc()
            obs.emit(
                "session-restore",
                session=session_id,
                checkpoint=payload is not None,
                wal_batches=len(batches),
                backlog=session.backlog,
                applied_seq=session.applied_seq,
            )
        return session

    def drop(self, session_id: str, destroy: bool = False) -> None:
        """Forget (and optionally delete) a session's durable state."""
        store = self._stores.pop(session_id, None)
        if store is None:
            store = self.store(session_id)
            self._stores.pop(session_id, None)
        if destroy:
            store.destroy()
        else:
            store.close()

    def close(self) -> None:
        for store in list(self._stores.values()):
            store.close()
        self._stores.clear()

    def stats(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
            "checkpoints_written": self.checkpoints_written,
            "sessions_recovered": self.sessions_recovered,
        }


# ---------------------------------------------------------------------------
# Payload (de)serialization helpers


def _session_payload(session) -> Dict[str, Any]:
    """Everything a checkpoint must capture to resume the session.

    The checker is stored with its ``result`` stripped: the first verdict
    after a restore re-derives it from the cached per-key batches (an
    all-keys-reused re-merge — cheap, and byte-identical by the streaming
    equivalence oracle), which keeps checkpoints small and avoids
    serializing the whole dependency graph.
    """
    checker = copy.copy(session.checker)
    checker.result = None
    return {
        "format": 1,
        "session_id": session.id,
        "applied_seq": session.applied_seq,
        "checker": checker,
        "counters": {
            # Analyzed ops only, not the ingestion counter: whatever sat
            # in the backlog at checkpoint time is reconstructed from the
            # WAL tail on recovery and re-counted there.
            "ops_ingested": session.checker.history.op_count,
            "chunks_checked": session.chunks_checked,
            "keys_reanalyzed": session.keys_reanalyzed,
            "keys_reused": session.keys_reused,
            "analyze_seconds": session.analyze_seconds,
            "max_chunk_seconds": session.max_chunk_seconds,
        },
    }


def _restore_payload(session, payload: Dict[str, Any]) -> None:
    session.checker = payload["checker"]
    session.applied_seq = int(payload.get("applied_seq", 0))
    counters = payload.get("counters") or {}
    session.ops_ingested = counters.get("ops_ingested", 0)
    session.chunks_checked = counters.get("chunks_checked", 0)
    session.keys_reanalyzed = counters.get("keys_reanalyzed", 0)
    session.keys_reused = counters.get("keys_reused", 0)
    session.analyze_seconds = counters.get("analyze_seconds", 0.0)
    session.max_chunk_seconds = counters.get("max_chunk_seconds", 0.0)
    session.last_buffered_index = session.checker.history.max_index
    session.checkpointed_ops = session.checker.history.op_count
