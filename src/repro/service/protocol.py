"""The checker-service wire protocol: newline-delimited JSON frames.

One frame per line, UTF-8, ``\\n``-terminated — the same framing the
JSON-lines history files use, lifted onto a socket.  Every request frame
is a JSON object with a ``type``; the server answers each request with
exactly one reply frame, in order, so a client can drive the protocol in
lockstep over any reliable byte stream (TCP or a unix socket).

Request frames (client to server):

``open``
    ``{"type": "open", "workload": ..., "model": ..., "chunk": N,
    "options": {...}}`` — create a checking session.  ``session`` may name
    the session explicitly; otherwise the server assigns one.  ``chunk``
    bounds the analysis slice (operations per incremental re-check);
    ``options`` passes workload extras (e.g. rw-register ``sources``).
    ``"resume": true`` makes the open idempotent: it attaches to a live
    session of that id, restores one from the daemon's durability
    directory (``--data-dir``) after a crash or eviction, or creates it
    fresh — and the reply's ``applied_seq`` says which appends the daemon
    has already durably applied, so a reconnecting client re-sends only
    the unacked tail.  ``"fresh": true`` discards on-disk state under the
    id first.  Reply: ``opened`` (with ``applied_seq``, plus
    ``resumed``/``ops_ingested`` when state was restored).

``append``
    ``{"type": "append", "session": ..., "seq": N, "ops": [...]}`` —
    buffer a batch of operations.  Each element is exactly the record
    :func:`repro.history.io.encode_op` writes to JSON-lines files, so a
    history file *is* a sequence of valid ``ops`` entries.  ``seq``
    (optional, client-assigned, strictly increasing per session) makes
    re-delivery after a reconnect safe: a batch at or below the session's
    ``applied_seq`` is acknowledged again without being re-applied, and
    half-applied batches dedupe op-by-op on the strictly increasing
    history index.  On a durable daemon the batch is journaled to the
    write-ahead log *before* the ack — as the frame's own bytes when it
    carries a ``seq`` and dedupe kept every op.  Reply: ``appended`` (with the
    post-accept backlog, ``seq``, ``applied_seq``, and ``deduped`` when
    duplicates were dropped) — sent only once the session's buffer is
    below its high-watermark, which is how backpressure propagates to a
    lockstep client.

``verdict``
    ``{"type": "verdict", "session": ..., "report": false}`` — drain the
    session's backlog through the incremental checker and return the
    verdict for the full prefix ingested so far (see
    :func:`update_record` for the reply shape; ``"report": true`` adds
    the rendered human-readable report).

``stats``
    ``{"type": "stats"}`` or ``{"type": "stats", "session": ...}`` —
    server-wide or per-session counters, including the governance
    numbers (``resident_ops``, ``retired_ops``, ``est_bytes``,
    ``shed_opens``, ``quota_trips``, scheduler ``deficit``), each
    session's ``live_txns`` (the window every chunk re-checks) and
    ``frozen_edges`` (the retired block it never touches), the
    daemon's ``uptime_seconds``/``started_at``, and each session's
    ``last_chunk_ms`` p50/p95/p99 digest.

``metrics``
    ``{"type": "metrics"}`` — the daemon's whole metrics registry as a
    JSON snapshot (the wire twin of the ``/metrics`` Prometheus scrape):
    every family with its type, help text, and labelled samples;
    histograms carry cumulative buckets keyed by upper bound.  On a
    daemon running without ``--metrics-port``/``--log-json`` the reply
    is ``{"type": "metrics", "enabled": false}``.

``ping``
    ``{"type": "ping"}`` — health check.  Reply: ``pong`` with
    ``draining``, ``sessions``, ``backlog``, ``est_bytes``, and
    ``overloaded`` — cheap enough for a tight probe loop, and answered
    even while the server drains (a health checker must distinguish
    "draining" from "dead").

``close``
    ``{"type": "close", "session": ...}`` — drain, then discard the
    session; the reply carries its final counters.

``open`` additionally accepts per-session governance fields: ``max_ops``
(total-ops quota), ``max_analyze_seconds`` (checker-time quota), and
``retire_idle_txns`` (auto-retire the settled prefix after each slice,
sparing the newest N transactions — for keyspace-rotating streams; see
``StreamingChecker.retire``).  An ``open`` field given as null is absent;
any other of the wrong JSON type fails the frame with ``bad-frame``.

Any failure produces ``{"type": "error", "code": "...", "error": "...",
"session": ...}`` instead of the normal reply; the connection stays
usable.  ``code`` is stable and machine-readable: ``bad-frame`` (not a
JSON object, unknown type, malformed fields), ``frame-too-large`` (a line
over the server's byte limit — rejected and skipped without poisoning the
session), ``unknown-session``, ``duplicate-session``, ``server-full``,
``overloaded`` (resident memory over the watermark; the reply carries
``retry_after`` seconds — new sessions are shed, existing ones keep
working), ``quota`` (a per-session ops or analyze-time quota refused the
batch; the session and its verdicts stay intact), ``retired-key`` (an
operation recurred on a retired key; that session is poisoned),
``poisoned``, ``draining``, ``bad-request``, ``internal``; the client
additionally raises ``unavailable`` locally when the daemon cannot be
reached at all.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from ..core.incremental import StreamUpdate
from ..errors import HistoryError, ProtocolError
from ..history.io import RecordError, decode_records, encode_op, parse_line
from ..history.ops import Op

#: Byte limit for one frame on the wire (and the asyncio reader limit).
#: Generous: an ``append`` of 10k operations is ~1 MB of JSON.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Request frame types the server understands.
REQUEST_TYPES = frozenset(
    {"open", "append", "verdict", "stats", "metrics", "close", "ping"}
)


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One frame as wire bytes: compact JSON plus the line terminator."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`~repro.errors.ProtocolError` for anything that is not
    a single JSON object — the caller decides whether that poisons the
    connection (server: no, it answers with an ``error`` frame).  The
    text is parsed by :func:`~repro.history.io.parse_line`, the parser
    history files and the WAL use.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from None
    text = line.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = parse_line(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def request_type(frame: Dict[str, Any]) -> str:
    """Validate the frame's request type and session id (a string when
    given); return the type."""
    kind = frame.get("type")
    if not isinstance(kind, str) or kind not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown frame type {kind!r}; expected one of "
            f"{sorted(REQUEST_TYPES)}"
        )
    session = frame.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError(f"frame session must be a string, got {session!r}")
    return kind


#: The JSON type of each ``open`` field, with its name in errors.
_OPEN_TYPES = (
    (str, "a string", ("workload", "model")),
    (int, "an integer", ("chunk", "max_ops", "retire_idle_txns")),
    ((int, float), "a number", ("max_analyze_seconds",)),
    (bool, "a boolean", ("process_edges", "realtime_edges", "timestamp_edges")),
    (dict, "a JSON object", ("options",)),
)


def open_fields(frame: Dict[str, Any]) -> Dict[str, Any]:
    """The ``open`` frame's non-null fields, each checked for its type
    here: a float chunk would fail only in a later analysis slice, after
    buffering data, and a ``"false"`` edge flag would switch edges on."""
    fields = {name: value for name, value in frame.items() if value is not None}
    for kind, noun, names in _OPEN_TYPES:
        for name in filter(fields.__contains__, names):
            value = fields[name]
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ProtocolError(f"open {name} must be {noun}, got {value!r}")
    sources = fields.get("options", {}).get("sources", [])
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise ProtocolError(f"open options.sources must list strings, got {sources!r}")
    return fields


def encode_ops(ops: Iterable[Op]) -> List[dict]:
    """Operations as ``append``-frame records (the JSON-lines op shape)."""
    return [encode_op(op) for op in ops]


def decode_ops(records: Sequence[Any]) -> List[Op]:
    """Invert :func:`encode_ops`; errors name the array slot, ``ops[i]``.

    Decoding happens *before* any operation reaches a session, so a
    malformed record rejects the whole frame and leaves the session
    untouched — only structurally broken *histories* (pairing violations
    and the like, found at ingest) poison a session.
    """
    if not isinstance(records, (list, tuple)):
        raise ProtocolError(
            f"append ops must be an array, got {type(records).__name__}"
        )
    try:
        return list(decode_records(enumerate(records)))
    except RecordError as exc:
        raise HistoryError(f"ops[{exc.position}]: {exc}") from None


def update_record(update: StreamUpdate) -> Dict[str, Any]:
    """The verdict-reply record for one :class:`StreamUpdate`.

    This is the service's ``verdict`` reply body and, identically, the
    per-chunk line ``python -m repro --follow --json`` prints — one shape
    for both, so a log of ``--json`` lines replays as a transcript of
    service verdicts.
    """
    result = update.result
    return {
        "type": "verdict",
        "chunk": update.chunk,
        "ops": update.ops,
        "txns": update.txns,
        "valid": result.valid,
        "model": result.consistency_model,
        "anomalies": len(result.anomalies),
        "anomaly_types": list(result.anomaly_types),
        "new_anomalies": [
            {"name": a.name, "txns": list(a.txns)}
            for a in update.new_anomalies
        ],
        "resolved": update.resolved,
        "reanalyzed_keys": update.reanalyzed_keys,
        "reused_keys": update.reused_keys,
        "not": sorted(result.not_),
        "but_possibly": sorted(result.but_possibly),
    }


def record_summary(record: Dict[str, Any]) -> str:
    """A one-line human digest of a verdict record.

    The one ``--follow`` progress format: local ``--follow`` prints it for
    :func:`update_record` of each update, and ``--connect --follow``
    narrates a remote session from the wire records alike.
    """
    verdict = "VALID" if record["valid"] else "INVALID"
    parts = [
        f"chunk {record['chunk']}: +{record['ops']} ops "
        f"({record['txns']} txns)",
        f"{verdict} under {record['model']}",
    ]
    fresh = record["new_anomalies"]
    if fresh:
        counts: Dict[str, int] = {}
        for entry in fresh:
            counts[entry["name"]] = counts.get(entry["name"], 0) + 1
        named = ", ".join(f"{name} x{n}" for name, n in sorted(counts.items()))
        parts.append(f"+{len(fresh)} anomalies ({named})")
    else:
        parts.append("+0 anomalies")
    if record["resolved"]:
        parts.append(f"{record['resolved']} resolved")
    return "; ".join(parts)
