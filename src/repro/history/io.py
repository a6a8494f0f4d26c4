"""JSON-lines serialization of histories: real observations in, verdicts out.

The built-in simulator is one source of histories; real Jepsen-style test
harnesses are another.  This module gives both a common interchange format:
one operation per line, in history-index order, so files stream and diff
naturally and a partially-written file is still a readable prefix::

    {"index": 0, "type": "invoke", "process": 0, "value": [["append", "x", 1]]}
    {"index": 1, "type": "ok", "process": 0, "value": [["append", "x", 1]]}

Each line carries ``index``, ``type`` (``invoke`` / ``ok`` / ``fail`` /
``info``), ``process``, ``value`` (the micro-op list, or ``null`` when an
indeterminate completion lost its results), and optionally ``ts`` (the
database-exposed timestamp of §5.1).  Micro-ops serialize as ``[fn, key,
value]`` triples, mirroring the EDN micro-op vectors Jepsen histories use.

JSON has no tuples or sets, so two observed-value forms get tagged on the
wire: grow-set reads (``{"set": [...]}``, restored as ``frozenset``) and —
for completeness — nested tuples (``{"tuple": [...]}``).  List-append read
values round-trip as plain JSON arrays and come back as tuples, the
canonical in-memory form.

``python -m repro --in history.jsonl`` checks a file instead of generating
a workload; ``--dump-history`` writes the generated observation out.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Union

from ..core.gcpause import paused_gc
from ..errors import HistoryError
from .history import History
from .ops import MicroOp, Op, OpType

PathOrFile = Union[str, Path, io.IOBase]

#: The scanner :func:`json.loads` runs, configured the same way (the C
#: implementation when the interpreter has one).
_SCAN_ONCE = json.JSONDecoder().scan_once


# ---------------------------------------------------------------------------
# Value encoding

def _encode_value(value: Any) -> Any:
    """JSON-encode one micro-op argument / observed value."""
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"set": sorted((_encode_value(v) for v in value), key=repr)}
    return value


#: The exact types the JSON scanner produces for scalars; they decode to
#: themselves.  Exact-type tests (not ``isinstance``) keep list and dict
#: subclasses, and anything else unusual, on the general path.
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Wire ``type`` strings to :class:`OpType`, skipping the Enum call.
_OP_TYPES = {t.value: t for t in OpType}


def _decode_value(value: Any) -> Any:
    """Invert :func:`_encode_value`; sequences come back as tuples."""
    if isinstance(value, list):
        return tuple(_decode_value(v) for v in value)
    if isinstance(value, dict):
        if set(value) == {"set"}:
            return frozenset(_decode_value(v) for v in value["set"])
        if set(value) == {"tuple"}:
            return tuple(_decode_value(v) for v in value["tuple"])
        raise HistoryError(f"unrecognized tagged value {value!r}")
    return value


def encode_op(op: Op) -> dict:
    """The wire record for one operation (shared by files and the service).

    The checker service's ``append`` frames carry exactly these records, so
    a JSON-lines history file, a ``--dump-history`` artifact, and a frame
    on the service socket all speak one format.
    """
    record = {
        "index": op.index,
        "type": op.type.value,
        "process": op.process,
        "value": None
        if op.value is None
        else [[m.fn, _encode_value(m.key), _encode_value(m.value)] for m in op.value],
    }
    if op.ts is not None:
        record["ts"] = op.ts
    return record


def _decode_nonscalar(value: Any) -> Any:
    """:func:`_decode_value` for a non-scalar, sparing the flat-list case.

    A list whose elements are all scalars becomes ``tuple(list)`` after
    one C-level type scan; nested lists and tagged values take the
    recursive :func:`_decode_value`, so results are always identical.
    """
    if type(value) is list and set(map(type, value)) <= _SCALARS:
        return tuple(value)
    return _decode_value(value)


def _field_error(index: Any, process: Any, ts: Any) -> str:
    """Why ``index``, ``process`` or ``ts`` has the wrong type.

    ``index`` and ``process`` must be ints (a JSON ``true`` is not one);
    ``ts`` must be an int, or ``null`` / absent.
    """
    if type(index) is not int:
        field, value = "index", index
    elif type(process) is not int:
        field, value = "process", process
    else:
        field, value = "ts", ts
    return f"{field} must be an integer, got {value!r}"


def decode_op(record: dict, line_number: int) -> Op:
    """Invert :func:`encode_op`; ``line_number`` contextualizes errors.

    Micro-op keys and values dispatch on their exact type: scalars pass
    through, a list of scalars becomes a tuple in one step, and only
    nested lists and ``{"set"}`` / ``{"tuple"}`` tags take the recursive
    :func:`_decode_value` (see :func:`_decode_nonscalar`).  Fields are
    read in a fixed order (``value``, ``index``, ``type``, ``process``,
    ``ts``), so the first missing or malformed one names the error; a
    non-integer ``index``, ``process`` or ``ts`` raises too, rather than
    loading and failing later without a line number.
    """
    try:
        mops = record["value"]
        if mops is not None:
            scalars = _SCALARS
            decode = _decode_nonscalar
            mops = tuple(
                [
                    MicroOp(
                        fn,
                        key if type(key) in scalars else decode(key),
                        value if type(value) in scalars else decode(value),
                    )
                    for fn, key, value in mops
                ]
            )
        index = record["index"]
        kind = record["type"]
        op_type = _OP_TYPES.get(kind) if type(kind) is str else None
        if op_type is None:
            op_type = OpType(kind)
        process = record["process"]
        ts = record.get("ts")
    except (KeyError, TypeError, ValueError) as exc:
        raise HistoryError(
            f"line {line_number}: malformed operation record: {exc}"
        ) from None
    if type(index) is not int or type(process) is not int or (
        ts is not None and type(ts) is not int
    ):
        raise HistoryError(
            f"line {line_number}: malformed operation record: "
            f"{_field_error(index, process, ts)}"
        )
    return Op(index, op_type, process, mops, ts)


# ---------------------------------------------------------------------------
# Public API

def dump_ops(ops: Iterable[Op], fh) -> int:
    """Write operations to an open text file; returns the count written."""
    count = 0
    for op in ops:
        fh.write(json.dumps(encode_op(op), separators=(", ", ": ")))
        fh.write("\n")
        count += 1
    return count


def iter_json_lines(
    fh, allow_torn_tail: bool = False
) -> Iterator[tuple]:
    """Yield ``(line_number, record)`` pairs from a JSON-lines stream.

    The framing layer every JSON-lines reader here shares (history files,
    the service WAL).  Blank lines are skipped and CRLF line endings are
    tolerated.  With ``allow_torn_tail=True`` a *final* line that is not
    valid JSON is silently dropped instead of raising — the signature of a
    writer that died mid-record (crash, full disk, ``kill -9``), which is
    exactly the state WAL replay and crash recovery must shrug off.  A
    malformed line with more data after it still raises: that is
    corruption, not a torn tail.

    Each stripped line goes straight to the C scanner behind
    :func:`json.loads` (skipping its per-call wrapper), which must consume
    the whole line.  Anything it refuses — trailing data, a leading BOM,
    a truncated record — is handed to :func:`json.loads` itself, so the
    error text is always exactly the standard library's.
    """
    scan = _SCAN_ONCE
    pending = None  # (line_number, text) awaiting proof it isn't the tail
    line_number = 0
    for line_number, line in enumerate(fh, start=1):
        if pending is not None:
            number, text = pending
            raise HistoryError(f"line {number}: not JSON: {text}")
        line = line.strip()
        if not line:
            continue
        try:
            record, end = scan(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if allow_torn_tail:
                    # Hold the error until we know whether more lines follow.
                    pending = (line_number, str(exc))
                    continue
                raise HistoryError(
                    f"line {line_number}: not JSON: {exc}"
                ) from None
        yield line_number, record
    # A pending decode error on the very last line is a torn tail: drop it.


def load_ops(fh, allow_torn_tail: bool = False) -> Iterator[Op]:
    """Yield operations from an open text file.

    Blank lines are skipped and CRLF line endings are tolerated (histories
    captured on Windows or shipped through tools that rewrite newlines
    load unchanged); error messages still count physical lines.
    ``allow_torn_tail=True`` drops a truncated final record instead of
    raising — the WAL-replay contract (see :func:`iter_json_lines`); a
    final line that parses as JSON but is missing operation fields is
    treated the same way (truncation can land between two closing braces).
    """
    if not allow_torn_tail:
        for line_number, record in iter_json_lines(fh):
            yield decode_op(record, line_number)
        return
    held = None  # (line_number, record): not yet proven non-final
    for line_number, record in iter_json_lines(fh, allow_torn_tail=True):
        if held is not None:
            yield decode_op(held[1], held[0])
        held = (line_number, record)
    if held is not None:
        try:
            yield decode_op(held[1], held[0])
        except HistoryError:
            pass  # final record truncated to valid-but-incomplete JSON


def iter_op_chunks(
    fh, chunk_size: int, allow_torn_tail: bool = False
) -> Iterator[List[Op]]:
    """Yield operations from an open text stream in lists of ``chunk_size``.

    The streaming ingest path (``python -m repro --follow --chunk N``):
    reads line by line, so it works on non-seekable sources — pipes,
    sockets, ``stdin`` — and yields each chunk as soon as enough lines have
    arrived.  The final chunk may be shorter.  The format is line-framed:
    a truncated final line (a writer died mid-record) raises
    :class:`~repro.errors.HistoryError` like any malformed line, unless
    ``allow_torn_tail=True`` (the WAL-replay mode) drops it.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    batch: List[Op] = []
    for op in load_ops(fh, allow_torn_tail=allow_torn_tail):
        batch.append(op)
        if len(batch) >= chunk_size:
            yield batch
            batch = []
    if batch:
        yield batch


def dump_history(history: History, target: PathOrFile) -> int:
    """Serialize a history to JSON lines; returns the operation count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return dump_ops(history.ops, fh)
    return dump_ops(history.ops, target)


def load_history(source: PathOrFile, allow_torn_tail: bool = False) -> History:
    """Load a history from JSON lines (validating pairing as usual).

    ``allow_torn_tail=True`` drops a truncated final record instead of
    raising — for reading files whose writer may have died mid-record
    (the service WAL, a crashed ``--dump-history`` run).
    """
    with paused_gc():
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                return History(
                    list(load_ops(fh, allow_torn_tail=allow_torn_tail))
                )
        return History(list(load_ops(source, allow_torn_tail=allow_torn_tail)))


def dumps_history(history: History) -> str:
    """The JSON-lines text of a history (round-trip: :func:`loads_history`)."""
    buffer = io.StringIO()
    dump_ops(history.ops, buffer)
    return buffer.getvalue()


def loads_history(text: str) -> History:
    """Parse a history from JSON-lines text."""
    with paused_gc():
        return History(list(load_ops(io.StringIO(text))))
