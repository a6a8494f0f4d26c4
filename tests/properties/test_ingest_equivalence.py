"""Property tests: the ingest fast paths equal the code they replaced.

Two oracles:

* **Decoding.** ``decode_op`` passes scalars through, turns flat lists
  into tuples in one step and sends only nested lists and tagged values
  through the recursive ``_decode_value``; ``iter_json_lines`` scans each
  line with the C scanner and falls back to ``json.loads`` on a miss.
  Both must give exactly what ``_decode_value`` and ``json.loads`` give,
  down to the types (``1``, ``1.0`` and ``True`` compare equal in Python,
  so results are compared by a typed shape) and to every error text.
* **Pairing.** ``History._apply`` builds each transaction once.  The
  reference below is the earlier implementation, which built a
  provisional indeterminate transaction for every invocation and replaced
  it on completion; it is kept verbatim as an executable oracle.  A
  history built at once, every single split point, and random
  multi-splits must match it in ``transactions``, ``_by_id`` order, each
  call's ``HistoryDelta.new`` / ``upgraded``, and the error texts and
  partial state of malformed batches.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HistoryError
from repro.history import History
from repro.history.io import (
    _decode_value,
    decode_op,
    iter_json_lines,
    load_history,
    loads_history,
)
from repro.history.ops import MicroOp, Op, OpType, Transaction

# ----------------------------------------------------------------------
# Decoding


def shape(value):
    """A typed, order-insensitive-for-sets structure of a decoded value."""
    if isinstance(value, tuple):
        return ("tuple", [shape(v) for v in value])
    if isinstance(value, frozenset):
        return ("frozenset", sorted((shape(v) for v in value), key=repr))
    return (type(value).__name__, repr(value))


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)


def _tagged(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(lambda v: {"tuple": v}),
        st.lists(children, max_size=3).map(lambda v: {"set": v}),
    )


json_values = st.recursive(scalars, _tagged, max_leaves=12)


def _record(key, value):
    return {
        "index": 0,
        "type": "invoke",
        "process": 0,
        "value": [["r", key, value], ["append", value, key]],
    }


@given(json_values, json_values)
@settings(max_examples=400, deadline=None)
def test_decode_op_equals_recursive_decoder(key, value):
    op = decode_op(_record(key, value), 1)
    read, append = op.value
    assert shape(read.key) == shape(_decode_value(key))
    assert shape(read.value) == shape(_decode_value(value))
    assert shape(append.key) == shape(_decode_value(value))
    assert shape(append.value) == shape(_decode_value(key))


@given(st.lists(st.tuples(json_values, json_values), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_scanned_lines_equal_json_loads(pairs):
    records = [_record(key, value) for key, value in pairs]
    text = "".join(json.dumps(record) + "\n" for record in records)
    scanned = list(iter_json_lines(io.StringIO(text)))
    expected = [
        (number, json.loads(line))
        for number, line in enumerate(text.splitlines(), start=1)
    ]
    assert [n for n, _ in scanned] == [n for n, _ in expected]
    for (_, got), (_, want) in zip(scanned, expected):
        assert repr(got) == repr(want)
        assert shape(decode_op(got, 1).value) == shape(
            decode_op(want, 1).value
        )


def test_non_json_containers_keep_the_general_path():
    # Tuples pass through; list subclasses and tags recurse as before.
    class Items(list):
        pass

    for value in [(1, [2]), Items([1, [2]]), [1, {"set": [2, 3]}], [[1], 2]]:
        op = decode_op(_record(0, value), 1)
        assert shape(op.value[0].value) == shape(_decode_value(value))
    with pytest.raises(HistoryError, match="unrecognized tagged value"):
        decode_op(_record(0, [1, {"mystery": 1}]), 1)


GOOD = '{"index": 0, "type": "invoke", "process": 0, "value": []}'
NEXT = '{"index": 5, "type": "invoke", "process": 1, "value": []}'


def _old_error(lines):
    """The error the ``json.loads``-per-line reader raised for ``lines``."""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            return f"line {number}: not JSON: {exc}"
    raise AssertionError("no malformed line")


MALFORMED_LINES = [
    pytest.param(GOOD + " " + GOOD, id="trailing-record"),
    pytest.param(GOOD + " x", id="trailing-garbage"),
    pytest.param("\ufeff" + GOOD, id="leading-bom"),
    pytest.param(GOOD[:-7], id="truncated"),
    pytest.param(GOOD[:1], id="truncated-to-brace"),
    pytest.param("nul", id="truncated-literal"),
    pytest.param('{"index": 0,}', id="trailing-comma"),
    pytest.param("[1, 2", id="open-array"),
    pytest.param('"unterminated', id="open-string"),
]


@pytest.mark.parametrize("bad", MALFORMED_LINES)
def test_malformed_line_errors_unchanged(bad):
    lines = [GOOD, "", bad, NEXT]
    with pytest.raises(HistoryError) as info:
        loads_history("\n".join(lines) + "\n")
    assert str(info.value) == _old_error(lines)


def test_malformed_line_error_texts_pinned():
    with pytest.raises(HistoryError) as info:
        loads_history(GOOD + "\n" + GOOD + " " + GOOD + "\n")
    assert str(info.value) == (
        "line 2: not JSON: Extra data: line 1 column 59 (char 58)"
    )
    with pytest.raises(HistoryError) as info:
        loads_history("\ufeff" + GOOD + "\n")
    assert str(info.value) == (
        "line 1: not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize("bad", MALFORMED_LINES)
def test_malformed_final_line_is_a_torn_tail(bad):
    lines = [GOOD, bad]
    text = "\n".join(lines)
    with pytest.raises(HistoryError) as info:
        load_history(io.StringIO(text))
    assert str(info.value) == _old_error(lines)
    assert len(load_history(io.StringIO(text), allow_torn_tail=True).ops) == 1
    # With a record after it, the same line is corruption, not a tail.
    with pytest.raises(HistoryError) as info:
        load_history(io.StringIO(text + "\n" + NEXT), allow_torn_tail=True)
    assert str(info.value) == _old_error(lines)


# ----------------------------------------------------------------------
# Pairing: the reference implementation


class RefHistory:
    """The earlier pairing fold: provisional INFO per invoke, then replace."""

    def __init__(self):
        self.transactions = []
        self.by_id = {}
        self.pending = {}
        self.pos_by_id = {}
        self.max_index = -1
        self.ops = ()

    def apply(self, new_ops):
        new_ops = tuple(new_ops)
        transactions = self.transactions
        pending = self.pending
        by_id = self.by_id
        pos_by_id = self.pos_by_id
        last = self.max_index if self.max_index >= 0 else None
        new_ids = {}
        upgraded = []
        for op in new_ops:
            if last is not None and op.index <= last:
                raise HistoryError(
                    f"op indices must be strictly increasing; {op.index} after {last}"
                )
            last = op.index
            if op.is_invoke:
                if op.process in pending:
                    raise HistoryError(
                        f"process {op.process} invoked at index {op.index} while "
                        f"index {pending[op.process].index} is still pending"
                    )
                pending[op.process] = op
                txn = Transaction(
                    id=op.index,
                    process=op.process,
                    type=OpType.INFO,
                    mops=tuple(op.value or ()),
                    invoke_index=op.index,
                    complete_index=None,
                    start_ts=op.ts,
                )
                pos_by_id[txn.id] = len(transactions)
                transactions.append(txn)
                by_id[txn.id] = txn
                new_ids[txn.id] = None
            else:
                invoke = pending.pop(op.process, None)
                if invoke is None:
                    raise HistoryError(
                        f"completion at index {op.index} on process {op.process} "
                        "has no pending invocation"
                    )
                mops = op.value if op.value is not None else invoke.value
                txn = Transaction(
                    id=invoke.index,
                    process=op.process,
                    type=op.type,
                    mops=tuple(mops or ()),
                    invoke_index=invoke.index,
                    complete_index=op.index,
                    start_ts=invoke.ts,
                    commit_ts=op.ts if op.type is OpType.OK else None,
                )
                position = pos_by_id[txn.id]
                old = transactions[position]
                transactions[position] = txn
                by_id[txn.id] = txn
                if txn.id not in new_ids:
                    upgraded.append((old, txn))
        self.ops += new_ops
        if last is not None:
            self.max_index = last
        return (
            tuple(by_id[i] for i in new_ids),
            tuple(upgraded),
        )


def assert_same_state(history, ref):
    assert history.transactions == ref.transactions
    assert list(history._by_id.items()) == list(ref.by_id.items())
    assert list(history._pos_by_id.items()) == list(ref.pos_by_id.items())
    assert history._pending == ref.pending
    assert history.ops == ref.ops
    assert history.max_index == ref.max_index


# ----------------------------------------------------------------------
# Pairing: generated histories


@st.composite
def op_streams(draw, max_steps=24):
    """Well-formed op streams with pending, ok, fail and info outcomes."""
    processes = draw(st.integers(min_value=1, max_value=4))
    ops, pending = [], {}
    index = draw(st.integers(min_value=0, max_value=3))
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        process = draw(st.integers(min_value=0, max_value=processes - 1))
        ts = draw(st.one_of(st.none(), st.integers(0, 99)))
        if process in pending:
            kind = draw(st.sampled_from([OpType.OK, OpType.FAIL, OpType.INFO]))
            lost = kind is not OpType.OK and draw(st.booleans())
            value = None if lost else (MicroOp("r", "x", (index,)),)
            ops.append(Op(index, kind, process, value, ts))
            del pending[process]
        else:
            value = (MicroOp("append", "x", index), MicroOp("r", "y"))
            ops.append(Op(index, OpType.INVOKE, process, value, ts))
            pending[process] = index
        index += draw(st.integers(min_value=1, max_value=3))
    return ops


def fold(ops, cuts):
    """Build by extending over ``ops`` split at ``cuts``; compare each step."""
    history = History(())
    ref = RefHistory()
    bounds = [0] + sorted(cuts) + [len(ops)]
    for lo, hi in zip(bounds, bounds[1:]):
        delta = history.extend(ops[lo:hi])
        new, upgraded = ref.apply(ops[lo:hi])
        assert delta.new == new
        assert delta.upgraded == upgraded
        assert_same_state(history, ref)
    return history


@given(op_streams())
@settings(max_examples=300, deadline=None)
def test_pairing_matches_reference_at_every_split(ops):
    whole = History(ops)
    ref = RefHistory()
    ref.apply(ops)
    assert_same_state(whole, ref)
    for cut in range(len(ops) + 1):
        history = fold(ops, [cut])
        assert history.transactions == whole.transactions
        assert list(history._by_id) == list(whole._by_id)


@given(op_streams(), st.data())
@settings(max_examples=300, deadline=None)
def test_pairing_matches_reference_over_multi_splits(ops, data):
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(ops)), max_size=6)
    )
    history = fold(ops, cuts)
    assert history.transactions == History(ops).transactions


@st.composite
def broken_streams(draw):
    """A well-formed stream with one pairing violation spliced in."""
    ops = draw(op_streams(max_steps=16))
    at = draw(st.integers(min_value=0, max_value=len(ops)))
    before = ops[:at]
    index = before[-1].index if before else 0
    breakage = draw(st.sampled_from(["reused-index", "orphan", "double"]))
    busy = {}
    for op in before:
        if op.type is OpType.INVOKE:
            busy[op.process] = op
        else:
            busy.pop(op.process, None)
    if breakage == "reused-index" and before:
        bad = Op(index, OpType.INVOKE, 99, ())
    elif breakage == "double" and busy:
        bad = Op(index + 1, OpType.INVOKE, next(iter(busy)), ())
    else:
        bad = Op(index + 1, OpType.OK, 98, ())
    return before + [bad] + ops[at:], draw(st.integers(0, len(before)))


@given(broken_streams())
@settings(max_examples=300, deadline=None)
def test_malformed_batches_fail_identically(case):
    ops, cut = case
    history = History(ops[:cut])
    ref = RefHistory()
    ref.apply(ops[:cut])
    with pytest.raises(HistoryError) as got:
        history.extend(ops[cut:])
    with pytest.raises(HistoryError) as want:
        ref.apply(ops[cut:])
    assert str(got.value) == str(want.value)
    # Not atomic on error: the partial state matches too.
    assert_same_state(history, ref)
