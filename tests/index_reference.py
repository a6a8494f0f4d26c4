"""The per-key slice fold the history index's row store replaced: an oracle.

``src/`` keeps a history's micro-ops as one table of rows
(:class:`~repro.history.index.HistoryIndex`), and each analyzer pass
regroups its keys' rows in one sort (:class:`~repro.history.index.RowView`).
This module keeps the fold those rows replaced: each micro-op folded, in
observation order, into its key's :class:`KeySlice`, with the key's write
index (``first_writer``) and its first write-uniqueness violations built
on the way.  The index tests compare the row store's per-key view with
it (:func:`row_slices` against :func:`fold`), and the per-key reference
walks in ``tests/*_reference.py`` read their keys' slices from it
(:func:`slice_of`).  Nothing in ``src/`` imports it.
"""

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.history.index import HistoryIndex, Seq
from repro.history.ops import READ, OpType, Transaction


class KeySlice:
    """Everything one key contributed to a history, in observation order.

    The streams are *columnar*: ``op_txn[i]`` is the transaction position
    of the key's ``i``-th micro-op slot (all completion types included),
    and ``w_txn``/``w_seq``/``w_val`` and ``r_txn``/``r_seq``/``r_val``
    are the parallel write and committed-read substreams; each slot's
    micro-op position (``*_seq``) merges the substreams back into
    observation order.  List-valued read observations are normalized to
    tuples.  ``first_writer`` maps written value -> first writing
    transaction's *position*.  ``first_seq`` / ``first_read_seq`` are the
    key's first appearance and first committed value-bearing read.
    ``_dup`` / ``_none_write`` are the slice-local write-uniqueness
    violation candidates (the index-wide first violation is the minimum
    over slices).
    """

    __slots__ = (
        "key",
        "op_txn",
        "w_txn",
        "w_seq",
        "w_val",
        "r_txn",
        "r_seq",
        "r_val",
        "first_writer",
        "first_seq",
        "first_read_seq",
        "_dup",
        "_none_write",
    )

    def __init__(self, key: Any) -> None:
        self.key = key
        self.op_txn: List[int] = []
        self.w_txn: List[int] = []
        self.w_seq: List[int] = []
        self.w_val: List[Any] = []
        self.r_txn: List[int] = []
        self.r_seq: List[int] = []
        self.r_val: List[Any] = []
        self.first_writer: Dict[Any, int] = {}
        self.first_seq: Optional[Seq] = None
        self.first_read_seq: Optional[Seq] = None
        #: (seq, key, value, first writer pos, second writer pos)
        self._dup: Optional[Tuple[Seq, Any, Any, int, int]] = None
        #: (seq, key, writer pos)
        self._none_write: Optional[Tuple[Seq, Any, int]] = None


def fold(
    transactions: Sequence[Optional[Transaction]], retired_keys: Iterable[Any] = ()
) -> Dict[Any, KeySlice]:
    """Every key's slice, one micro-op at a time, in observation order.

    Retired positions (``None``) and ``retired_keys`` are skipped, so a
    retiring index's live keys fold to the same slices as its rows.
    """
    retired = set(retired_keys)
    slices: Dict[Any, KeySlice] = {}
    for pos, txn in enumerate(transactions):
        if txn is None:
            continue
        committed = txn.type is OpType.OK
        for mop_seq, mop in enumerate(txn.mops):
            key = mop.key
            if key in retired:
                continue
            entry = slices.get(key)
            if entry is None:
                entry = slices[key] = KeySlice(key)
            if entry.first_seq is None:
                entry.first_seq = (pos, mop_seq)
            entry.op_txn.append(pos)
            value = mop.value
            if mop.fn == READ:
                if committed:
                    if type(value) is list:
                        value = tuple(value)
                    entry.r_txn.append(pos)
                    entry.r_seq.append(mop_seq)
                    entry.r_val.append(value)
                    if value is not None and entry.first_read_seq is None:
                        entry.first_read_seq = (pos, mop_seq)
            else:
                entry.w_txn.append(pos)
                entry.w_seq.append(mop_seq)
                entry.w_val.append(value)
                if value is None and entry._none_write is None:
                    entry._none_write = ((pos, mop_seq), key, pos)
                first = entry.first_writer.setdefault(value, pos)
                if first != pos and entry._dup is None:
                    entry._dup = ((pos, mop_seq), key, value, first, pos)
    return slices


#: The last fold: (index, its clock, its transaction count, slices).
_cache: List[Any] = [None, None, None, None]


def slices_of(index: HistoryIndex) -> Dict[Any, KeySlice]:
    """:func:`fold` over an index's live transactions and keys, cached
    until the index changes."""
    state = (index._clock, len(index.transactions))
    if _cache[0] is not index or _cache[1:3] != list(state):
        _cache[:] = [
            index,
            *state,
            fold(index.transactions, index.retired_keys),
        ]
    return _cache[3]


def slice_of(index: HistoryIndex, key: Any) -> KeySlice:
    """One key's folded slice."""
    return slices_of(index)[key]


def write_map(index: HistoryIndex, entry: KeySlice) -> Dict[Any, Transaction]:
    """A slice's ``first_writer`` with positions resolved to Transactions."""
    txns = index.transactions
    return {value: txns[p] for value, p in entry.first_writer.items()}


def first_duplicate(slices: Dict[Any, KeySlice]):
    """The earliest duplicate-write candidate across slices, positions
    unresolved: ``(seq, key, value, first pos, second pos)``."""
    found = [s._dup for s in slices.values() if s._dup is not None]
    return min(found, key=lambda cand: cand[0], default=None)


def first_none_write(slices: Dict[Any, KeySlice]):
    """The earliest write of ``None`` across slices: ``(seq, key, pos)``."""
    found = [s._none_write for s in slices.values() if s._none_write is not None]
    return min(found, key=lambda cand: cand[0], default=None)


def row_slices(index: HistoryIndex) -> Dict[Any, KeySlice]:
    """The index's per-key view, as slices: each key's rows (``op_txn``)
    from the row store, and its writes, committed reads and first writers
    from one :class:`~repro.history.index.RowView` over every live key."""
    slices: Dict[Any, KeySlice] = {}
    names = index.key_names
    for k, pos in zip(index.row_key, index.row_txn):
        key = names[k]
        entry = slices.get(key)
        if entry is None:
            entry = slices[key] = KeySlice(key)
        entry.op_txn.append(pos)
    view = index.view(list(index.key_order))
    for k, key in enumerate(view.keys):
        entry = slices[key]
        w = slice(int(view.w_indptr[k]), int(view.w_indptr[k + 1]))
        r = slice(int(view.r_indptr[k]), int(view.r_indptr[k + 1]))
        entry.w_txn = view.w_txn[w].tolist()
        entry.w_seq = view.w_seq[w].tolist()
        entry.w_val = view.w_val[w]
        entry.r_txn = view.r_txn[r].tolist()
        entry.r_seq = view.r_seq[r].tolist()
        entry.r_val = view.r_val[r]
        entry.first_writer = {
            value: int(view.w_txn[slot]) for value, slot in view.first[k].items()
        }
        entry.first_seq = index.key_first[index.key_ids[key]]
        entry.first_read_seq = index.key_first_read[index.key_ids[key]]
    return slices


def signature(slices: Dict[Any, KeySlice]) -> Dict[Any, tuple]:
    """Everything the analyzers consume of each slice, comparable.

    ``first_writer`` compares as a list, so its first-write order counts.
    """
    return {
        key: (
            sl.op_txn,
            (sl.w_txn, sl.w_seq, repr(sl.w_val)),
            (sl.r_txn, sl.r_seq, repr(sl.r_val)),
            [(repr(v), p) for v, p in sl.first_writer.items()],
            sl.first_seq,
            sl.first_read_seq,
        )
        for key, sl in slices.items()
    }


def index_signature(index: HistoryIndex) -> tuple:
    """Everything the analyzers consume: each key's rows, writes, committed
    reads and first writers as the index's per-key view gives them, plus
    the per-position columns and the first write-uniqueness violations.

    Asserts on the way that the per-key view, each key's last toucher and
    the uniqueness violations equal the reference fold's.
    """
    slices = row_slices(index)
    folded = fold(index.transactions, index.retired_keys)
    assert signature(slices) == signature(folded)
    assert {key: index.key_last[k] for key, k in index.key_ids.items()} == {
        key: sl.op_txn[-1] for key, sl in folded.items()
    }
    dup, none = index.first_violations()
    assert dup == first_duplicate(folded)
    assert none == first_none_write(folded)
    return (
        [(t.id, t.type.value) for t in index.transactions if t is not None],
        list(index.key_order),
        list(index.read_key_order),
        signature(slices),
        index.txn_prev,
        bytes(index.internal_candidates),
        (list(index.rt_complete), list(index.rt_reach), list(index.rt_ids)),
        dup and dup[0],
        none and none[0],
    )
