"""A per-key index over a history, stored as one table of micro-op rows.

Elle's dependency inference (§4–§5) is per-key by construction — version
orders, write indexes, and wr/ww/rw edges are all derived key by key — yet
the raw :class:`~repro.history.history.History` is transaction-major.  A
:class:`HistoryIndex` interns the history once into flat columns, and each
analysis plan in :mod:`repro.core.keyspace` regroups its keys' rows.

**Micro-op rows.**  Every micro-op is one row of five parallel,
append-only columns: transaction position (``row_txn``), micro-op
position in that transaction (``row_seq``), interned key id
(``row_key``), kind (``row_kind``) and value (``row_val``; list-valued
committed reads become tuples).  Rows stay in observation order, so a
transaction's rows are one run that a binary search over ``row_txn``
finds.  The build gathers the micro-ops' fields with C-level ``map`` and
``chain`` into numpy, with no Python step per micro-op.  Lists indexed by
key id hold what is truly per key: ``key_version`` (a mutation stamp from
one index-wide clock, so it never repeats), ``key_first`` and
``key_first_read`` (first appearance and first committed value-bearing
read, as :data:`Seq` positions) and ``key_last`` (the last position
touching the key).  ``key_order`` and ``read_key_order`` sort the live keys
(``key_ids``) by those first positions.

**Pass views.**  :meth:`HistoryIndex.view` gathers the writes and
committed reads of a key list and sorts them once by key rank, keeping
observation order within a key.  That :class:`RowView` is what every
analyzer pass reads, first writers included.

**Transactions.**  Per-position arrays (``txn_ids``, ``txn_committed``,
``txn_aborted``, ``txn_process``, ``txn_invoke``, ``txn_complete``,
``txn_prev``, ``internal_candidates``) answer every status question with
one index, and the *completion log* (``rt_complete``, ``rt_reach``,
``rt_ids``) lists committed completions in time order — the inputs from
which :mod:`repro.core.orders` derives process and real-time in-edges.
The index's ``transactions`` list and ``pos_by_id`` map *are* the
history's own objects, and the index is cached on the history
(``history.index()``), so the checker, plans and streams share one build.

**Incremental extension.**  ``History.extend`` grows the shared
transaction table, then calls :meth:`HistoryIndex.extend` with the
appended transactions and the *upgraded* ones (a pending invocation whose
completion arrived).  Appended transactions append their rows, an upgrade
rewrites its own transaction's run of rows, and the touched keys re-read
their per-key columns from their rows in one vectorized pass.
:meth:`HistoryIndex.retire` drops the rows of settled keys and renumbers
the live ones.  ``(transaction position, micro-op position)`` pairs are
stable under append-only growth, so positions recorded before an
extension stay comparable with ones recorded after it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat
from operator import attrgetter, eq, is_, is_not, itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.profiling import stage
from ..errors import RetiredKeyError, WorkloadError
from .ops import OpType, READ, Transaction


#: An observation-order position: (transaction position, micro-op position).
#: Lexicographic comparison equals the historical transaction-major scan
#: order, and — unlike a flat running counter — stays stable when the
#: transaction list grows or a transaction's micro-ops are rewritten.
Seq = Tuple[int, int]

#: Row kinds: a write, a committed read with a value, a committed read of
#: an unknown value (None), and any other read (of an aborted or
#: indeterminate transaction; no analyzer reads those).
WRITE_ROW, READ_ROW, NULL_ROW, OTHER_ROW = 0, 1, 2, 3


def _gather(column, rows, dtype=np.int64) -> np.ndarray:
    """``column[rows]``, a copy, for an ``array``/``bytearray`` row column
    (the buffer view ends with the call, so the column stays free to grow)."""
    picked = np.frombuffer(column, dtype=dtype)[rows]
    return picked.copy() if isinstance(rows, slice) else picked


class RowView:
    """The writes and committed reads of a key list, key-major.

    ``r_*`` columns are the committed reads and ``w_*`` the writes: each
    row's key index (``*_key``, an index into ``keys``), transaction
    position (``*_txn``), micro-op position (``*_seq``) and value
    (``*_val``, a list), with per-key offsets (``*_indptr``).  Within a
    key, rows are in observation order.  ``w_final`` marks the last write
    of each ``(key, txn)`` run — for list-append keys the writer's final
    append, the candidate element of the installed version order.

    First writers come from the same rows: ``first[k]`` maps each value
    written to key ``k`` to its first write slot, in first-write order,
    and ``w_first`` gives each write slot the first slot of its value.
    """

    __slots__ = (
        "keys",
        "r_txn",
        "r_seq",
        "r_key",
        "r_indptr",
        "r_val",
        "w_txn",
        "w_seq",
        "w_key",
        "w_indptr",
        "w_val",
        "w_final",
        "first",
        "w_first",
    )

    def __init__(self, index: "HistoryIndex", keys: Sequence[Any]) -> None:
        self.keys: List[Any] = list(keys)
        nk = len(self.keys)
        rank = np.full(len(index.key_names), -1, dtype=np.int64)
        rank[np.fromiter(map(index.key_ids.__getitem__, self.keys), np.int64, nk)] = (
            np.arange(nk, dtype=np.int64)
        )
        row_rank = rank[_gather(index.row_key, slice(None))]
        kind = _gather(index.row_kind, slice(None), np.uint8)
        rows = ((row_rank >= 0) & (kind <= NULL_ROW)).nonzero()[0]
        row_rank = row_rank[rows]
        # One stable sort by rank groups the keys and keeps observation
        # order inside each; ranks that fit 16 bits take numpy's radix sort.
        order = np.argsort(
            row_rank.astype(np.uint16) if nk <= 1 << 16 else row_rank,
            kind="stable",
        )
        rows = rows[order]
        row_rank = row_rank[order]
        read = kind[rows] != WRITE_ROW
        values = index.row_val
        for side, mask in (("r", read), ("w", ~read)):
            picked = rows[mask]
            key = row_rank[mask]
            indptr = np.zeros(nk + 1, dtype=np.int64)
            np.cumsum(np.bincount(key, minlength=nk), out=indptr[1:])
            setattr(self, side + "_key", key)
            setattr(self, side + "_indptr", indptr)
            setattr(self, side + "_txn", _gather(index.row_txn, picked))
            setattr(self, side + "_seq", _gather(index.row_seq, picked))
            setattr(self, side + "_val", list(map(values.__getitem__, picked.tolist())))
        # Last write of each (key, txn) run: writes are key-major and,
        # within a key, in observation order, so a transaction's writes
        # are consecutive and a run ends where the writer or the key
        # changes.
        n_w = len(self.w_txn)
        w_final = np.empty(n_w, dtype=bool)
        if n_w:
            w_final[-1] = True
            w_final[:-1] = (self.w_txn[1:] != self.w_txn[:-1]) | (
                self.w_key[1:] != self.w_key[:-1]
            )
        self.w_final = w_final
        # First writers: per key, each written value's first write slot,
        # in first-write order, and each write slot's value's first slot.
        self.first: List[Dict[Any, int]] = []
        w_first: List[int] = []
        bounds = self.w_indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            first: Dict[Any, int] = {}
            w_first.extend(map(first.setdefault, self.w_val[lo:hi], range(lo, hi)))
            self.first.append(first)
        self.w_first = np.array(w_first, dtype=np.int64)

    def head(self, m: int) -> "RowView":
        """The view of the first ``m`` keys: key-major columns make it a
        prefix of every column."""
        if m == len(self.keys):
            return self
        view = RowView.__new__(RowView)
        r, w = self.r_indptr[m], self.w_indptr[m]
        view.keys = self.keys[:m]
        view.first = self.first[:m]
        for name in ("r_indptr", "w_indptr"):
            setattr(view, name, getattr(self, name)[: m + 1])
        for side, end in (("r", r), ("w", w)):
            for column in ("txn", "seq", "key", "val"):
                name = f"{side}_{column}"
                setattr(view, name, getattr(self, name)[:end])
        view.w_final = self.w_final[:w]
        view.w_first = self.w_first[:w]
        return view

    def write_map(
        self, k: int, transactions: Sequence[Transaction]
    ) -> Dict[Any, Transaction]:
        """Key ``k``'s written values -> their first writing Transaction."""
        w_txn = self.w_txn
        return {value: transactions[w_txn[s]] for value, s in self.first[k].items()}


class HistoryIndex:
    """The micro-op rows of a history and its per-key and per-position columns.

    ``transactions`` and ``pos_by_id`` are the owning history's own list
    and map.  The index holds those two objects rather than the history:
    a back-reference would make every dropped history cyclic garbage,
    invisible to reference counting while the analysis pauses the GC.
    """

    __slots__ = (
        "transactions",
        "pos_by_id",
        "row_txn",
        "row_seq",
        "row_key",
        "row_kind",
        "row_val",
        "key_ids",
        "key_names",
        "key_version",
        "key_first",
        "key_first_read",
        "key_last",
        "retired_keys",
        "key_order",
        "read_key_order",
        "txn_ids",
        "txn_process",
        "txn_committed",
        "txn_aborted",
        "txn_invoke",
        "txn_complete",
        "txn_prev",
        "internal_candidates",
        "rt_complete",
        "rt_reach",
        "rt_ids",
        "mop_fns",
        "_last_committed",
        "_clock",
        "_view",
        "_unchecked",
        "_violations",
    )

    def __init__(
        self,
        transactions: List[Optional[Transaction]],
        pos_by_id: Dict[int, int],
        profile=None,
    ) -> None:
        self.transactions = transactions
        self.pos_by_id = pos_by_id
        #: The micro-op rows, in observation order.
        self.row_txn = array("q")
        self.row_seq = array("q")
        self.row_key = array("q")
        self.row_kind = bytearray()
        self.row_val: List[Any] = []
        #: Live keys only: a retired key's name moves to ``retired_keys``
        #: (any later operation on it raises), and a key an upgrade left
        #: without rows leaves ``key_ids`` until retirement renumbers.
        self.key_ids: Dict[Any, int] = {}
        self.key_names: List[Any] = []
        self.key_version: List[int] = []
        self.key_first: List[Optional[Seq]] = []
        self.key_first_read: List[Optional[Seq]] = []
        self.key_last: List[int] = []
        self.retired_keys: Set[Any] = set()
        self.key_order: List[Any] = []
        self.read_key_order: List[Any] = []
        #: Per-position transaction columns (position = index in
        #: ``transactions``, stable: the list only ever grows at the end).
        self.txn_ids: List[int] = []
        self.txn_process: List[int] = []
        self.txn_committed = bytearray()
        self.txn_aborted = bytearray()
        self.txn_invoke: List[int] = []
        self.txn_complete: List[int] = []  # -1 = completion unobserved
        #: Position of the latest committed transaction of the same
        #: process invoked before this one (-1: none).  Final when the row
        #: is appended: a process invokes nothing while a transaction of
        #: it is pending, so every earlier one already has its outcome.
        self.txn_prev: List[int] = []
        #: 1 where the transaction *could* witness an internal-consistency
        #: anomaly: some read-with-value follows an earlier micro-op on the
        #: same key.  The per-txn internal check is skipped everywhere else.
        self.internal_candidates = bytearray()
        #: The completion log: committed transactions with an observed
        #: completion, in completion order — completion index, running
        #: maximum of their invocation indices, and id.  Append-only,
        #: because every extension's completions come after all earlier
        #: ones (op indices strictly increase).
        self.rt_complete = array("q")
        self.rt_reach = array("q")
        self.rt_ids = array("q")
        #: Process -> its latest committed position (feeds ``txn_prev``).
        self._last_committed: Dict[int, int] = {}
        #: Census of micro-op function names seen anywhere in the history.
        #: Grows monotonically (an upgrade never removes entries); workload
        #: validation uses it to skip its per-mop scan when every function
        #: is one the analyzer understands.
        self.mop_fns: Set[str] = set()
        #: Index-wide monotonic mutation clock; key versions are drawn
        #: from it, so a version never repeats, even for a key an upgrade
        #: dropped and a later operation recreated.
        self._clock = 0
        #: (clock, RowView): the last pass view.  Not pickled.
        self._view: Optional[Tuple[int, RowView]] = None
        #: Keys whose rows changed since the write-uniqueness check last
        #: read them, and each checked key's first violations (see
        #: :meth:`first_violations`); keys without one are left out.
        self._unchecked: Set[Any] = set()
        self._violations: Dict[Any, Tuple[Optional[tuple], Optional[tuple]]] = {}
        with stage(profile, "index/scan"):
            self._summarize(self._fold([], 0, self.transactions))
            self._log_completions(np.arange(len(self.transactions)))
        with stage(profile, "index/orders"):
            self._regenerate_orders()
        if profile is not None:
            profile.count("index.txns", len(self.transactions))
            profile.count("index.keys", len(self.key_ids))
            profile.count("index.rows", len(self.row_kind))

    # ------------------------------------------------------------------
    # Pickling (service checkpoints serialize whole checker states)

    def __getstate__(self) -> dict:
        # ``_view`` is a derived numpy cache: cheap to rebuild, not worth
        # serializing into service checkpoints.
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_view"
        }

    def __setstate__(self, state: dict) -> None:
        self._view = None
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # Construction

    def _register_txns(
        self, base: int, txns: Sequence[Transaction]
    ) -> None:
        """Append transaction rows to the per-position columns, in bulk.

        The candidate bit for the internal-consistency screen is appended
        by :meth:`_fold`, from the transactions' micro-op rows.
        """
        last_committed = self._last_committed
        prev_append = self.txn_prev.append
        ids_append = self.txn_ids.append
        process_append = self.txn_process.append
        committed_append = self.txn_committed.append
        aborted_append = self.txn_aborted.append
        invoke_append = self.txn_invoke.append
        complete_append = self.txn_complete.append
        ok = OpType.OK
        fail = OpType.FAIL
        for offset, txn in enumerate(txns):
            pos = base + offset
            process = txn.process
            prev_append(last_committed.get(process, -1))
            ids_append(txn.id)
            process_append(process)
            type_ = txn.type
            if type_ is ok:
                last_committed[process] = pos
            committed_append(1 if type_ is ok else 0)
            aborted_append(1 if type_ is fail else 0)
            invoke_append(txn.invoke_index)
            complete = txn.complete_index
            complete_append(-1 if complete is None else complete)

    def _update_txn(self, pos: int, txn: Transaction) -> None:
        """Refresh one position's columns after an in-place upgrade.

        The upgraded transaction is its process's latest (it was pending),
        so a commit makes it the process's latest committed one.
        """
        type_ = txn.type
        if type_ is OpType.OK:
            self._last_committed[txn.process] = pos
        self.txn_committed[pos] = 1 if type_ is OpType.OK else 0
        self.txn_aborted[pos] = 1 if type_ is OpType.FAIL else 0
        complete = txn.complete_index
        self.txn_complete[pos] = -1 if complete is None else complete

    def _log_completions(self, positions: np.ndarray) -> None:
        """Append the committed, completed ``positions`` to the completion log.

        Sorted by completion index first; each is later than every entry
        already logged.
        """
        committed = np.frombuffer(self.txn_committed, dtype=np.uint8)
        positions = positions[committed[positions] != 0]
        at = take(self.txn_complete, positions)
        observed = at >= 0
        if not observed.any():
            return
        order = np.argsort(at[observed], kind="stable")
        positions = positions[observed][order]
        reach = np.maximum.accumulate(take(self.txn_invoke, positions))
        if self.rt_reach:
            reach = np.maximum(reach, self.rt_reach[-1])
        self.rt_complete.frombytes(at[observed][order].tobytes())
        self.rt_reach.frombytes(reach.tobytes())
        self.rt_ids.frombytes(take(self.txn_ids, positions).tobytes())

    def _intern_keys(self, names: List[Any]) -> np.ndarray:
        """Each name's key id, interning new keys in first-appearance order."""
        ids = self.key_ids
        fresh = [name for name in dict.fromkeys(names) if name not in ids]
        for name in fresh:
            if name in self.retired_keys:
                raise RetiredKeyError(name)
        for name in fresh:
            ids[name] = len(self.key_names)
            self.key_names.append(name)
            self.key_version.append(0)
            self.key_first.append(None)
            self.key_first_read.append(None)
            self.key_last.append(-1)
        return np.fromiter(map(ids.__getitem__, names), np.int64, len(names))

    def _rows(self, positions: np.ndarray, txns: Sequence[Transaction]):
        """The micro-op rows of ``txns`` (at ``positions``), as columns.

        Returns ``(txn, seq, key, kind, values, candidates)``, where
        ``candidates`` holds each transaction's internal-consistency bit.
        Transaction status is read from the per-position columns, which
        must already hold ``positions``.
        """
        mops = list(map(attrgetter("mops"), txns))
        counts = np.fromiter(map(len, mops), np.int64, len(mops))
        flat = list(chain.from_iterable(mops))
        n = len(flat)
        txn = positions.repeat(counts)
        seq = np.arange(n, dtype=np.int64) - (counts.cumsum() - counts).repeat(counts)
        fns = list(map(attrgetter("fn"), flat))
        values = list(map(attrgetter("value"), flat))
        self.mop_fns.update(fns)
        key = self._intern_keys(list(map(attrgetter("key"), flat)))
        read = np.fromiter(map(eq, fns, repeat(READ)), bool, n)
        committed = read & (take(self.txn_committed, txn) != 0)
        if list in set(map(type, values)):
            lists = np.fromiter(map(is_, map(type, values), repeat(list)), bool, n)
            for i in (lists & committed).nonzero()[0].tolist():
                values[i] = tuple(values[i])
        known = np.fromiter(map(is_not, values, repeat(None)), bool, n)
        kind = np.where(
            committed,
            np.where(known, READ_ROW, NULL_ROW),
            np.where(read, OTHER_ROW, WRITE_ROW),
        ).astype(np.uint8)
        # A read with a value that repeats its transaction's earlier key:
        # a stable sort by (transaction, key) puts each such row after the
        # first row of its pair.
        code = txn * max(len(self.key_names), 1) + key
        order = np.argsort(code, kind="stable")
        repeated = np.zeros(n, dtype=bool)
        repeated[order[1:]] = code[order[1:]] == code[order[:-1]]
        candidates = np.zeros(len(txns), dtype=np.uint8)
        hits = (repeated & read & known).nonzero()[0]
        candidates[np.searchsorted(positions, txn[hits])] = 1
        return txn, seq, key, kind, values, candidates

    def _fold(
        self, upgraded: List[int], base: int, txns: Sequence[Transaction]
    ) -> np.ndarray:
        """Rewrite each ``upgraded`` position's run of rows for its final
        form, and register ``txns`` at positions ``base...`` and append
        their rows; returns the key ids of the rows written or replaced."""
        for pos in upgraded:
            self._update_txn(pos, self.transactions[pos])
        self._register_txns(base, txns)
        folded = [self.transactions[pos] for pos in upgraded] + list(txns)
        positions = np.append(
            np.array(upgraded, dtype=np.int64), np.arange(base, base + len(txns))
        )
        txn, seq, key, kind, values, candidates = self._rows(positions, folded)
        row_txn = self.row_txn
        replaced: List[int] = []
        end = 0
        for pos, candidate, count in zip(
            upgraded, candidates.tolist(), map(len, map(attrgetter("mops"), folded))
        ):
            self.internal_candidates[pos] = candidate
            lo = bisect_left(row_txn, pos)
            hi = bisect_right(row_txn, pos)
            replaced += self.row_key[lo:hi]
            new = slice(end, end + count)
            end += count
            row_txn[lo:hi] = array("q", txn[new].tobytes())
            self.row_seq[lo:hi] = array("q", seq[new].tobytes())
            self.row_key[lo:hi] = array("q", key[new].tobytes())
            self.row_kind[lo:hi] = kind[new].tobytes()
            self.row_val[lo:hi] = values[new]
        self.internal_candidates += candidates[len(upgraded) :].tobytes()
        row_txn.frombytes(txn[end:].tobytes())
        self.row_seq.frombytes(seq[end:].tobytes())
        self.row_key.frombytes(key[end:].tobytes())
        self.row_kind += kind[end:].tobytes()
        self.row_val.extend(values[end:])
        return np.append(key, np.array(replaced, dtype=np.int64))

    def _summarize(self, keys: np.ndarray) -> Set[Any]:
        """Re-read the per-key columns of key ids ``keys`` from their rows,
        stamp them with a fresh version and mark them for the next
        uniqueness check; returns their names.  A key left with no rows
        leaves the index, as if it never appeared."""
        mark = np.zeros(len(self.key_names), dtype=bool)
        mark[keys] = True
        row_key = _gather(self.row_key, slice(None))
        rows = mark[row_key].nonzero()[0]
        end = len(row_key)  # no such row
        first = np.full(len(mark), end, dtype=np.int64)
        np.minimum.at(first, row_key[rows], rows)
        last = np.full(len(mark), -1, dtype=np.int64)
        np.maximum.at(last, row_key[rows], rows)
        reads = rows[_gather(self.row_kind, rows, np.uint8) == READ_ROW]
        first_read = np.full(len(mark), end, dtype=np.int64)
        np.minimum.at(first_read, row_key[reads], reads)
        self._clock += 1
        names = set()
        marked = mark.nonzero()[0]
        for k, f, lst, fr in zip(
            marked.tolist(),
            first[marked].tolist(),
            last[marked].tolist(),
            first_read[marked].tolist(),
        ):
            name = self.key_names[k]
            names.add(name)
            self.key_version[k] = self._clock
            if f == end:
                del self.key_ids[name]
                continue
            self.key_first[k] = (self.row_txn[f], self.row_seq[f])
            self.key_last[k] = self.row_txn[lst]
            self.key_first_read[k] = (
                None if fr == end else (self.row_txn[fr], self.row_seq[fr])
            )
        self._unchecked |= names
        return names

    def _regenerate_orders(self) -> None:
        """Derive both key orderings from the recorded first positions.

        Sorting by first-appearance position reproduces the historical
        append order exactly (positions are unique and transaction-major),
        while also absorbing the rare upgrade that shifts a key's first
        committed read into the middle of the order.
        """
        first = self.key_first
        first_read = self.key_first_read
        names = self.key_names
        order = sorted(self.key_ids.values(), key=first.__getitem__)
        self.key_order[:] = [names[k] for k in order]
        self.read_key_order[:] = [
            names[k]
            for k in sorted(
                (k for k in order if first_read[k] is not None),
                key=first_read.__getitem__,
            )
        ]

    # ------------------------------------------------------------------
    # Incremental extension

    def extend(
        self,
        new_txns: Sequence[Transaction],
        upgraded: Sequence[Tuple[Transaction, Transaction]],
    ) -> Set[Any]:
        """Fold appended and upgraded transactions in without a re-scan.

        The shared transaction list already holds the extension:
        ``new_txns`` are the transactions appended at its end (in
        invocation order), and ``upgraded`` ``(old, new)`` pairs for
        provisional indeterminate transactions whose completion arrived.
        Returns the set of keys whose rows changed.
        """
        positions = sorted(self.pos_by_id[new.id] for _old, new in upgraded)
        base = len(self.transactions) - len(new_txns)
        dirty = self._summarize(self._fold(positions, base, new_txns))
        positions.extend(range(base, len(self.transactions)))
        self._log_completions(np.asarray(positions, dtype=np.int64))
        self._regenerate_orders()
        return dirty

    # ------------------------------------------------------------------
    # Retirement (settled-prefix garbage collection)

    def retire(self, keys: Iterable[Any]) -> None:
        """Drop the rows of settled keys and renumber the live ones.

        Each key's name joins ``retired_keys`` (any later operation on the
        key raises :class:`~repro.errors.RetiredKeyError`), and the key
        leaves both key orders.  Settled transactions are released by
        :meth:`~repro.history.history.History.retire_transactions`, which
        clears the shared transaction list; the per-position transaction
        columns and the completion log are *kept*: a live transaction's
        order in-edges may come from a retired one.
        """
        ids = self.key_ids
        gone = [key for key in keys if key in ids]
        self._clock += 1
        if gone:
            for key in gone:
                del ids[key]
            self.retired_keys.update(gone)
            live = np.zeros(len(self.key_names), dtype=bool)
            live[list(ids.values())] = True
            keep = live[_gather(self.row_key, slice(None))]
            renumber = live.cumsum() - 1
            self.row_txn = array("q", _gather(self.row_txn, keep).tobytes())
            self.row_seq = array("q", _gather(self.row_seq, keep).tobytes())
            self.row_key = array(
                "q", renumber[_gather(self.row_key, keep)].tobytes()
            )
            self.row_kind = bytearray(
                _gather(self.row_kind, keep, np.uint8).tobytes()
            )
            self.row_val = list(compress(self.row_val, keep.tolist()))
            kept = live.tolist()
            for name in ("names", "version", "first", "first_read", "last"):
                column = "key_" + name
                setattr(self, column, list(compress(getattr(self, column), kept)))
            self.key_ids = {name: k for k, name in enumerate(self.key_names)}
            for key in gone:
                self._violations.pop(key, None)
            self._unchecked.difference_update(gone)
        self._regenerate_orders()

    def keys_at(self, positions: Iterable[int]) -> Set[Any]:
        """The keys the transactions at ``positions`` touch."""
        row_txn = self.row_txn
        row_key = self.row_key
        names = self.key_names
        found: Set[Any] = set()
        for pos in positions:
            lo = bisect_left(row_txn, pos)
            found.update(map(names.__getitem__, row_key[lo : bisect_right(row_txn, pos)]))
        return found

    # ------------------------------------------------------------------
    # Write uniqueness

    def first_violations(
        self, keys: Sequence[Any] = ()
    ) -> Tuple[Optional[tuple], Optional[tuple]]:
        """The first duplicate write, ``(seq, key, value, first writer pos,
        writer pos)``, and first write of None, ``(seq, key, writer pos)``,
        in observation order.  Each key keeps its own; keys whose rows
        changed since the last call are re-read through one view, listing
        those in ``keys`` (a plan's) first, so that its pass reads the head.
        """
        violations = self._violations
        unchecked = {key for key in self._unchecked if key in self.key_ids}
        for key in self._unchecked:
            violations.pop(key, None)
        self._unchecked = set()
        listed = [key for key in keys if key in unchecked]
        if unchecked:
            view = self.view(listed + list(unchecked.difference(listed)))
            w_txn = view.w_txn
            first = w_txn[view.w_first]
            none = np.zeros(len(w_txn), dtype=bool)
            if None in view.w_val:
                none[:] = np.fromiter(map(is_, view.w_val, repeat(None)), bool, len(w_txn))
            # Slots are key-major and in observation order within a key,
            # so walking them backwards leaves each key's first in place.
            for slot in ((first != w_txn) | none).nonzero()[0][::-1].tolist():
                key = view.keys[view.w_key[slot]]
                at = (int(w_txn[slot]), int(view.w_seq[slot]))
                dup, null = violations.get(key, (None, None))
                if first[slot] != at[0]:
                    dup = (at, key, view.w_val[slot], int(first[slot]), at[0])
                if none[slot]:
                    null = (at, key, at[0])
                violations[key] = (dup, null)
        found = list(violations.values())
        return tuple(
            min((v[i] for v in found if v[i] is not None), key=itemgetter(0), default=None)
            for i in (0, 1)
        )

    # ------------------------------------------------------------------
    # Access

    def view(self, keys: Sequence[Any]) -> RowView:
        """The :class:`RowView` of ``keys``, cached.

        A batch check passes one of the index's own key orders
        (``read_key_order`` for list-append, ``key_order`` for
        rw-register); a stream passes the keys a chunk touched.  The view
        is immutable; any index mutation bumps the clock and the next call
        rebuilds, as does a call with a list of other keys; a call with a
        prefix of the cached view's keys gets that view's head.
        """
        cached = self._view
        if cached is not None and cached[0] == self._clock:
            if cached[1].keys[: len(keys)] == keys:
                return cached[1].head(len(keys))
        view = RowView(self, keys)
        self._view = (self._clock, view)
        return view

    def __contains__(self, key: Any) -> bool:
        return key in self.key_ids

    def __len__(self) -> int:
        return len(self.key_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistoryIndex({len(self.transactions)} txns, "
            f"{len(self.key_ids)} keys, {len(self.row_kind)} rows)"
        )


def take(column: Sequence[int], positions: np.ndarray) -> np.ndarray:
    """``column[positions]`` as int64.  A flag column (a ``bytearray``) is
    read in place; a list column is converted whole only when the
    positions cover a third of it (a lookup costs ~3 elements' conversion)."""
    if isinstance(column, bytearray):
        # The view is a temporary: its buffer export ends with the gather,
        # so the column stays free to grow.
        return np.frombuffer(column, dtype=np.uint8)[positions].astype(np.int64)
    if 3 * len(positions) >= len(column):
        return np.asarray(column, dtype=np.int64)[positions]
    return np.fromiter(
        map(column.__getitem__, positions.tolist()), np.int64, len(positions)
    )


# ---------------------------------------------------------------------------
# Write-uniqueness contracts (recoverability, §4.1.1)

#: Per-workload phrasing for the duplicate-write error: (noun, verb, tail).
_UNIQUENESS_STYLE = {
    "list-append": (
        "element",
        "appended",
        "list-append histories require globally unique appends",
    ),
    "rw-register": (
        "value",
        "written",
        "rw-register histories require unique writes per key",
    ),
    "grow-set": (
        "element",
        "added",
        "grow-set histories require globally unique adds",
    ),
}


def duplicate_write_error(
    workload: str, key: Any, value: Any, first: Transaction, second: Transaction
) -> WorkloadError:
    """The workload-specific broken-recoverability error for one collision."""
    noun, verb, tail = _UNIQUENESS_STYLE[workload]
    return WorkloadError(
        f"{noun} {value!r} {verb} to key {key!r} by "
        f"both T{first.id} and T{second.id}; {tail}"
    )


def none_write_error(key: Any, txn: Transaction) -> WorkloadError:
    """Registers reserve ``None`` for the initial version (§5.2)."""
    return WorkloadError(
        f"T{txn.id} writes None to key {key!r}; None denotes "
        "the initial version and may not be written"
    )


def check_unique_writes(
    index: HistoryIndex, workload: str, keys: Sequence[Any] = ()
) -> None:
    """Raise the first recoverability violation, in observation order.

    ``rw-register`` additionally rejects writes of ``None``; whichever
    violation appears first in the history wins, matching the historical
    transaction-major write-index build.  ``keys``, the plan's key list,
    lets a batch check share its pass's view.
    """
    dup, none = index.first_violations(keys)
    txns = index.transactions
    if workload == "rw-register":
        if none is not None and (dup is None or none[0] < dup[0]):
            _seq, key, pos = none
            raise none_write_error(key, txns[pos])
    if dup is not None:
        _seq, key, value, first, second = dup
        raise duplicate_write_error(workload, key, value, txns[first], txns[second])
