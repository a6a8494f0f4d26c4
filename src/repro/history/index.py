"""A single-pass, per-key *columnar* index over a history.

Elle's dependency inference (§4–§5) is per-key by construction — version
orders, write indexes, and wr/ww/rw edges are all derived key by key — yet
the raw :class:`~repro.history.history.History` is transaction-major.  A
:class:`HistoryIndex` makes one pass over the transactions and materializes
everything the per-key analysis plans in :mod:`repro.core.keyspace` consume.

**Interned, columnar layout.**  The analyzers' hot loops never touch
:class:`~repro.history.ops.Transaction` objects; everything they need is
interned to dense integers during the single build pass and stored in flat
parallel arrays:

* transactions intern to their *list position* — per-position arrays
  (``txn_ids``, ``txn_committed``, ``txn_aborted``, ``txn_process``,
  ``txn_invoke``, ``txn_complete``, ``txn_prev``, ``internal_candidates``)
  answer every status/interval question with one index instead of an
  attribute chain, and the *completion log* (``rt_complete``,
  ``rt_reach``, ``rt_ids``) lists committed completions in time order —
  the two inputs from which :mod:`repro.core.orders` derives any
  transaction's process and real-time in-edges;
* keys map to their :class:`KeySlice` (``slices[key]``); the two key
  orders (``key_order`` by first appearance, ``read_key_order`` by first
  committed read) are lists of keys, regenerated after every extension;
* written values intern to their first writer's position: each slice's
  ``first_writer`` maps value -> writer position, the per-key restriction
  of the global write index with the Transaction object replaced by an int;
* each :class:`KeySlice` stores its micro-op stream, write stream, and
  committed reads as parallel ``(txn position, mop position, value)``
  arrays — ints and raw values, no per-slot tuple or dataclass objects.

The plans read the arrays.  The one object-level derivation is
``write_map(slice)``, a :class:`HistoryIndex` method taking a slice (the
suspicious-read walk); a :class:`KeySlice` itself is a plain slotted
record with no reference back to its index.  The whole-index passes read
:meth:`HistoryIndex.columns` instead: the streams of a list of keys
concatenated in that order, with transaction status gathered at the
slots' positions through :func:`take`.

**One transaction table.**  The index does not copy the observation: its
``transactions`` list and ``pos_by_id`` map *are* the history's own
objects.  The history appends, upgrades and retires entries in place; the
index only adds the per-position columns derived from them.

The index is cached on the history (``history.index()``), so the checker,
plans, and the streaming layer share one build.

**Incremental extension.**  ``History.extend`` first grows the shared
transaction table, then keeps the cached index alive by calling
:meth:`HistoryIndex.extend` with the appended transactions and any
*upgraded* ones (a pending invocation whose completion arrived, turning a
provisional indeterminate transaction into its final form).  New
transactions append their column rows and their slots to the affected
slices in place; a slice touched by an upgraded transaction is rebuilt from
its own transaction set — never by re-scanning the whole history.
Retirement is split the same way: the history clears retired entries from
the shared table and :meth:`HistoryIndex.retire` drops the settled keys'
slices, remembering only their names.  Every observation-order position
is a ``(transaction position, micro-op position)`` pair, which is stable
under append-only growth, so candidates recorded before an extension stay
comparable with ones recorded after it.  Each slice carries a ``version`` counter that
bumps on any mutation; the streaming checker keys its per-key result cache
on it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.profiling import stage
from ..errors import RetiredKeyError, WorkloadError
from .ops import OpType, READ, MicroOp, Transaction


#: An observation-order position: (transaction position, micro-op position).
#: Lexicographic comparison equals the historical transaction-major scan
#: order, and — unlike a flat running counter — stays stable when the
#: transaction list grows or a transaction's micro-ops are re-scanned.
Seq = Tuple[int, int]


class KeySlice:
    """Everything one key contributed to a history, in observation order.

    The streams are *columnar*: ``op_txn[i]`` is the transaction position
    of the key's ``i``-th micro-op slot (all completion types included),
    and ``w_txn``/``w_seq``/``w_val`` and ``r_txn``/``r_seq``/``r_val``
    are the parallel write and committed-read substreams the analyzers
    consume; each slot's micro-op position (``*_seq``) lets a pass merge
    the substreams back into observation order.  List-valued read
    observations are normalized to tuples once, at build time.
    ``first_writer`` maps written value -> first writing transaction's
    *position* (the interned per-key write index).

    ``version`` counts mutations (appended slots or rebuilds); any cached
    derivation from the slice is valid exactly while the version matches.
    ``first_seq`` / ``first_read_seq`` are the key's first appearance and
    first committed value-bearing read, as :data:`Seq` positions; they
    define the key orderings.  ``_dup`` / ``_none_write`` are the slice-local
    write-uniqueness violation candidates (the index-wide first violation
    is the minimum over slices).

    A plain record: every derivation that needs the transaction columns is
    a :class:`HistoryIndex` method taking the slice.
    """

    __slots__ = (
        "key",
        "version",
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
        self.version = 0
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

    def _reset(self) -> None:
        """Clear derived state before a rebuild (identity fields survive)."""
        self.op_txn = []
        self.w_txn = []
        self.w_seq = []
        self.w_val = []
        self.r_txn = []
        self.r_seq = []
        self.r_val = []
        self.first_writer = {}
        self.first_seq = None
        self.first_read_seq = None
        self._dup = None
        self._none_write = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeySlice({self.key!r}, ops={len(self.op_txn)}, "
            f"writes={len(self.w_txn)}, reads={len(self.r_txn)})"
        )


class IndexColumns:
    """Whole-index CSR columns: every key's streams concatenated flat.

    The per-key :class:`KeySlice` arrays answer "what happened on key k";
    the whole-index analyzer passes want "what happened on *every* key"
    as one vectorizable pass.  ``IndexColumns`` concatenates the
    committed-read and write substreams of the given keys, in the given
    order (list-append passes ``read_key_order``, rw-register
    ``key_order``), into single numpy arrays with per-key ``indptr``
    offsets — the same CSR shape :mod:`repro.graph.csr` uses for
    adjacency.  ``r_seq``/``w_seq`` carry each slot's micro-op position,
    so one sort by (key, transaction position, micro-op position)
    restores observation order across both substreams; they are built on
    first use (rw-register's version sources read them, list-append's
    pass never does).  Values stay as
    flat Python lists (they are arbitrary objects); everything integral
    is int64.

    ``r_key``/``w_key`` give each slot's key index.  ``w_final`` marks
    the last write of each ``(key, txn)`` run — for
    list-append keys that is the writer's final append, the candidate
    element of the installed version order.  The view holds slot columns
    only, so it costs its keys' slots: a pass reads the per-position
    transaction columns at its slots' positions with :func:`take`.

    Built lazily via :meth:`HistoryIndex.columns` and cached against the
    index mutation clock, so batch re-checks share one build and any
    extension invalidates it.
    """

    __slots__ = (
        "keys",
        "r_txn",
        "r_indptr",
        "r_key",
        "r_val",
        "w_txn",
        "w_indptr",
        "w_key",
        "w_val",
        "w_final",
        "_slices",
        "_seq",
    )

    def __init__(self, index: "HistoryIndex", keys: Sequence[Any]) -> None:
        self.keys: List[Any] = list(keys)
        slices = [index.slices[key] for key in self.keys]
        nk = len(slices)
        r_counts = np.zeros(nk + 1, dtype=np.int64)
        w_counts = np.zeros(nk + 1, dtype=np.int64)
        r_counts[1:] = [len(entry.r_txn) for entry in slices]
        w_counts[1:] = [len(entry.w_txn) for entry in slices]
        self.r_indptr = r_counts.cumsum()
        self.w_indptr = w_counts.cumsum()
        n_r = int(self.r_indptr[-1])
        n_w = int(self.w_indptr[-1])

        self._slices = slices
        self._seq: Dict[str, np.ndarray] = {}
        self.r_txn = self._column("r_txn", n_r)
        self.w_txn = self._column("w_txn", n_w)
        self.r_val = list(chain.from_iterable(entry.r_val for entry in slices))
        self.w_val = list(chain.from_iterable(entry.w_val for entry in slices))
        key_ids = np.arange(nk, dtype=np.int64)
        self.r_key = key_ids.repeat(r_counts[1:])
        self.w_key = w_key = key_ids.repeat(w_counts[1:])
        # Last write of each (key, txn) run.  Writes are key-major (by
        # construction) and, within a key, transaction-major with each
        # transaction's writes consecutive, so a run ends where either
        # the writer or the key changes.
        w_final = np.empty(n_w, dtype=bool)
        if n_w:
            w_final[-1] = True
            w_final[:-1] = (self.w_txn[1:] != self.w_txn[:-1]) | (
                w_key[1:] != w_key[:-1]
            )
        self.w_final = w_final

    def _column(self, name: str, n: int) -> np.ndarray:
        # The slices' lists chain straight into numpy: one pass, and no
        # concatenated Python list in between.
        streams = (getattr(entry, name) for entry in self._slices)
        return np.fromiter(chain.from_iterable(streams), np.int64, n)

    @property
    def r_seq(self) -> np.ndarray:
        if "r_seq" not in self._seq:
            self._seq["r_seq"] = self._column("r_seq", len(self.r_txn))
        return self._seq["r_seq"]

    @property
    def w_seq(self) -> np.ndarray:
        if "w_seq" not in self._seq:
            self._seq["w_seq"] = self._column("w_seq", len(self.w_txn))
        return self._seq["w_seq"]


class HistoryIndex:
    """Per-key columnar views of a history, computed in one pass and shared.

    ``transactions`` and ``pos_by_id`` are the owning history's own list
    and map.  The index holds those two objects rather than the history:
    a back-reference would make every dropped history cyclic garbage,
    invisible to reference counting while the analysis pauses the GC.
    """

    __slots__ = (
        "transactions",
        "pos_by_id",
        "slices",
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
        "_columns",
    )

    def __init__(
        self,
        transactions: List[Optional[Transaction]],
        pos_by_id: Dict[int, int],
        profile=None,
    ) -> None:
        self.transactions = transactions
        self.pos_by_id = pos_by_id
        #: Live keys only: a retired key's slice is dropped and its name
        #: moves to ``retired_keys`` (any later operation on it raises).
        self.slices: Dict[Any, KeySlice] = {}
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
        #: Index-wide monotonic mutation clock.  Slice versions are drawn
        #: from it, so a version can never repeat — even when a slice is
        #: deleted (an upgrade dropped its key) and later recreated, the
        #: new slice's versions exceed every version the old one had.
        #: Anything cached against a (key, version) pair stays sound.
        self._clock = 0
        #: (clock, key order, IndexColumns): the cached whole-index column
        #: view, rebuilt when the mutation clock moves.  Not pickled.
        self._columns: Optional[Tuple[int, List[Any], IndexColumns]] = None
        with stage(profile, "index/scan"):
            self._register_txns(0, self.transactions)
            scan = self._scan_txn
            for pos, txn in enumerate(self.transactions):
                scan(pos, txn)
            self._log_completions(np.arange(len(self.transactions)))
        with stage(profile, "index/orders"):
            self._regenerate_orders()
        if profile is not None:
            profile.count("index.txns", len(self.transactions))
            profile.count("index.keys", len(self.slices))
            profile.count(
                "index.interned_values",
                sum(len(s.first_writer) for s in self.slices.values()),
            )

    # ------------------------------------------------------------------
    # Pickling (service checkpoints serialize whole checker states)

    def __getstate__(self) -> dict:
        # ``_columns`` is a derived numpy cache: cheap to rebuild, not
        # worth serializing into service checkpoints.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_columns"
        }

    def __setstate__(self, state: dict) -> None:
        self._columns = None
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # Construction

    def _register_txns(
        self, base: int, txns: Sequence[Transaction]
    ) -> None:
        """Append transaction rows to the per-position columns, in bulk.

        The candidate bit for the internal-consistency screen is appended
        by :meth:`_scan_txn` (which walks the micro-ops anyway); callers
        must scan each registered transaction exactly once, in order.
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
        self.internal_candidates[pos] = self._internal_candidate(txn)

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

    @staticmethod
    def _internal_candidate(txn: Transaction) -> int:
        """1 iff some read-with-value follows an earlier same-key micro-op."""
        seen = set()
        add = seen.add
        for mop in txn.mops:
            key = mop.key
            if key in seen:
                if mop.fn == READ and mop.value is not None:
                    return 1
            else:
                add(key)
        return 0

    def _scan_txn(self, pos: int, txn: Transaction) -> None:
        """Fold one transaction's micro-ops into the key slices.

        Also appends the transaction's internal-consistency candidate bit
        (tracked from the same walk of the micro-ops).  The slot fold is
        inlined — this loop runs once per micro-op in the history;
        :meth:`_fold_slot` is the single-slot twin used by slice rebuilds
        and must stay in lockstep with this body.
        """
        slices = self.slices
        committed = txn.type is OpType.OK
        clock = self._clock + 1
        self._clock = clock
        candidate = 0
        seen_keys = set()
        seen_add = seen_keys.add
        fns_add = self.mop_fns.add
        for mop_seq, mop in enumerate(txn.mops):
            fns_add(mop.fn)
            key = mop.key
            entry = slices.get(key)
            if entry is None:
                if key in self.retired_keys:
                    raise RetiredKeyError(key)
                entry = slices[key] = KeySlice(key)
            entry.version = clock
            if entry.first_seq is None:
                entry.first_seq = (pos, mop_seq)
            entry.op_txn.append(pos)
            value = mop.value
            if mop.fn == READ:
                if not candidate and value is not None and key in seen_keys:
                    candidate = 1
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
            seen_add(key)
        self.internal_candidates.append(candidate)

    def _fold_slot(
        self,
        entry: KeySlice,
        pos: int,
        mop_seq: int,
        mop: MicroOp,
        committed: bool,
    ) -> None:
        """Fold one micro-op slot into a slice (rebuild path).

        Must mirror the inlined body of :meth:`_scan_txn` exactly; the
        index property tests compare extended indexes against fresh builds,
        which pins the two in lockstep.
        """
        if entry.first_seq is None:
            entry.first_seq = (pos, mop_seq)
        entry.op_txn.append(pos)
        self.mop_fns.add(mop.fn)
        value = mop.value
        key = entry.key
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

    def _regenerate_orders(self) -> None:
        """Derive both key orderings from the slices' recorded positions.

        Sorting by first-appearance position reproduces the historical
        append order exactly (positions are unique and transaction-major),
        while also absorbing the rare upgrade that shifts a key's first
        committed read into the middle of the order.
        """
        ordered = sorted(self.slices.values(), key=lambda s: s.first_seq)
        self.key_order[:] = [s.key for s in ordered]
        self.read_key_order[:] = [
            s.key
            for s in sorted(
                (s for s in ordered if s.first_read_seq is not None),
                key=lambda s: s.first_read_seq,
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
        Slices touched only by appends grow in place; slices touched by an
        upgrade are rebuilt from their own transaction set, because an
        upgrade can change committed-read membership, write-map winners,
        and interaction streams anywhere in the slice's stream.  Returns
        the set of keys whose slices changed.
        """
        pos_of = self.pos_by_id
        dirty: Set[Any] = set()
        extra_scan: Dict[Any, Set[int]] = {}
        completed: List[int] = []
        for old, new in upgraded:
            position = pos_of[new.id]
            self._update_txn(position, new)
            completed.append(position)
            for mop in old.mops:
                dirty.add(mop.key)
            for mop in new.mops:
                dirty.add(mop.key)
                extra_scan.setdefault(mop.key, set()).add(position)
        for key in dirty:
            self._rebuild_slice(key, extra_scan.get(key, ()))
        base = len(self.transactions) - len(new_txns)
        self._register_txns(base, new_txns)
        for offset, txn in enumerate(new_txns):
            self._scan_txn(base + offset, txn)
            for mop in txn.mops:
                dirty.add(mop.key)
        completed.extend(range(base, len(self.transactions)))
        self._log_completions(np.asarray(completed, dtype=np.int64))
        self._regenerate_orders()
        return dirty

    def _rebuild_slice(self, key: Any, extra_positions: Iterable[int]) -> None:
        """Re-derive one slice from its own transactions, in position order.

        ``extra_positions`` adds transactions the old slice never saw (an
        upgrade whose completion introduced the key).  A slice left with no
        slots (the upgrade dropped the key entirely) is deleted, exactly as
        if the key had never appeared.
        """
        entry = self.slices.get(key)
        if entry is None:
            if key in self.retired_keys:
                # Unreachable when retirement eligibility held (a
                # provisional transaction on the key blocks retiring it);
                # kept as a loud guard rather than silently rebuilding
                # from an empty stream.
                raise RetiredKeyError(key)
            entry = self.slices[key] = KeySlice(key)
        positions = set(entry.op_txn)
        positions.update(extra_positions)
        entry._reset()
        self._clock += 1
        entry.version = self._clock  # dirty even if the rebuild is empty
        transactions = self.transactions
        for position in sorted(positions):
            txn = transactions[position]
            committed = txn.type is OpType.OK
            for mop_seq, mop in enumerate(txn.mops):
                if mop.key == key:
                    self._fold_slot(entry, position, mop_seq, mop, committed)
        if not entry.op_txn:
            del self.slices[key]

    # ------------------------------------------------------------------
    # Retirement (settled-prefix garbage collection)

    def retire(self, keys: Iterable[Any]) -> Tuple[int, int]:
        """Drop the slices of settled keys.

        Each key's slice is released and its name joins ``retired_keys``
        (any later operation on the key raises
        :class:`~repro.errors.RetiredKeyError`); the key leaves both key
        orders, so everything that walks slices or key orders covers live
        keys only.  Settled transactions are released by
        :meth:`~repro.history.history.History.retire_transactions`, which
        clears the shared transaction list; the per-position transaction
        columns and the completion log are *kept*: a live transaction's
        order in-edges may come from a retired one.  Returns
        ``(slots_dropped, values_dropped)`` for accounting.
        """
        slots = values = 0
        slices = self.slices
        for key in keys:
            entry = slices.pop(key, None)
            if entry is None:
                continue
            slots += len(entry.op_txn)
            values += len(entry.w_val) + len(entry.r_val)
            self.retired_keys.add(key)
        self._clock += 1
        self._regenerate_orders()
        return slots, values

    @property
    def first_duplicate(
        self,
    ) -> Optional[Tuple[Seq, Any, Any, Transaction, Transaction]]:
        """First write collision between two distinct transactions, if any.

        The winner is the earliest candidate across slices in observation
        order — identical to the historical transaction-major scan.
        """
        best = None
        for entry in self.slices.values():
            cand = entry._dup
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        if best is None:
            return None
        seq, key, value, first, second = best
        txns = self.transactions
        return (seq, key, value, txns[first], txns[second])

    @property
    def first_none_write(self) -> Optional[Tuple[Seq, Any, Transaction]]:
        """First write of ``None``, if any (registers reserve ``None``)."""
        best = None
        for entry in self.slices.values():
            cand = entry._none_write
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
        if best is None:
            return None
        seq, key, pos = best
        return (seq, key, self.transactions[pos])

    # ------------------------------------------------------------------
    # Per-slice derived view (the slice arrays stay the stored form)

    def write_map(self, entry: KeySlice) -> Dict[Any, Transaction]:
        """A slice's ``first_writer`` with positions resolved to Transactions."""
        txns = self.transactions
        return {value: txns[p] for value, p in entry.first_writer.items()}

    # ------------------------------------------------------------------
    # Access

    def columns(self, keys: Sequence[Any]) -> IndexColumns:
        """The whole-index CSR column view over ``keys``, cached.

        A batch check passes one of the index's own key orders
        (``read_key_order`` for list-append, ``key_order`` for
        rw-register); a stream passes the keys a chunk touched.  The view
        is immutable; any index mutation bumps the clock and the next call
        rebuilds, as does a call with another key list.
        """
        cached = self._columns
        if cached is not None and cached[0] == self._clock and cached[1] is keys:
            return cached[2]
        cols = IndexColumns(self, keys)
        self._columns = (self._clock, keys, cols)
        return cols

    def __contains__(self, key: Any) -> bool:
        return key in self.slices

    def __len__(self) -> int:
        return len(self.slices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistoryIndex({len(self.transactions)} txns, "
            f"{len(self.slices)} keys)"
        )


def take(column: Sequence[int], positions: np.ndarray) -> np.ndarray:
    """``column[positions]`` as int64.  A flag column (a ``bytearray``) is
    read in place; a list column is converted whole only when the
    positions cover a good share of it."""
    if isinstance(column, bytearray):
        # The view is a temporary: its buffer export ends with the gather,
        # so the column stays free to grow.
        return np.frombuffer(column, dtype=np.uint8)[positions].astype(np.int64)
    if 8 * len(positions) >= len(column):
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


def check_unique_writes(index: HistoryIndex, workload: str) -> None:
    """Raise the first recoverability violation, in observation order.

    ``rw-register`` additionally rejects writes of ``None``; whichever
    violation appears first in the history wins, matching the historical
    transaction-major write-index build.
    """
    dup = index.first_duplicate
    if workload == "rw-register":
        none = index.first_none_write
        if none is not None and (dup is None or none[0] < dup[0]):
            _seq, key, txn = none
            raise none_write_error(key, txn)
    if dup is not None:
        _seq, key, value, first, second = dup
        raise duplicate_write_error(workload, key, value, first, second)
