"""Histories: ordered sequences of observed operations.

A :class:`History` is the checker's input — the paper's *observation* O.  It
holds invocation/completion ops in index order and pairs them into
:class:`~repro.history.ops.Transaction` views.

Pairing rules (matching Jepsen's semantics):

* Each logical process is single-threaded: an invocation on process ``p`` is
  paired with the next completion on ``p``.
* A process with a pending invocation cannot invoke again (that would mean
  two concurrent transactions on a single-threaded client).
* An invocation that never completes becomes an *indeterminate* transaction
  (``info``): the client crashed or timed out without learning the outcome.

Convenience constructors build histories from compact transaction tuples so
tests and examples don't need to spell out invoke/complete pairs.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import HistoryError
from .ops import COMPLETION_TYPES, MicroOp, Op, OpType, Transaction

CompactTxn = Tuple[Union[str, OpType], int, Sequence[MicroOp]]


class HistoryDelta(NamedTuple):
    """What one :meth:`History.extend` call changed.

    ``new`` lists transactions whose invocation arrived in this extension
    (in invocation order, final state — an invoke paired with its completion
    inside the same chunk appears here, already closed).  ``upgraded`` pairs
    a provisional indeterminate transaction from an *earlier* extension with
    its final form, now that its completion has been observed.
    ``dirty_keys`` is the set of keys whose index rows changed — the
    cache-invalidation signal for incremental consumers — or ``None`` when
    the history had no cached index to extend (everything is then new).
    """

    new: Tuple[Transaction, ...]
    upgraded: Tuple[Tuple[Transaction, Transaction], ...]
    dirty_keys: Optional[frozenset] = None

    @property
    def changed(self) -> List[Transaction]:
        """All transactions (final state) this extension touched, id order."""
        txns = list(self.new) + [new for _old, new in self.upgraded]
        txns.sort(key=lambda t: t.id)
        return txns


def _coerce_type(value: Union[str, OpType]) -> OpType:
    if isinstance(value, OpType):
        return value
    try:
        return OpType(value)
    except ValueError:
        raise HistoryError(f"unknown op type {value!r}") from None


def _provisional(invoke: Op) -> Transaction:
    """The indeterminate view of an invocation with no completion yet."""
    return Transaction(
        id=invoke.index,
        process=invoke.process,
        type=OpType.INFO,
        mops=tuple(invoke.value or ()),
        invoke_index=invoke.index,
        complete_index=None,
        start_ts=invoke.ts,
    )


class History:
    """An observation: operations in index order plus their transaction views.

    Histories grow: :meth:`extend` appends further operations in place,
    pairing new completions with invocations that were still pending — the
    substrate of the streaming checker.  A built history is therefore always
    equivalent to one built from all its operations at once; a pending
    invocation is visible as a provisional indeterminate transaction until
    (unless) its completion arrives.
    """

    __slots__ = (
        "ops",
        "transactions",
        "_index",
        "_pending",
        "_pos_by_id",
        "_max_index",
        "_retired_ops",
    )

    def __init__(self, ops: Sequence[Op] = ()) -> None:
        self.ops: Tuple[Op, ...] = ()
        #: The one transaction table: the cached index shares this list
        #: and ``_pos_by_id`` rather than copying them.
        self.transactions: List[Optional[Transaction]] = []
        self._index = None
        #: Pending invocations: process -> invoke Op.
        self._pending: Dict[int, Op] = {}
        #: Transaction id -> position in ``transactions`` (invocation order,
        #: so positions are stable as the history grows).
        self._pos_by_id: Dict[int, int] = {}
        #: Highest op index ever observed; survives retirement dropping the
        #: tail-less ``ops`` tuple entries it came from.
        self._max_index = -1
        #: Ops dropped by retirement (their count still figures in totals).
        self._retired_ops = 0
        self._apply(ops)

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def of(cls, *txns: CompactTxn) -> "History":
        """Build a history of sequential (non-overlapping) transactions.

        Each argument is ``(type, process, micro_ops)`` where ``type`` is
        ``"ok"``, ``"fail"`` or ``"info"``.  Transactions execute one after
        another in argument order, so the real-time order equals the given
        order.  Use :class:`HistoryBuilder` for concurrent structures.
        """
        ops: List[Op] = []
        index = 0
        for type_, process, mops in txns:
            completion = _coerce_type(type_)
            if completion not in COMPLETION_TYPES:
                raise HistoryError(
                    f"compact transactions need a completion type, got {type_!r}"
                )
            mops = tuple(mops)
            ops.append(Op(index, OpType.INVOKE, process, mops))
            ops.append(Op(index + 1, completion, process, mops))
            index += 2
        return cls(ops)

    @classmethod
    def interleaved(cls, *txns: CompactTxn) -> "History":
        """Build a history where *all* transactions are mutually concurrent.

        Every transaction is invoked before any completes, so real-time
        inference yields no edges between them.  Processes must be distinct.
        """
        invokes: List[Op] = []
        completes: List[Op] = []
        seen = set()
        for i, (type_, process, mops) in enumerate(txns):
            if process in seen:
                raise HistoryError(
                    f"process {process} appears twice; concurrent transactions "
                    "need distinct processes"
                )
            seen.add(process)
            completion = _coerce_type(type_)
            mops = tuple(mops)
            invokes.append(Op(i, OpType.INVOKE, process, mops))
            completes.append(Op(len(txns) + i, completion, process, mops))
        return cls(invokes + completes)

    # ------------------------------------------------------------------
    # Pairing (incremental: __init__ and extend share one code path)

    def _apply(self, new_ops: Sequence[Op]) -> tuple:
        """Fold further operations into the pairing state.

        Each invocation reserves its slot at the end of the
        (invocation-ordered) transaction list and in ``_pos_by_id``; each
        transaction is built once, in its final form for this batch.  An
        invocation completed within the batch fills its slot directly; a
        completion for an invocation from an *earlier* batch replaces that
        batch's provisional indeterminate transaction (an upgrade); and
        invocations still pending when the batch ends — or when a malformed
        operation aborts it — get their provisional indeterminate
        transaction then.  Not atomic on error: a malformed operation
        raises mid-way and leaves the history partially extended, so
        callers that survive errors must treat the history as poisoned.
        Returns the batch's invocations (ids in invocation order) and its
        upgrades, from which :meth:`extend` builds its delta.
        """
        new_ops = tuple(new_ops)
        transactions = self.transactions
        pending = self._pending
        pos_by_id = self._pos_by_id
        invoke_type = OpType.INVOKE
        ok_type = OpType.OK
        last = self._max_index if self._max_index >= 0 else None
        #: Invocations of this batch in invocation order: id -> the invoke
        #: op while it is pending, ``None`` once completed.
        fresh: Dict[int, Op] = {}
        upgraded: List[Tuple[Transaction, Transaction]] = []
        try:
            for op in new_ops:
                index = op.index
                if last is not None and index <= last:
                    raise HistoryError(
                        "op indices must be strictly increasing; "
                        f"{index} after {last}"
                    )
                last = index
                process = op.process
                if op.type is invoke_type:
                    if process in pending:
                        raise HistoryError(
                            f"process {process} invoked at index {index} "
                            f"while index {pending[process].index} is still "
                            "pending"
                        )
                    pending[process] = op
                    fresh[index] = op
                    pos_by_id[index] = len(transactions)
                    transactions.append(None)
                    continue
                invoke = pending.pop(process, None)
                if invoke is None:
                    raise HistoryError(
                        f"completion at index {index} on process {process} "
                        "has no pending invocation"
                    )
                mops = op.value if op.value is not None else invoke.value
                txn_id = invoke.index
                txn = Transaction(
                    txn_id,
                    process,
                    op.type,
                    tuple(mops or ()),
                    txn_id,
                    index,
                    invoke.ts,
                    op.ts if op.type is ok_type else None,
                )
                position = pos_by_id[txn_id]
                if txn_id in fresh:
                    fresh[txn_id] = None  # completed in this batch
                else:
                    upgraded.append((transactions[position], txn))
                transactions[position] = txn
        finally:
            for invoke in fresh.values():
                if invoke is not None:
                    txn = _provisional(invoke)
                    transactions[pos_by_id[txn.id]] = txn
        self.ops += new_ops
        if last is not None:
            self._max_index = last
        return fresh, upgraded

    def extend(self, new_ops: Sequence[Op]) -> HistoryDelta:
        """Append further operations in place; the streaming ingest path.

        Equivalent to having constructed the history from all operations at
        once: new invocations become provisional indeterminate transactions,
        and a completion for a previously pending invocation *upgrades* the
        provisional transaction to its final form.  The cached
        :meth:`index`, if built, is extended in place rather than rebuilt.
        Returns the :class:`HistoryDelta` describing what changed.
        """
        fresh, upgraded = self._apply(new_ops)
        transactions = self.transactions
        pos_by_id = self._pos_by_id
        delta = HistoryDelta(
            new=tuple(transactions[pos_by_id[i]] for i in fresh),
            upgraded=tuple(upgraded),
        )
        if self._index is not None and (delta.new or delta.upgraded):
            dirty = self._index.extend(delta.new, delta.upgraded)
            delta = delta._replace(dirty_keys=frozenset(dirty))
        return delta

    # ------------------------------------------------------------------
    # Access

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        # Retired positions hold ``None`` placeholders (positions must stay
        # stable for the index columns); iteration yields live views only.
        return (t for t in self.transactions if t is not None)

    def __getitem__(self, txn_id: int) -> Transaction:
        try:
            return self.transactions[self._pos_by_id[txn_id]]
        except KeyError:
            raise HistoryError(f"no transaction with id {txn_id}") from None

    @property
    def op_count(self) -> int:
        return len(self.ops) + self._retired_ops

    @property
    def resident_ops(self) -> int:
        """Ops still held in memory (total minus retired)."""
        return len(self.ops)

    @property
    def retired_ops(self) -> int:
        return self._retired_ops

    def oks(self) -> List[Transaction]:
        """Definitely-committed transactions."""
        return [t for t in self.transactions if t is not None and t.committed]

    def fails(self) -> List[Transaction]:
        """Definitely-aborted transactions."""
        return [t for t in self.transactions if t is not None and t.aborted]

    def infos(self) -> List[Transaction]:
        """Indeterminate transactions."""
        return [
            t for t in self.transactions if t is not None and t.indeterminate
        ]

    def possibly_committed(self) -> List[Transaction]:
        """Transactions that committed in at least one interpretation (ok | info)."""
        return [
            t for t in self.transactions if t is not None and not t.aborted
        ]

    def processes(self) -> List[int]:
        """Distinct processes, in first-appearance order."""
        seen: Dict[int, None] = {}
        for t in self.transactions:
            if t is not None:
                seen.setdefault(t.process, None)
        return list(seen)

    @property
    def max_index(self) -> int:
        return self._max_index

    def retire_transactions(self, positions: Sequence[int]) -> int:
        """Drop the per-op storage of settled transactions, in place.

        Each position's :class:`~repro.history.ops.Transaction` view and
        its invoke/completion :class:`~repro.history.ops.Op` records are
        released and its id leaves ``_pos_by_id``; the position itself
        keeps a ``None`` placeholder so that every index column, process
        chain, and live ``_pos_by_id`` entry stays valid.  The cached index
        shares both, so it sees the retirement without being told.
        Callers (the streaming checker) are responsible for having frozen
        whatever analysis output those transactions contributed — the
        history alone cannot re-derive it afterwards.  Returns the number
        of ops dropped.
        """
        transactions = self.transactions
        drop: set = set()
        for pos in positions:
            txn = transactions[pos]
            if txn is None:
                continue
            drop.add(txn.invoke_index)
            if txn.complete_index is not None:
                drop.add(txn.complete_index)
            transactions[pos] = None
            self._pos_by_id.pop(txn.id, None)
        if not drop:
            return 0
        kept = tuple(op for op in self.ops if op.index not in drop)
        dropped = len(self.ops) - len(kept)
        self.ops = kept
        self._retired_ops += dropped
        return dropped

    def index(self, profile=None):
        """The cached single-pass :class:`~repro.history.index.HistoryIndex`.

        Built lazily on first use and shared by every analyzer, so the
        per-key regrouping of the observation happens exactly once per
        history.
        ``profile``, when given, records the build's stages and interning
        counters — a no-op when the index is already cached.
        """
        if self._index is None:
            from .index import HistoryIndex

            self._index = HistoryIndex(
                self.transactions, self._pos_by_id, profile=profile
            )
        return self._index

    def __repr__(self) -> str:
        return f"History({len(self.transactions)} txns, {len(self.ops)} ops)"


class HistoryBuilder:
    """Incrementally record invocations and completions with auto indices.

    The generator's client runner and tests use this to express arbitrary
    concurrency structures::

        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.invoke(1, [r("x")])
        b.ok(0, [append("x", 1)])
        b.ok(1, [r("x", [1])])
        history = b.build()
    """

    __slots__ = ("_ops", "_pending")

    def __init__(self) -> None:
        self._ops: List[Op] = []
        self._pending: Dict[int, int] = {}

    @property
    def next_index(self) -> int:
        return len(self._ops)

    def invoke(
        self,
        process: int,
        mops: Sequence[MicroOp],
        ts: Optional[int] = None,
    ) -> int:
        """Record an invocation; returns its index (the transaction id).

        ``ts`` is the database-exposed snapshot timestamp, if any (§5.1).
        """
        if process in self._pending:
            raise HistoryError(
                f"process {process} already has a pending invocation"
            )
        index = len(self._ops)
        self._ops.append(Op(index, OpType.INVOKE, process, tuple(mops), ts))
        self._pending[process] = index
        return index

    def _complete(
        self,
        process: int,
        type_: OpType,
        mops: Optional[Sequence[MicroOp]],
        ts: Optional[int] = None,
    ) -> int:
        if process not in self._pending:
            raise HistoryError(f"process {process} has no pending invocation")
        del self._pending[process]
        index = len(self._ops)
        value = tuple(mops) if mops is not None else None
        self._ops.append(Op(index, type_, process, value, ts))
        return index

    def ok(
        self,
        process: int,
        mops: Sequence[MicroOp],
        ts: Optional[int] = None,
    ) -> int:
        """Record a committed completion with its observed read values.

        ``ts`` is the database-exposed commit timestamp, if any (§5.1).
        """
        return self._complete(process, OpType.OK, mops, ts)

    def fail(self, process: int, mops: Optional[Sequence[MicroOp]] = None) -> int:
        """Record a definite abort."""
        return self._complete(process, OpType.FAIL, mops)

    def info(self, process: int, mops: Optional[Sequence[MicroOp]] = None) -> int:
        """Record an indeterminate completion (timeout, crash)."""
        return self._complete(process, OpType.INFO, mops)

    def build(self) -> History:
        """Finish and produce the History (pending invocations become info)."""
        return History(self._ops)
