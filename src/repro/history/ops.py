"""Observed operations: micro-operations, operations, and transactions.

Terminology follows the paper (§4.2.1) and Jepsen's conventions:

* A **micro-op** is a single object operation inside a transaction — a read,
  an append, a register write, a set-add, or a counter increment.  Observed
  micro-ops may have *unknown* components: a read in an invocation does not
  yet know its return value (``value is None``).
* An **operation** (:class:`Op`) is one client-visible event: the invocation
  or the completion of a transaction, tagged with a logical process and a
  history index.  Completion types are ``ok`` (definitely committed),
  ``fail`` (definitely aborted), and ``info`` (indeterminate — e.g. a commit
  request that timed out).
* A **transaction** (:class:`Transaction`) pairs an invocation with its
  completion and is the unit the checker reasons about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple


class OpType(enum.Enum):
    """Lifecycle event types for operations."""

    INVOKE = "invoke"
    OK = "ok"
    FAIL = "fail"
    INFO = "info"

    def __repr__(self) -> str:
        return f":{self.value}"


#: Completion types, i.e. everything except INVOKE.
COMPLETION_TYPES = frozenset({OpType.OK, OpType.FAIL, OpType.INFO})

#: Micro-op function names understood by the analyzers.
READ = "r"
APPEND = "append"
WRITE = "w"
ADD = "add"
INCREMENT = "inc"

MOP_FUNCTIONS = frozenset({READ, APPEND, WRITE, ADD, INCREMENT})

#: Functions that mutate an object (everything but a read).
WRITE_FUNCTIONS = frozenset({APPEND, WRITE, ADD, INCREMENT})

#: Each function name mapped to itself: one lookup both validates a
#: micro-op's ``fn`` and interns it, so the thousands of ``"append"``
#: strings a decoded file yields collapse into one object.
_FUNCTIONS = {fn: fn for fn in MOP_FUNCTIONS}

# The three classes below are frozen, slotted dataclasses with hand-written
# ``__init__``s: each field is stored through its slot descriptor (bound
# after the class is built), which skips the generated initializer's
# ``object.__setattr__`` calls and the ``__post_init__`` hop while keeping
# the field names, defaults, equality, hashing, pickling and
# ``dataclasses.replace`` of the generated form.


@dataclass(frozen=True, slots=True, init=False)
class MicroOp:
    """One object operation inside a transaction.

    ``fn`` is the operation kind (one of :data:`MOP_FUNCTIONS`), ``key``
    identifies the object, and ``value`` is the argument (for writes) or the
    observed return value (for reads; ``None`` when unknown).
    """

    fn: str
    key: Any
    value: Any = None

    def __init__(self, fn: str, key: Any, value: Any = None) -> None:
        interned = _FUNCTIONS.get(fn)
        if interned is None:
            raise ValueError(
                f"unknown micro-op function {fn!r}; "
                f"expected one of {sorted(MOP_FUNCTIONS)}"
            )
        _set_mop_fn(self, interned)
        _set_mop_key(self, key)
        _set_mop_value(self, value)

    @property
    def is_read(self) -> bool:
        return self.fn == READ

    @property
    def is_write(self) -> bool:
        return self.fn in WRITE_FUNCTIONS

    def __repr__(self) -> str:
        return f"[:{self.fn} {self.key!r} {self.value!r}]"


_set_mop_fn = MicroOp.fn.__set__
_set_mop_key = MicroOp.key.__set__
_set_mop_value = MicroOp.value.__set__


def r(key: Any, value: Any = None) -> MicroOp:
    """An observed read of ``key`` returning ``value`` (None = unknown)."""
    return MicroOp(READ, key, value)


def append(key: Any, value: Any) -> MicroOp:
    """An append of the (unique) element ``value`` to the list at ``key``."""
    return MicroOp(APPEND, key, value)


def w(key: Any, value: Any) -> MicroOp:
    """A blind register write of ``value`` to ``key``."""
    return MicroOp(WRITE, key, value)


def add(key: Any, value: Any) -> MicroOp:
    """An add of the (unique) element ``value`` to the set at ``key``."""
    return MicroOp(ADD, key, value)


def inc(key: Any, value: int = 1) -> MicroOp:
    """An increment of the counter at ``key`` by ``value``."""
    return MicroOp(INCREMENT, key, value)


@dataclass(frozen=True, slots=True, init=False)
class Op:
    """A single client-visible event in a history.

    ``index`` doubles as a logical timestamp: real-time inference compares
    indices, never wall clocks.  ``value`` is the transaction's micro-op
    tuple; it may be ``None`` on an ``info`` completion whose results were
    lost entirely.

    ``ts`` is an optional *database-exposed* timestamp (§5.1): the snapshot
    timestamp on an invocation, the commit timestamp on an ``ok``.  Unlike
    ``index`` these come from the system under test and feed the
    start-ordered serialization graph.
    """

    index: int
    type: OpType
    process: int
    value: Optional[Tuple[MicroOp, ...]]
    ts: Optional[int] = None

    def __init__(
        self,
        index: int,
        type: OpType,
        process: int,
        value: Optional[Tuple[MicroOp, ...]],
        ts: Optional[int] = None,
    ) -> None:
        _set_op_index(self, index)
        _set_op_type(self, type)
        _set_op_process(self, process)
        _set_op_value(
            self,
            value if value is None or isinstance(value, tuple) else tuple(value),
        )
        _set_op_ts(self, ts)

    @property
    def is_invoke(self) -> bool:
        return self.type is OpType.INVOKE

    @property
    def is_completion(self) -> bool:
        return self.type in COMPLETION_TYPES

    def __repr__(self) -> str:
        mops = " ".join(map(repr, self.value)) if self.value else ""
        return f"{{:index {self.index} {self.type!r} :process {self.process} [{mops}]}}"


_set_op_index = Op.index.__set__
_set_op_type = Op.type.__set__
_set_op_process = Op.process.__set__
_set_op_value = Op.value.__set__
_set_op_ts = Op.ts.__set__


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """An invocation paired with its completion: the checker's unit of work.

    ``id`` is the invocation index and is unique within a history.  ``mops``
    come from the completion when one carries values (an ``ok`` op's reads
    have return values filled in) and from the invocation otherwise.

    For indeterminate transactions ``complete_index`` is ``None``: the client
    never learned the outcome, so the transaction occupies the interval from
    its invocation to the end of observation for real-time purposes.

    ``start_ts`` / ``commit_ts`` are database-exposed snapshot and commit
    timestamps (§5.1), present only when the system under test reports them.
    """

    id: int
    process: int
    type: OpType
    mops: Tuple[MicroOp, ...]
    invoke_index: int
    complete_index: Optional[int] = None
    start_ts: Optional[int] = None
    commit_ts: Optional[int] = None

    def __init__(
        self,
        id: int,
        process: int,
        type: OpType,
        mops: Tuple[MicroOp, ...],
        invoke_index: int,
        complete_index: Optional[int] = None,
        start_ts: Optional[int] = None,
        commit_ts: Optional[int] = None,
    ) -> None:
        if type is OpType.INVOKE:
            raise ValueError("a transaction's type must be a completion type")
        _set_txn_id(self, id)
        _set_txn_process(self, process)
        _set_txn_type(self, type)
        _set_txn_mops(self, mops)
        _set_txn_invoke_index(self, invoke_index)
        _set_txn_complete_index(self, complete_index)
        _set_txn_start_ts(self, start_ts)
        _set_txn_commit_ts(self, commit_ts)

    @property
    def committed(self) -> bool:
        """Definitely committed."""
        return self.type is OpType.OK

    @property
    def aborted(self) -> bool:
        """Definitely aborted."""
        return self.type is OpType.FAIL

    @property
    def indeterminate(self) -> bool:
        """Commit status unknown (e.g. commit request timed out)."""
        return self.type is OpType.INFO

    def reads(self) -> Iterator[MicroOp]:
        return (m for m in self.mops if m.is_read)

    def writes(self) -> Iterator[MicroOp]:
        return (m for m in self.mops if m.is_write)

    def writes_to(self, key: Any) -> Iterator[MicroOp]:
        return (m for m in self.mops if m.is_write and m.key == key)

    def keys(self) -> set:
        return {m.key for m in self.mops}

    def __repr__(self) -> str:
        mops = " ".join(map(repr, self.mops))
        return f"T{self.id}<{self.type.value} p{self.process} [{mops}]>"


_set_txn_id = Transaction.id.__set__
_set_txn_process = Transaction.process.__set__
_set_txn_type = Transaction.type.__set__
_set_txn_mops = Transaction.mops.__set__
_set_txn_invoke_index = Transaction.invoke_index.__set__
_set_txn_complete_index = Transaction.complete_index.__set__
_set_txn_start_ts = Transaction.start_ts.__set__
_set_txn_commit_ts = Transaction.commit_ts.__set__


def final_writes(txn: Transaction) -> dict:
    """Map key -> the *final* write micro-op of ``txn`` on that key.

    A committed transaction installs only its final write per object
    (§4.1.2); earlier writes produce intermediate versions.
    """
    finals = {}
    for mop in txn.mops:
        if mop.is_write:
            finals[mop.key] = mop
    return finals


def intermediate_writes(txn: Transaction) -> Iterator[MicroOp]:
    """Write micro-ops of ``txn`` that are not its final write on their key."""
    finals = final_writes(txn)
    for mop in txn.mops:
        if mop.is_write and finals[mop.key] is not mop:
            yield mop
