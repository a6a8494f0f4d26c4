"""The generated-initializer forms of ``MicroOp``, ``Op`` and ``Transaction``.

``repro.history.ops`` builds these classes with hand-written ``__init__``
methods that store each field through its slot descriptor.  The classes
below are the earlier forms, kept verbatim: ``@dataclass(frozen=True,
slots=True)`` with the generated ``__init__`` and a ``__post_init__``
check.  ``tests/history/test_ops_constructors.py`` holds the current
classes to them (equality, hashing, repr, pickling, ``replace`` and
errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

from repro.history.ops import (
    COMPLETION_TYPES,
    MOP_FUNCTIONS,
    READ,
    WRITE_FUNCTIONS,
    OpType,
)


@dataclass(frozen=True, slots=True)
class MicroOp:
    """One object operation inside a transaction.

    ``fn`` is the operation kind (one of :data:`MOP_FUNCTIONS`), ``key``
    identifies the object, and ``value`` is the argument (for writes) or the
    observed return value (for reads; ``None`` when unknown).
    """

    fn: str
    key: Any
    value: Any = None

    def __post_init__(self) -> None:
        if self.fn not in MOP_FUNCTIONS:
            raise ValueError(
                f"unknown micro-op function {self.fn!r}; "
                f"expected one of {sorted(MOP_FUNCTIONS)}"
            )

    @property
    def is_read(self) -> bool:
        return self.fn == READ

    @property
    def is_write(self) -> bool:
        return self.fn in WRITE_FUNCTIONS

    def __repr__(self) -> str:
        return f"[:{self.fn} {self.key!r} {self.value!r}]"

@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.value is not None and not isinstance(self.value, tuple):
            object.__setattr__(self, "value", tuple(self.value))

    @property
    def is_invoke(self) -> bool:
        return self.type is OpType.INVOKE

    @property
    def is_completion(self) -> bool:
        return self.type in COMPLETION_TYPES

    def __repr__(self) -> str:
        mops = " ".join(map(repr, self.value)) if self.value else ""
        return f"{{:index {self.index} {self.type!r} :process {self.process} [{mops}]}}"


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.type is OpType.INVOKE:
            raise ValueError("a transaction's type must be a completion type")

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
