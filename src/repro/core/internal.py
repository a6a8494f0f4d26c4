"""Internal consistency: a transaction against its own reads and writes.

§6.1 of the paper: *"Internal inconsistency: a transaction reads some value
of an object which is incompatible with its own prior reads and writes."*
This caught real bugs in FaunaDB (a transaction appending 6 to key 0 and
then reading ``nil``) and Dgraph (reads failing to observe the transaction's
own prior writes).

The check replays each transaction's micro-ops against a model of what the
transaction itself knows:

* Before the first read of a key, the transaction knows only the *suffix* it
  has written itself — any snapshot could sit underneath, but its own writes
  must appear at the end, in order.
* After a read, the full value is known; subsequent reads must match the
  known value plus any interleaved own-writes exactly.

A violation rules out read-atomic and stronger models (a transaction must
see a consistent snapshot including its own effects); under read-committed
alone a mid-transaction shift of underlying state is legal, which is why
``internal`` maps to atomic-visibility models in :mod:`repro.core.consistency`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..history.ops import ADD, APPEND, INCREMENT, READ, WRITE, Transaction
from .anomalies import INTERNAL, Anomaly

# Sentinel kinds for per-key knowledge.
_KNOWN = "known"    # exact value known (after a read)
_SUFFIX = "suffix"  # only our own appended suffix known


def _internal_anomaly(
    txn: Transaction, mop_index: int, expected: Any, actual: Any
) -> Anomaly:
    mop = txn.mops[mop_index]
    return Anomaly(
        name=INTERNAL,
        txns=(txn.id,),
        message=(
            f"T{txn.id}'s read of key {mop.key!r} returned {actual!r}, "
            f"incompatible with its own prior reads and writes "
            f"(expected {expected})"
        ),
        data={
            "key": mop.key,
            "mop_index": mop_index,
            "expected": expected,
            "actual": actual,
        },
    )


def check_internal_list_append(txn: Transaction) -> List[Anomaly]:
    """Internal-consistency anomalies for one list-append transaction."""
    anomalies = []
    state: Dict[Any, Tuple[str, Tuple]] = {}
    for i, mop in enumerate(txn.mops):
        if mop.fn == APPEND:
            kind, value = state.get(mop.key, (_SUFFIX, ()))
            state[mop.key] = (kind, value + (mop.value,))
        elif mop.fn == READ and mop.value is not None:
            observed = tuple(mop.value)
            entry = state.get(mop.key)
            if entry is not None:
                kind, value = entry
                if kind == _KNOWN:
                    if observed != value:
                        anomalies.append(
                            _internal_anomaly(txn, i, list(value), list(observed))
                        )
                elif value and observed[-len(value):] != value:
                    expected = f"[... {' '.join(map(repr, value))}]"
                    anomalies.append(
                        _internal_anomaly(txn, i, expected, list(observed))
                    )
            state[mop.key] = (_KNOWN, observed)
    return anomalies


def check_internal_register(txn: Transaction) -> List[Anomaly]:
    """Internal-consistency anomalies for one read-write-register transaction."""
    anomalies = []
    known: Dict[Any, Any] = {}
    for i, mop in enumerate(txn.mops):
        if mop.fn == WRITE:
            known[mop.key] = mop.value
        elif mop.fn == READ and mop.value is not None:
            if mop.key in known and mop.value != known[mop.key]:
                anomalies.append(
                    _internal_anomaly(txn, i, known[mop.key], mop.value)
                )
            known[mop.key] = mop.value
    return anomalies


def check_internal_grow_set(txn: Transaction) -> List[Anomaly]:
    """Internal-consistency anomalies for one grow-set transaction.

    After a read, later reads must contain everything previously observed
    plus the transaction's own adds (sets only grow within one snapshot).
    """
    anomalies = []
    state: Dict[Any, Tuple[str, frozenset]] = {}
    for i, mop in enumerate(txn.mops):
        if mop.fn == ADD:
            kind, value = state.get(mop.key, (_SUFFIX, frozenset()))
            state[mop.key] = (kind, value | {mop.value})
        elif mop.fn == READ and mop.value is not None:
            observed = frozenset(mop.value)
            entry = state.get(mop.key)
            if entry is not None:
                kind, value = entry
                if not value <= observed:
                    anomalies.append(
                        _internal_anomaly(
                            txn, i, f"a superset of {set(value)}", set(observed)
                        )
                    )
            state[mop.key] = (_KNOWN, observed)
    return anomalies


def check_internal_counter(txn: Transaction) -> List[Anomaly]:
    """Internal-consistency anomalies for one counter transaction.

    Counters only support a weak check: once a value has been read, a later
    read must equal it plus the transaction's own intervening increments.
    """
    anomalies = []
    known: Dict[Any, int] = {}
    pending: Dict[Any, int] = {}
    for i, mop in enumerate(txn.mops):
        if mop.fn == INCREMENT:
            pending[mop.key] = pending.get(mop.key, 0) + mop.value
        elif mop.fn == READ and mop.value is not None:
            if mop.key in known:
                expected = known[mop.key] + pending.get(mop.key, 0)
                if mop.value != expected:
                    anomalies.append(
                        _internal_anomaly(txn, i, expected, mop.value)
                    )
            known[mop.key] = mop.value
            pending[mop.key] = 0
    return anomalies


#: Internal checkers keyed by workload name.
INTERNAL_CHECKERS = {
    "list-append": check_internal_list_append,
    "rw-register": check_internal_register,
    "grow-set": check_internal_grow_set,
    "counter": check_internal_counter,
}


def check_internal(txns, workload: str) -> List[Anomaly]:
    """Run the appropriate internal check across an iterable of transactions."""
    try:
        checker = INTERNAL_CHECKERS[workload]
    except KeyError:
        raise ValueError(f"no internal checker for workload {workload!r}") from None
    anomalies = []
    for txn in txns:
        anomalies.extend(checker(txn))
    return anomalies


def internal_candidate_positions(index, lo: int, hi: int) -> List[int]:
    """Positions in ``[lo, hi)`` that need a per-transaction internal check.

    The replay only ever fires for committed transactions whose candidate
    bit is set (a read-with-value follows an earlier micro-op on the same
    key), so the sweep is one vectorized AND over the two status columns.
    """
    committed = index.txn_committed[lo:hi]
    candidates = index.internal_candidates[lo:hi]
    mask = np.frombuffer(committed, dtype=np.uint8) & np.frombuffer(
        candidates, dtype=np.uint8
    )
    return [p + lo for p in np.flatnonzero(mask).tolist()]
