"""Grow-set and counter analyzers: weaker datatypes, weaker inference (§3).

**Grow-sets** sit between registers and lists: unique adds give
recoverability, and the subset relation gives a partial version order, but
sets are order-free, so write-write dependencies between adds stay
ambiguous.  What survives:

* ``wr`` — an observed element orders its adder before the reader.
* ``rw`` — a read *missing* an element anti-depends on its adder: every
  version after the add contains the element (sets only grow), so the read
  version precedes the add in every interpretation where the add committed.
* G1a / garbage detection via recoverability, plus internal consistency.

This is exactly the §3 worked example: from ``T0: read(x, {0})`` and
``T3: read(x, {0,1,2})`` Elle infers ``T1 <wr T3``, ``T2 <wr T3``,
``T0 <rw T1``, ``T0 <rw T2`` — but no ww edge between T1 and T2.

**Counters** are nearly opaque: increments are unrecoverable (two ``+1``
writes are indistinguishable), so no value edge can name a specific writer.
The counter analyzer checks internal consistency and *plausibility* — a
committed read must be expressible as a sum of concurrently-possible
increments; it relies on process/real-time edges for cycles.

Both run as keyspace-partitioned plans (:mod:`repro.core.keyspace`) over
the history's single-pass index, so they shard like the stronger analyzers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..history import History
from ..history.index import check_unique_writes
from .analysis import Evidence
from .anomalies import G1A, GARBAGE_READ, Anomaly
from .deps import RW, WR
from .keyspace import (
    Batch,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
)


# ---------------------------------------------------------------------------
# Anomaly phrasing (the shared checks in keyspace drive the logic)

def _garbage(reader, key, element, _elements):
    return Anomaly(
        name=GARBAGE_READ,
        txns=(reader.id,),
        message=(
            f"T{reader.id} read element {element!r} of key "
            f"{key!r}, which no observed transaction "
            "added"
        ),
        data={"key": key, "element": element},
    )


def _g1a(reader, key, element, adder):
    return Anomaly(
        name=G1A,
        txns=(reader.id, adder.id),
        message=(
            f"T{reader.id} read element {element!r} of key "
            f"{key!r}, added by aborted transaction "
            f"T{adder.id}"
        ),
        data={"key": key, "element": element},
    )


@register_plan
class GrowSetPlan(KeyspacePlan):
    """Per-key grow-set analysis: wr/rw edges from element visibility."""

    workload = "grow-set"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        check_unique_writes(self.index, "grow-set")
        self._keys = self.index.read_key_order
        self._style = ReadCheckStyle(garbage=_garbage, g1a=_g1a)

    def analyze_key(self, key: Any) -> Batch:
        index = self.index
        slice_ = index.slices[key]
        transactions = index.transactions
        txn_ids = index.txn_ids
        first_writer = slice_.first_writer
        fw_get = first_writer.get
        obj_write_map = index.write_map(slice_)
        anomalies: List[Anomaly] = []
        # One fragment per key: the first read (in observation order) that
        # justifies an edge bit supplies its evidence.
        fragment: Dict[Tuple[int, int, int], Evidence] = {}
        r_txn = slice_.r_txn
        r_val = slice_.r_val
        for i in range(len(r_val)):
            value = r_val[i]
            if value is None:
                continue
            pos = r_txn[i]
            reader_id = txn_ids[pos]
            observed = frozenset(value)
            ordered = tuple(sorted(observed, key=repr))
            anomalies.extend(
                check_recoverable_read(
                    transactions[pos], key, ordered, obj_write_map, self._style
                )
            )
            for element in ordered:
                adder = fw_get(element)
                if adder is None or txn_ids[adder] == reader_id:
                    continue
                fragment.setdefault(
                    (txn_ids[adder], reader_id, WR),
                    Evidence(kind=WR, key=key, value=element),
                )
            # Anti-dependencies: elements this read did not see.
            for element, adder in first_writer.items():
                if element not in observed and txn_ids[adder] != reader_id:
                    fragment.setdefault(
                        (reader_id, txn_ids[adder], RW),
                        Evidence(kind=RW, key=key, value=element),
                    )
        return anomalies, fragment


@register_plan
class CounterPlan(KeyspacePlan):
    """Per-key counter plausibility: reads within the feasible sum range.

    A committed read of key ``k`` returning ``v`` must satisfy
    ``lo <= v <= hi`` where ``lo`` sums definitely-committed negative
    increments plus nothing else, and ``hi`` sums every possibly-committed
    positive increment (ok + indeterminate).  Violations are reported as
    ``garbage-read`` — the counter held a value no interpretation produces.
    """

    workload = "counter"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        self._keys = self.index.read_key_order

    def analyze_key(self, key: Any) -> Batch:
        index = self.index
        slice_ = index.slices[key]
        txn_ids = index.txn_ids
        txn_committed = index.txn_committed
        txn_aborted = index.txn_aborted
        lo = 0  # definitely-committed negative increments
        hi = 0  # every possibly-committed positive increment
        w_txn = slice_.w_txn
        w_val = slice_.w_val
        for i in range(len(w_txn)):
            delta = w_val[i]
            if delta >= 0:
                if not txn_aborted[w_txn[i]]:
                    hi += delta
            elif txn_committed[w_txn[i]]:
                lo += delta
        lo = min(lo, 0)
        hi = max(hi, 0)

        anomalies: List[Anomaly] = []
        r_txn = slice_.r_txn
        r_val = slice_.r_val
        for i in range(len(r_val)):
            value = r_val[i]
            if value is None:
                continue
            if not (lo <= value <= hi):
                reader_id = txn_ids[r_txn[i]]
                anomalies.append(
                    Anomaly(
                        name=GARBAGE_READ,
                        txns=(reader_id,),
                        message=(
                            f"T{reader_id} read counter {key!r} = "
                            f"{value!r}, outside the feasible range "
                            f"[{lo}, {hi}] of observed increments"
                        ),
                        data={"key": key, "value": value, "lo": lo, "hi": hi},
                    )
                )
        return anomalies, {}
