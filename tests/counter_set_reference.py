"""The per-key grow-set and counter analyzers: the passes' reference.

``src/`` runs one analyzer per workload, the columnar passes of
:class:`~repro.core.counter_set.GrowSetPlan` and
:class:`~repro.core.counter_set.CounterPlan`, for batch checks and
streams alike.  This module keeps the per-key loops they replaced, each
derived from one key's :class:`~repro.history.index.KeySlice` and the
index's transaction columns.  It is an oracle only; nothing in ``src/``
imports it.

:func:`use_reference` makes both plans run their loop for every key,
batch and stream alike (the reference oracles, ``per_key_only``);
:func:`grow_set_key` and :func:`counter_key` run it for one key of a
plan.
"""

from typing import Any, Dict, List, Tuple

from repro.core.analysis import Evidence
from repro.core.anomalies import GARBAGE_READ, Anomaly
from repro.core.counter_set import CounterPlan, GrowSetPlan
from repro.core.deps import RW, WR
from repro.core.keyspace import Batch, check_recoverable_read
from tests.keyspace_reference import use_walk


def grow_set_key(plan: GrowSetPlan, key: Any) -> Batch:
    index = plan.index
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
                transactions[pos], key, ordered, obj_write_map, plan._style
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


def counter_key(plan: CounterPlan, key: Any) -> Batch:
    index = plan.index
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


def use_reference(patch) -> None:
    """Make grow-set and counter plans run their per-key loop on every
    key, in batch checks and streams alike."""
    use_walk(patch, GrowSetPlan, grow_set_key)
    use_walk(patch, CounterPlan, counter_key)
