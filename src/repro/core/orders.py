"""Process (session) and real-time transaction orders (§5.1).

These edges come from the concurrency structure of the history rather than
from values:

* **Process order** — a single-threaded client executed T1 before T2, so any
  serialization honouring session guarantees must order them.  Chains link
  each process's transactions through its committed ones.
* **Real-time order** — T1 completed before T2 was invoked, so under strict
  serializability T2 must appear to take effect after T1.  Edges come from
  the O(n·p) transitive reduction in :mod:`repro.graph.intervals`.

Aborted transactions never participate (they are absent from any
serialization).  Indeterminate transactions may *receive* edges — their
invocation time is known — but never *emit* either kind of edge: a timeout
or crash response bounds when the client gave up, not when (or whether) the
commit took effect, so the pending effect races everything that follows,
even on its own process.  Cycles built through these edges are sound: an
indeterminate transaction only appears in a value cycle if some read proved
it committed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph import interval_precedence_pairs
from .analysis import Analysis
from .deps import PROCESS, REALTIME, TIMESTAMP


def add_orders(
    analysis: Analysis, process: bool, realtime: bool, timestamp: bool
) -> None:
    """Add the enabled order-edge families to ``analysis``.

    The single order-edge step of both the batch checker and the
    streaming checker.  Order edges carry no stored evidence:
    :meth:`~repro.core.analysis.Analysis.edge_evidence` synthesizes it
    from the graph bit and the history.
    """
    if process:
        add_process_edges(analysis)
    if realtime:
        add_realtime_edges(analysis)
    if timestamp:
        add_timestamp_edges(analysis)


def add_process_edges(analysis: Analysis) -> None:
    """Chain each process's transactions in session (program) order.

    Per-process orderings come from the history's single-pass index (they
    are already in invocation order there), so no re-grouping pass runs —
    the chains are walked over the index's columnar status arrays and land
    in the graph's edge log as parallel id arrays.  Only *committed*
    transactions emit edges: after a timeout the client moves on while the
    indeterminate commit races its successors, so an ``info`` transaction
    is concurrent with everything that follows it — even on its own
    process — and may only receive edges.  Each non-aborted transaction is
    therefore ordered after the nearest preceding committed transaction of
    its process.
    """
    index = analysis.history.index()
    committed = index.txn_committed
    aborted = index.txn_aborted
    ids = index.txn_ids
    total = len(ids)
    chains = [p for p in index.proc_positions.values() if p]
    if not chains:
        return
    flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in chains])
    lengths = np.asarray([len(p) for p in chains], dtype=np.int64)
    seg = np.repeat(np.arange(len(chains), dtype=np.int64), lengths)
    committed_np = np.frombuffer(committed, dtype=np.uint8)
    aborted_np = np.frombuffer(aborted, dtype=np.uint8)
    # Running "last committed position" per chain: a segment-reset
    # prefix max.  Offsetting each segment by a stride larger than any
    # position makes later segments dominate earlier ones, so one
    # global accumulate never leaks a maximum across a chain boundary.
    stride = total + 2
    x = np.where(committed_np[flat] != 0, flat, -1)
    acc = np.maximum.accumulate(x + seg * stride) - seg * stride
    prev = np.empty_like(acc)
    prev[0] = -1
    prev[1:] = acc[:-1]
    starts = np.zeros(len(flat), dtype=bool)
    starts[np.cumsum(lengths[:-1])] = True
    prev[starts] = -1
    emit = (aborted_np[flat] == 0) & (prev >= 0)
    ids_np = np.asarray(ids, dtype=np.int64)
    analysis.graph.add_edge_arrays(ids_np[prev[emit]], ids_np[flat[emit]], PROCESS)


def add_realtime_edges(analysis: Analysis) -> None:
    """Add transitive-reduction edges of the real-time precedence order.

    Only *committed* transactions emit edges.  An indeterminate
    transaction's completion event (a timeout, say) bounds when the client
    gave up, not when the commit took effect — the effect may land
    arbitrarily later, so treating that index as a completion fabricates
    real-time edges (and, from them, false G-*-realtime cycles on
    perfectly serializable runs).  Its interval therefore extends past
    every observed event: it may receive edges, never emit them.
    """
    history = analysis.history
    index = history.index()
    committed = index.txn_committed
    aborted = index.txn_aborted
    ids = index.txn_ids
    invoke = index.txn_invoke
    complete = index.txn_complete
    sentinel = history.max_index + 1
    aborted_np = np.frombuffer(aborted, dtype=np.uint8)
    committed_np = np.frombuffer(committed, dtype=np.uint8)
    complete_np = np.asarray(complete, dtype=np.int64)
    keep = aborted_np == 0
    observed = (committed_np != 0) & (complete_np >= 0) & keep
    # Indeterminate completions are unobserved: each gets the next
    # sentinel tick past every observed event, in position order.
    pending = keep & ~observed
    ticks = np.cumsum(pending) + sentinel
    # Stay columnar: the reduction and the edge-log ingest both take
    # numpy arrays directly, no per-element boxing round-trip.
    sources, targets = interval_precedence_pairs(
        np.asarray(ids, dtype=np.int64)[keep],
        np.asarray(invoke, dtype=np.int64)[keep],
        np.where(observed, complete_np, ticks)[keep],
    )
    analysis.graph.add_edge_arrays(sources, targets, REALTIME)


def add_timestamp_edges(analysis: Analysis) -> None:
    """Add Adya *time-precedes* edges from database-exposed timestamps.

    T1 precedes T2 when ``commit_ts(T1) <= start_ts(T2)`` — T2's snapshot
    already contains T1's commit, so under snapshot isolation T2 must
    observe T1.  Only committed transactions with both timestamps emit
    edges; any transaction with a start timestamp may receive them.

    Timestamps are doubled to map the inclusive comparison onto the strict
    interval machinery: ``commit -> 2c``, ``start -> 2s + 1`` gives
    ``2c < 2s + 1  iff  c <= s``.  Transactions whose commit equals their
    start (read-only) get a one-tick-wide interval, dropping only the
    equal-timestamp successor case — conservative, hence sound.
    """
    intervals: List[Tuple[int, int, int]] = []
    for txn in analysis.history.transactions:
        if txn.aborted or txn.start_ts is None:
            continue
        invoke = 2 * txn.start_ts + 1
        if txn.committed and txn.commit_ts is not None:
            complete = max(2 * txn.commit_ts, invoke + 1)
        else:
            # No commit timestamp observed: may receive edges, never emit.
            complete = None
        intervals.append((txn.id, invoke, complete))
    if not intervals:
        return
    sentinel = max(i for _t, i, _c in intervals) + 1
    iv_ids: List[int] = []
    iv_invoke: List[int] = []
    iv_complete: List[int] = []
    for txn_id, invoke, complete in intervals:
        if complete is None:
            sentinel += 2
            complete = max(sentinel, invoke + 1)
        iv_ids.append(txn_id)
        iv_invoke.append(invoke)
        iv_complete.append(complete)
    sources, targets = interval_precedence_pairs(iv_ids, iv_invoke, iv_complete)
    analysis.graph.add_edge_arrays(sources, targets, TIMESTAMP)
