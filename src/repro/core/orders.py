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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph import interval_precedence_pairs
from ..graph.intervals import precedence_windows
from ..history.index import take
from .analysis import Analysis
from .deps import PROCESS, REALTIME, TIMESTAMP


def add_orders(
    analysis: Analysis,
    process: bool,
    realtime: bool,
    timestamp: bool,
    targets: Optional[Sequence[int]] = None,
) -> None:
    """Add the enabled order-edge families to ``analysis``.

    The single order-edge step of both the batch checker and the
    streaming checker.  ``targets`` (transaction positions; ``None`` =
    all) selects whose *in-edges* to add: a transaction's
    process and real-time in-edges are fixed once it is invoked, so the
    streaming checker asks for its live window only.  Timestamp edges
    ignore it (a stream with them never retires, so its window is
    everything).  Order edges carry no stored evidence:
    :meth:`~repro.core.analysis.Analysis.edge_evidence` synthesizes it
    from the graph bit and the history.
    """
    if process:
        add_process_edges(analysis, targets)
    if realtime:
        add_realtime_edges(analysis, targets)
    if timestamp:
        add_timestamp_edges(analysis)


def _targets(index, targets: Optional[Sequence[int]]) -> np.ndarray:
    """The non-aborted positions among ``targets`` (all when ``None``)."""
    aborted = np.frombuffer(index.txn_aborted, dtype=np.uint8)
    if targets is None:
        return np.flatnonzero(aborted == 0)
    positions = np.asarray(targets, dtype=np.int64)
    return positions[aborted[positions] == 0]


def add_process_edges(
    analysis: Analysis, targets: Optional[Sequence[int]] = None
) -> None:
    """Chain each process's transactions in session (program) order.

    Only *committed* transactions emit edges: after a timeout the client
    moves on while the indeterminate commit races its successors, so an
    ``info`` transaction is concurrent with everything that follows it —
    even on its own process — and may only receive edges.  Each
    non-aborted transaction is therefore ordered after the nearest
    preceding committed transaction of its process, which the index
    records per position (``txn_prev``) when the transaction is invoked.
    """
    index = analysis.history.index()
    positions = _targets(index, targets)
    prev = take(index.txn_prev, positions)
    emit = prev >= 0
    analysis.graph.add_edge_arrays(
        take(index.txn_ids, prev[emit]),
        take(index.txn_ids, positions[emit]),
        PROCESS,
    )


def add_realtime_edges(
    analysis: Analysis, targets: Optional[Sequence[int]] = None
) -> None:
    """Add transitive-reduction edges of the real-time precedence order.

    Only *committed* transactions emit edges.  An indeterminate
    transaction's completion event (a timeout, say) bounds when the client
    gave up, not when the commit took effect — the effect may land
    arbitrarily later, so treating that index as a completion fabricates
    real-time edges (and, from them, false G-*-realtime cycles on
    perfectly serializable runs).  Its interval therefore extends past
    every observed event: it may receive edges, never emit them.

    The emitters are the index's completion log, already in completion
    order, so each non-aborted target's in-edges come from its window of
    the log (:func:`~repro.graph.intervals.precedence_windows`) — the
    same pairs :func:`~repro.graph.interval_precedence_pairs` yields over
    the whole history.
    """
    index = analysis.history.index()
    if not index.rt_complete:
        return
    positions = _targets(index, targets)
    sources, owners = precedence_windows(
        np.frombuffer(index.rt_complete, dtype=np.int64),
        np.frombuffer(index.rt_reach, dtype=np.int64),
        take(index.txn_invoke, positions),
    )
    analysis.graph.add_edge_arrays(
        np.frombuffer(index.rt_ids, dtype=np.int64)[sources],
        take(index.txn_ids, positions[owners]),
        REALTIME,
    )


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
