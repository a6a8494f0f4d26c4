"""Transitive reduction of real-time (interval) precedence orders.

A transaction occupies the interval from its invocation to its completion.
Transaction ``a`` real-time-precedes ``b`` when ``a`` completes before ``b``
is invoked.  The full precedence relation is quadratic; §5.1 of the paper
notes that its transitive reduction can be computed in O(n · p) time for
``n`` operations and ``p`` concurrent processes, because each process has at
most one outstanding transaction.

Algorithm: sweep events in time order, maintaining a *frontier* — the
antichain of maximal completed transactions.  When a transaction completes,
it evicts every frontier member that completed before this transaction was
invoked (those are now transitively implied).  When a transaction is
invoked, it gains an edge from every frontier member.  The frontier never
exceeds ``p`` entries, giving the O(n · p) bound.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

try:  # Optional: closed-form vectorized reduction for large interval sets.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback branch
    _np = None

#: Below this interval count the Python sweep beats the numpy round-trip.
_NP_SORT_MIN = 48


def interval_precedence_pairs(
    ids: Sequence[Hashable],
    invokes: Sequence[int],
    completes: Sequence[int],
) -> Tuple[Sequence[Hashable], Sequence[Hashable]]:
    """Transitive-reduction edges over parallel interval arrays.

    Takes ``ids[i]`` occupying
    ``[invokes[i], completes[i])`` and returns the precedence edges as two
    parallel endpoint arrays ``(sources, targets)`` — the shape the graph
    edge log ingests without building a tuple per edge.  An edge ``(a, b)``
    means ``a`` completed before ``b`` invoked, with no third transaction
    fully between them; times need only be comparable integers (history
    indices work).
    """
    m = len(ids)
    if _np is not None and m >= _NP_SORT_MIN:
        return _precedence_pairs_np(ids, invokes, completes)
    # Event order: by time, invocations before completions at the same
    # timestamp (a completion tied with an invocation is treated as
    # concurrent — no edge — because a false real-time edge could
    # fabricate an anomaly), input position breaking remaining ties.
    # Encoded events are ``j < m`` for invocation of interval ``j`` and
    # ``j - m`` for its completion.
    for i in range(m):
        if invokes[i] >= completes[i]:
            raise ValueError(
                f"interval for {ids[i]!r} must have invoke < complete, "
                f"got [{invokes[i]}, {completes[i]}]"
            )
    events: List[Tuple[int, int, int]] = []
    append_event = events.append
    for i in range(m):
        append_event((invokes[i], 0, i))
        append_event((completes[i], 1, m + i))
    events.sort()
    order = [j for _time, _kind, j in events]

    sources: List[Hashable] = []
    targets: List[Hashable] = []
    extend_sources = sources.extend
    extend_targets = targets.extend
    # The frontier is the antichain of maximal completed transactions.
    # Completions are processed in ascending time order, so insertion
    # order is ascending completion time and evictions (members completed
    # before the incoming transaction's invocation) always strip a prefix
    # — a flat list with a head cursor beats a dict's delete/insert churn.
    fr_ids: List[Hashable] = []
    fr_completes: List[int] = []
    head = 0
    fr_append = fr_ids.append
    comp_append = fr_completes.append
    for j in order:
        if j < m:
            # Invocation: an edge from every live frontier member, in
            # insertion order — batched as one extend per event.
            count = len(fr_ids) - head
            if count:
                extend_sources(fr_ids[head:])
                extend_targets([ids[j]] * count)
        else:
            i = j - m
            invoke = invokes[i]
            while head < len(fr_ids) and fr_completes[head] < invoke:
                head += 1
            fr_append(ids[i])
            comp_append(completes[i])
    return sources, targets


def _precedence_pairs_np(
    ids: Sequence[Hashable],
    invokes: Sequence[int],
    completes: Sequence[int],
) -> Tuple[Sequence[Hashable], Sequence[Hashable]]:
    """Closed-form vectorization of the frontier sweep.

    The frontier is always a *contiguous window* of completion order:
    members are appended in ascending completion time and evictions strip
    a prefix.  At the invocation of ``b`` the window is ``[head, tail)``
    over completion-sorted intervals, where

    * ``tail(b)`` counts completions strictly before ``invoke(b)``
      (a completion tied with an invocation is processed after it), and
    * ``head(b)`` counts completions strictly before ``M(b)``, the largest
      ``invoke(c)`` over completions ``c`` processed before ``b`` — each
      such completion evicted every member completing before its own
      invocation, and eviction counts are monotone in the threshold, so
      only the maximum matters.  ``M(b) = invoke(c) < complete(c) <
      invoke(b)`` guarantees ``head <= tail``.

    Edges are gathered per invocation in event order (time, then input
    position) with frontier members in insertion (completion) order —
    byte-identical to the sweep's emission sequence.
    """
    m = len(ids)
    inv = _np.asarray(invokes, dtype=_np.int64)
    comp = _np.asarray(completes, dtype=_np.int64)
    bad = _np.flatnonzero(inv >= comp)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"interval for {ids[i]!r} must have invoke < complete, "
            f"got [{invokes[i]}, {completes[i]}]"
        )
    corder = _np.argsort(comp, kind="stable")
    iorder = _np.argsort(inv, kind="stable")
    comp_sorted = comp[corder]
    inv_sorted = inv[iorder]
    tail = _np.searchsorted(comp_sorted, inv_sorted, side="left")
    # Prefix max of invocation times in completion order gives M(b) for
    # the tail(b) completions processed before b.
    prefmax = _np.maximum.accumulate(inv[corder])
    thresh = prefmax[_np.maximum(tail - 1, 0)]
    head = _np.where(
        tail > 0, _np.searchsorted(comp_sorted, thresh, side="left"), 0
    )
    counts = tail - head
    total = int(counts.sum())
    if total == 0:
        return [], []
    # Concatenated window indices: one arange per invocation, offset so
    # each restarts at its own head.
    offsets = _np.cumsum(counts) - counts
    idx = _np.arange(total, dtype=_np.int64) + _np.repeat(
        head - offsets, counts
    )
    src_pos = corder[idx]
    tgt_pos = _np.repeat(iorder, counts)
    ids_arr = _np.asarray(ids)
    if ids_arr.dtype.kind in "iu":
        # Integer ids stay columnar: the edge log ingests these arrays
        # with a buffer copy, no per-edge boxing.
        return ids_arr[src_pos], ids_arr[tgt_pos]
    sources = [ids[i] for i in src_pos.tolist()]
    targets = [ids[i] for i in tgt_pos.tolist()]
    return sources, targets

