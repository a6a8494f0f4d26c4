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

from typing import Hashable, Sequence, Tuple

import numpy as np


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

    Events are ordered by time, invocations before completions at the
    same timestamp (a completion tied with an invocation is treated as
    concurrent — no edge — because a false real-time edge could fabricate
    an anomaly), input position breaking remaining ties.

    The sweep is evaluated in closed form.  The frontier is always a
    *contiguous window* of completion order: members are appended in
    ascending completion time and evictions strip a prefix.  At the
    invocation of ``b`` the window is ``[head, tail)`` over
    completion-sorted intervals, where

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
    the sweep's emission sequence.  Integer ids come back as integer
    arrays; other ids (tuples included) as lists.
    """
    inv = np.asarray(invokes, dtype=np.int64)
    comp = np.asarray(completes, dtype=np.int64)
    bad = np.flatnonzero(inv >= comp)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"interval for {ids[i]!r} must have invoke < complete, "
            f"got [{invokes[i]}, {completes[i]}]"
        )
    corder = np.argsort(comp, kind="stable")
    iorder = np.argsort(inv, kind="stable")
    # Prefix max of invocation times in completion order gives M(b) for
    # the tail(b) completions processed before b.
    idx, owner = precedence_windows(
        comp[corder], np.maximum.accumulate(inv[corder]), inv[iorder]
    )
    if len(idx) == 0:
        return [], []
    src_pos = corder[idx]
    tgt_pos = iorder[owner]
    ids_arr = np.asarray(ids)
    if ids_arr.ndim == 1 and ids_arr.dtype.kind in "iu":
        # Integer ids stay columnar: the edge log ingests these arrays
        # with a buffer copy, no per-edge boxing.
        return ids_arr[src_pos], ids_arr[tgt_pos]
    sources = [ids[i] for i in src_pos.tolist()]
    targets = [ids[i] for i in tgt_pos.tolist()]
    return sources, targets



def precedence_windows(
    completes: np.ndarray, reach: np.ndarray, invokes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each invocation's frontier window over completion-sorted intervals.

    ``completes`` is ascending; ``reach[i]`` is the largest invocation
    time among ``completes[:i + 1]``'s intervals.  For every entry of
    ``invokes`` the window is ``[head, tail)`` as described in
    :func:`interval_precedence_pairs`.  Returns ``(source, owner)``:
    window members as indices into ``completes``, and for each the index
    into ``invokes`` it precedes, grouped by invocation in input order,
    members ascending.  A window depends only on completions before its
    invocation, so it never changes as later intervals are appended.
    """
    if len(completes) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    tail = np.searchsorted(completes, invokes, side="left")
    thresh = reach[np.maximum(tail - 1, 0)]
    head = np.where(tail > 0, np.searchsorted(completes, thresh, side="left"), 0)
    counts = tail - head
    total = int(counts.sum())
    # Concatenated window indices: one arange per invocation, offset so
    # each restarts at its own head.
    offsets = np.cumsum(counts) - counts
    source = np.arange(total, dtype=np.int64) + np.repeat(head - offsets, counts)
    owner = np.repeat(np.arange(len(invokes), dtype=np.int64), counts)
    return source, owner
