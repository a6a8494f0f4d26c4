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

Both run as keyspace plans (:mod:`repro.core.keyspace`) over the
history's single-pass index: one columnar pass over a key list, merged
whole by a batch check and split by key by the streaming checker, like
the stronger analyzers.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Dict, List, Sequence

import numpy as np

from ..history import History
from ..history.index import check_unique_writes, take
from .analysis import ColumnEvidence, EdgeColumns
from .anomalies import G1A, GARBAGE_READ, Anomaly
from .deps import RW, WR
from .keyspace import (
    Findings,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
)
from .profiling import stage


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
    """Grow-set analysis: wr/rw edges from element visibility."""

    workload = "grow-set"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        check_unique_writes(self.index, "grow-set")
        self._keys = self.index.read_key_order
        self._style = ReadCheckStyle(garbage=_garbage, g1a=_g1a)

    def _pass(self, keys: Sequence[Any], profile=None) -> Findings:
        """Analyze ``keys`` in one pass over one membership mask.

        Each key's added elements are interned in first-add order, and
        every committed known read gets one mask row over its key's
        elements.  A set bit is a ``wr`` edge from the element's adder to
        the reader, a clear one an ``rw`` edge from the reader to the
        adder; both gather their adders in one step and drop self-edges.
        Evidence ranks follow each key's emission order: read by read,
        its ``wr`` records by the elements' ``repr`` order, then its
        ``rw`` records in first-add order.  Only a read holding an
        element with no adder or an aborted adder can report an anomaly,
        so only those reads run
        :func:`~repro.core.keyspace.check_recoverable_read`.
        """
        index = self.index
        txn_ids = index.txn_ids
        cols = index.columns(keys)
        keys = cols.keys

        with stage(profile, "analyze/columnar-screen"):
            nk = len(keys)
            adds = [index.slices[key].first_writer for key in keys]
            e_count = np.fromiter(map(len, adds), np.int64, nk)
            e_indptr = np.zeros(nk + 1, dtype=np.int64)
            e_count.cumsum(out=e_indptr[1:])
            n_e = int(e_indptr[-1])
            elements = list(chain.from_iterable(adds))
            adder = np.fromiter(
                chain.from_iterable(map(dict.values, adds)), np.int64, n_e
            )
            e_key = np.arange(nk, dtype=np.int64).repeat(e_count)
            # Each element's place within its key: first-add order, and
            # ``repr`` order (a stable sort by key of the ``repr`` sort).
            by_repr = np.array(
                sorted(range(n_e), key=list(map(repr, elements)).__getitem__),
                dtype=np.int64,
            )
            by_repr = by_repr[np.argsort(e_key[by_repr], kind="stable")]
            repr_pos = np.empty(n_e, dtype=np.int64)
            repr_pos[by_repr] = np.arange(n_e) - e_indptr[e_key[by_repr]]
            first_pos = np.arange(n_e) - e_indptr[e_key]

            # Committed known reads, and each one's members as element
            # ids through its key's element index (-1: never added).
            rv = cols.r_val
            known = np.flatnonzero([value is not None for value in rv])
            r_key = cols.r_key[known]
            r_txn = cols.r_txn[known]
            values = list(map(rv.__getitem__, known.tolist()))
            ids_of = [
                dict(zip(add, range(lo, hi)))
                for add, lo, hi in zip(adds, e_indptr.tolist(), e_indptr[1:].tolist())
            ]
            lookups = map(attrgetter("get"), map(ids_of.__getitem__, r_key.tolist()))
            m_count = np.fromiter(map(len, values), np.int64, len(values))
            member = np.fromiter(
                chain.from_iterable(map(map, lookups, values, repeat(repeat(-1)))),
                np.int64,
                int(m_count.sum()),
            )
            m_read = np.arange(len(values), dtype=np.int64).repeat(m_count)
            # The screen: an element nobody added, or one an aborted
            # transaction added (through one padding entry for -1).
            bad = np.append(take(index.txn_aborted, adder) != 0, True)
            flagged = np.zeros(len(values), dtype=bool)
            flagged[m_read[bad[member]]] = True

            # The mask: one row per read, one column per element of its
            # key; ``shift`` takes a read's element ids to mask positions.
            row_len = e_count[r_key]
            row_start = np.zeros(len(values) + 1, dtype=np.int64)
            row_len.cumsum(out=row_start[1:])
            shift = row_start[:-1] - e_indptr[r_key]
            hit = member >= 0
            mask = np.zeros(int(row_start[-1]), dtype=bool)
            mask[member[hit] + shift[m_read[hit]]] = True
            # The row columns are built as int32 while the positions fit.
            fits = max(len(mask), len(txn_ids)) <= np.iinfo(np.int32).max
            pos = np.int32 if fits else np.int64
            element = np.arange(len(mask), dtype=pos) - shift.astype(pos).repeat(
                row_len
            )
            e_txn = adder.astype(pos)[element]
            reader = r_txn.astype(pos).repeat(row_len)
            edge = e_txn != reader
            wr = mask & edge
            rw = ~mask
            rw &= edge
            # Ranks: each read's records past the previous read's, wr in
            # ``repr`` order, then rw in first-add order.
            width = 2 * max(int(e_count.max()) if nk else 0, 1)
            base = (known * width).repeat(row_len)
            g = element[wr]
            wr_rank = base[wr] + repr_pos[g]
            wr_cols = EdgeColumns(WR, e_txn[wr], reader[wr], g, None, None, wr_rank)
            g = element[rw]
            rw_rank = base[rw] + (width // 2 + first_pos[g])
            rw_cols = EdgeColumns(RW, reader[rw], e_txn[rw], g, None, None, rw_rank)

        flagged_l = flagged.nonzero()[0].tolist()
        if profile is not None:
            walked = len(set(r_key[flagged].tolist()))
            profile.count("keyspace.columnar_keys", nk - walked)
            profile.count("keyspace.fallback_keys", walked)
            profile.count("keyspace.survivor_reads", len(flagged_l))

        with stage(profile, "analyze/fallback"):
            anomalies: List[Anomaly] = []
            anomaly_keys: List[int] = []
            transactions = index.transactions
            write_maps: Dict[int, Dict[Any, Any]] = {}
            for i in flagged_l:
                k = int(r_key[i])
                write_map = write_maps.get(k)
                if write_map is None:
                    write_map = write_maps[k] = index.write_map(index.slices[keys[k]])
                ordered = tuple(sorted(frozenset(values[i]), key=repr))
                found = check_recoverable_read(
                    transactions[r_txn[i]], keys[k], ordered, write_map, self._style
                )
                anomalies.extend(found)
                anomaly_keys.extend([k] * len(found))
        evidence = ColumnEvidence(
            (wr_cols, rw_cols), txn_ids, keys, lambda: elements, e_key
        )
        return Findings(anomalies, anomaly_keys, evidence)


@register_plan
class CounterPlan(KeyspacePlan):
    """Counter plausibility: reads within the feasible sum range.

    A committed read of key ``k`` returning ``v`` must satisfy
    ``lo <= v <= hi`` where ``lo`` sums definitely-committed negative
    increments plus nothing else, and ``hi`` sums every possibly-committed
    positive increment (ok + indeterminate).  Violations are reported as
    ``garbage-read`` — the counter held a value no interpretation produces.
    The sums stay Python ints, so increments past int64 stay exact.
    """

    workload = "counter"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        self._keys = self.index.read_key_order

    def _pass(self, keys: Sequence[Any], profile=None) -> Findings:
        """Each key's feasible range and the reads outside it; no edges."""
        index = self.index
        txn_ids = index.txn_ids
        txn_committed = index.txn_committed
        txn_aborted = index.txn_aborted
        anomalies: List[Anomaly] = []
        anomaly_keys: List[int] = []
        for k, key in enumerate(keys):
            slice_ = index.slices[key]
            lo = 0  # definitely-committed negative increments
            hi = 0  # every possibly-committed positive increment
            for pos, delta in zip(slice_.w_txn, slice_.w_val):
                if delta >= 0:
                    if not txn_aborted[pos]:
                        hi += delta
                elif txn_committed[pos]:
                    lo += delta
            lo = min(lo, 0)
            hi = max(hi, 0)
            for pos, value in zip(slice_.r_txn, slice_.r_val):
                if value is None or lo <= value <= hi:
                    continue
                reader_id = txn_ids[pos]
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
                anomaly_keys.append(k)
        evidence = ColumnEvidence((), txn_ids, keys, list, np.empty(0, np.int64))
        return Findings(anomalies, anomaly_keys, evidence)
