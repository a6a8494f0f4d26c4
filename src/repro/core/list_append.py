"""The list-append analyzer: Elle's most powerful inference (§3, §4.3, §6.1).

Appending unique elements to lists gives *traceability* (each read reveals
the full version history of its key) and *recoverability* (each element maps
to exactly one observed write).  Together these let the checker translate
client observations into an inferred direct serialization graph soundly:
every edge it emits exists in the DSG of every clean interpretation.

The analysis is a keyspace-partitioned plan (:mod:`repro.core.keyspace`)
over the history's single-pass :class:`~repro.history.index.HistoryIndex`.
Per key:

1. **Version order** — the longest committed read (the first, on a tie)
   is the key's *trace*; reads that are not a prefix of it are
   ``incompatible-order`` anomalies and justify no edges.
2. **Read checks** — per committed read: duplicate elements (a write applied
   twice by the database), garbage elements (never written by anyone),
   aborted reads (G1a), dirty updates, and intermediate reads (G1b), via the
   shared recoverability checks.  A screen over the trace's elements
   (garbage, aborted writer, duplicate, non-final append) proves most reads
   anomaly-free, so the element-by-element walk runs only on flagged reads.
3. **Dependency edges** — ww along consecutive *installed* versions, wr from
   a version's writer to its readers, rw from a reader to the writer of the
   next installed version.

All three run as one columnar pass over a key list
(:meth:`ListAppendPlan._pass`), on one path: a batch check passes every
key and merges the result whole, and the streaming checker passes a
chunk's stale keys and splits the result by key
(:class:`~repro.core.keyspace.KeyspacePlan`).  Internal consistency
(each transaction against its own ops) runs transaction-major alongside
the plan, and optional session/real-time edges (§5.1) are added after the
merge.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import attrgetter, ne
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from ..history import History
from ..history.index import check_unique_writes, take
from .analysis import ColumnEvidence, EdgeColumns
from .anomalies import (
    DIRTY_UPDATE,
    DUPLICATE_ELEMENTS,
    G1A,
    G1B,
    GARBAGE_READ,
    INCOMPATIBLE_ORDER,
    Anomaly,
)
from .deps import RW, WR, WW
from .keyspace import (
    NONE,
    Findings,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
    require_values,
)
from .profiling import stage


# ---------------------------------------------------------------------------
# Anomaly phrasing (the shared checks in keyspace drive the logic)

def _garbage(reader, key, element, value):
    return Anomaly(
        name=GARBAGE_READ,
        txns=(reader.id,),
        message=(
            f"T{reader.id} read element {element!r} of key {key!r}, "
            "which no observed transaction ever appended"
        ),
        data={"key": key, "element": element, "value": value},
    )


def _g1a(reader, key, element, writer):
    return Anomaly(
        name=G1A,
        txns=(reader.id, writer.id),
        message=(
            f"T{reader.id} read element {element!r} of key {key!r}, "
            f"which was appended by aborted transaction T{writer.id}"
        ),
        data={"key": key, "element": element},
    )


def _g1b(reader, key, last, final, value, writer):
    return Anomaly(
        name=G1B,
        txns=(reader.id, writer.id),
        message=(
            f"T{reader.id} read key {key!r} = {list(value)}, an "
            f"intermediate version: T{writer.id} appended "
            f"{last!r} before its final append of {final!r}"
        ),
        data={"key": key, "element": last, "final": final},
    )


def _dirty(reader, key, element, aelement, awriter, writer):
    return Anomaly(
        name=DIRTY_UPDATE,
        txns=(awriter.id, writer.id),
        message=(
            f"T{writer.id}'s append of {element!r} to key {key!r} "
            f"acted on a version containing {aelement!r}, written "
            f"by aborted transaction T{awriter.id}"
        ),
        data={"key": key, "aborted_element": aelement, "element": element},
    )


def _duplicate(reader, key, element, first_pos, pos, value):
    return Anomaly(
        name=DUPLICATE_ELEMENTS,
        txns=(reader.id,),
        message=(
            f"T{reader.id} read key {key!r} = {list(value)}, in "
            f"which element {element!r} appears at positions "
            f"{first_pos} and {pos}: a write was applied twice"
        ),
        data={"key": key, "element": element, "value": value},
    )


def _incompatible(reader_id, key, value, longest, longest_id):
    return Anomaly(
        name=INCOMPATIBLE_ORDER,
        txns=(reader_id, longest_id),
        message=(
            f"T{reader_id} read {list(value)} of "
            f"key {key!r}, which is "
            f"not a prefix of {list(longest)} as read by "
            f"T{longest_id}; these versions cannot lie on one "
            "version order"
        ),
        data={"key": key, "value": value, "longest": longest},
    )


_READ_RULE = "list-append reads must be arrays or null"


@register_plan
class ListAppendPlan(KeyspacePlan):
    """List-append analysis over the shared history index."""

    workload = "list-append"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        # Keys in first-committed-read order: only keys somebody read can
        # define a version order or witness read anomalies.
        self._keys = self.index.read_key_order
        check_unique_writes(self.index, "list-append", self._keys)
        self._style = ReadCheckStyle(
            garbage=_garbage,
            g1a=_g1a,
            g1b=_g1b,
            dirty=_dirty,
            duplicate=_duplicate,
            duplicates=True,
            dirty_updates=True,
            intermediate=True,
            intermediate_after_aborted=True,
        )

    def _pass(self, keys: Sequence[Any], profile=None) -> Findings:
        """Analyze ``keys`` in one pass over their columns.

        Per key, the trace is the first maximal known read, and each trace
        element maps to its writer through the key's writes; a garbage
        element (no writer) ends the installed chain.  An element is
        *installed* when it is its writer's final append.  Then, as
        columns over every key at once: ww links consecutive installed
        elements of distinct writers; each prefix read gets wr from its
        last element's writer and rw to the next installed writer (unless
        that writer produced the version read); each distinct non-prefix
        value is one ``incompatible-order``.  The screen flags a prefix
        read that reaches past the first garbage, aborted or duplicate
        trace element or ends on a non-final append, and a non-prefix
        read holding a duplicate, garbage or aborted element or ending on
        a non-final append; only flagged reads run
        :func:`~repro.core.keyspace.check_recoverable_read`.  Evidence
        ranks follow each key's emission order: its ww records along the
        trace, then each read's wr and rw.  Transaction status is read at
        the keys' own rows (:func:`take`), never over the whole history.
        """
        index = self.index
        txn_ids = index.txn_ids
        view = index.view(keys)
        keys = view.keys

        with stage(profile, "analyze/columnar-screen"):
            nk = len(keys)
            rv = view.r_val
            r_txn = view.r_txn
            r_key = view.r_key
            r_indptr = view.r_indptr
            require_values(view, txn_ids, "r", {tuple, NONE}, _READ_RULE)
            r_len_l = [-1 if value is None else len(value) for value in rv]
            r_len = np.array(r_len_l, dtype=np.int64)

            # The trace: each key's first maximal read.  Every key has a
            # known read, so no reduceat segment is empty, and unknown
            # (None) reads, length -1, never win.
            maxlen = np.maximum.reduceat(r_len, r_indptr[:-1])
            is_max = (r_len == maxlen[r_key]).nonzero()[0]
            head = np.empty(len(is_max), dtype=bool)
            head[0] = True
            np.not_equal(r_key[is_max[1:]], r_key[is_max[:-1]], out=head[1:])
            longest = is_max[head]
            longest_pos = r_txn[longest]
            traces = [rv[i] for i in longest.tolist()]
            trace = list(chain.from_iterable(traces))
            n_t = len(trace)
            t_indptr = np.zeros(nk + 1, dtype=np.int64)
            maxlen.cumsum(out=t_indptr[1:])
            t_key = np.arange(nk, dtype=np.int64).repeat(maxlen)

            # Each trace element's writer, through its key's first write
            # slots (-1: garbage), plus one -1 pad entry; the per-key maps
            # chain in C, with no loop per key.
            slots = map(
                map, map(attrgetter("get"), view.first), traces, repeat(repeat(-1))
            )
            t_slot = np.fromiter(
                chain(chain.from_iterable(slots), (-1,)), np.int64, n_t + 1
            )
            t_writer = np.append(view.w_txn, -1)[t_slot]
            garbage = t_writer[:-1] < 0
            known = (~garbage).nonzero()[0]
            k_writer = t_writer[known]
            bad = garbage.copy()
            bad[known] = take(index.txn_aborted, k_writer) != 0
            # An element is *non-final* when it differs from the last
            # append of its writer's run on the key.  Writes are key-major
            # and each writer's run is one stretch, in position order, so
            # the runs' (key, writer) codes ascend and each run starts
            # past the previous run's end; a one-write run's element is
            # its final append.
            width = len(txn_ids)
            finals = view.w_final.nonzero()[0]
            runs = view.w_key[finals] * width + view.w_txn[finals]
            run = runs.searchsorted(t_key[known] * width + k_writer)
            starts = np.concatenate(([0], finals[:-1] + 1))
            several = finals[run] > starts[run]
            multi = known[several]
            nonfinal = np.zeros(n_t + 1, dtype=bool)  # one pad entry
            nonfinal[multi] = np.fromiter(
                map(
                    ne,
                    map(view.w_val.__getitem__, finals[run[several]].tolist()),
                    map(trace.__getitem__, multi.tolist()),
                ),
                bool,
                len(multi),
            )

            def first(mask: np.ndarray) -> np.ndarray:
                """Per key, the trace index of the first masked element
                (the end of the key's trace if none)."""
                out = t_indptr[1:].copy()
                hits = mask.nonzero()[0][::-1]
                out[t_key[hits]] = hits  # the last write, the first hit
                return out

            # The cut: the first garbage, aborted or repeated element.  A
            # trace repeats an element when it has fewer distinct
            # elements than positions.
            cut = first(bad)
            distinct = np.fromiter(map(len, map(set, traces)), np.int64, nk)
            for k in (distinct < maxlen).nonzero()[0].tolist():
                seen_elements = set()
                for p, element in enumerate(traces[k]):
                    if element in seen_elements:
                        cut[k] = min(cut[k], t_indptr[k] + p)
                        break
                    seen_elements.add(element)

            # ww: consecutive installed elements of distinct writers.
            chained = np.arange(n_t) < first(garbage)[t_key]
            installed = (~nonfinal[:-1] & chained).nonzero()[0]
            a = installed[:-1]
            b = installed[1:]
            pair = (t_key[a] == t_key[b]) & (t_writer[a] != t_writer[b])
            a = a[pair]
            b = b[pair]
            rank = b + 2 * r_indptr[t_key[b]]
            ww = EdgeColumns(WW, t_writer[a], t_writer[b], b, a, longest_pos, rank)

            # Prefix reads: wr from the producer of the version read, rw to
            # the next installed writer; flagged when the read reaches past
            # the cut or ends on a non-final element.  ``end`` is the
            # trace index past the read's last element; a read's values
            # index is ``n_t + i``, past the trace's elements.
            r_key_l = r_key.tolist()
            prefix = np.array(
                [traces[k][:n] == value for value, k, n in zip(rv, r_key_l, r_len_l)],
                dtype=bool,
            )
            end = np.where(prefix, t_indptr[r_key] + r_len, n_t)
            last_t = np.where(prefix & (r_len > 0), end - 1, n_t)
            producer = t_writer[last_t]
            flagged = prefix & ((end > cut[r_key]) | nonfinal[last_t])
            i = ((producer >= 0) & (producer != r_txn)).nonzero()[0]
            rank = t_indptr[r_key[i] + 1] + 2 * i
            wr = EdgeColumns(WR, producer[i], r_txn[i], last_t[i], None, None, rank)
            nxt = np.concatenate((installed, [n_t]))[installed.searchsorted(end)]
            nwriter = t_writer[nxt]
            to_next = (nxt < t_indptr[r_key + 1]) & (nwriter != r_txn)
            i = (to_next & ((producer < 0) | (nwriter != producer))).nonzero()[0]
            rank = t_indptr[r_key[i] + 1] + 2 * i + 1
            rw = EdgeColumns(RW, r_txn[i], nwriter[i], nxt[i], n_t + i, None, rank)

            # Non-prefix reads: flagged on a duplicate element, an element
            # outside the key's values of non-aborted writers (garbage or
            # aborted), or a last element that ends no writer's run; and
            # one incompatible-order per distinct value.
            odd = ((r_len >= 0) & ~prefix).nonzero()[0].tolist()
            if odd:
                w_bounds = view.w_indptr.tolist()
                w_fine = take(index.txn_aborted, view.w_txn) == 0
                value_sets: Dict[int, Tuple[Set[Any], Set[Any]]] = {}
            incompatible: List[Anomaly] = []
            incompatible_keys: List[int] = []
            seen = set()
            for i in odd:
                k = r_key_l[i]
                value = rv[i]
                if value:
                    sets = value_sets.get(k)
                    if sets is None:
                        lo, hi = w_bounds[k], w_bounds[k + 1]
                        written = view.w_val[lo:hi]
                        sets = value_sets[k] = (
                            set(compress(written, w_fine[lo:hi].tolist())),
                            set(compress(written, view.w_final[lo:hi].tolist())),
                        )
                    if (
                        len(set(value)) != len(value)
                        or not sets[0].issuperset(value)
                        or value[-1] not in sets[1]
                    ):
                        flagged[i] = True
                if (k, value) not in seen:
                    seen.add((k, value))
                    reader = txn_ids[r_txn[i]]
                    witness = txn_ids[longest_pos[k]]
                    incompatible.append(
                        _incompatible(reader, keys[k], value, traces[k], witness)
                    )
                    incompatible_keys.append(k)

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
                k = r_key_l[i]
                write_map = write_maps.get(k)
                if write_map is None:
                    write_map = write_maps[k] = view.write_map(k, transactions)
                found = check_recoverable_read(
                    transactions[r_txn[i]], keys[k], rv[i], write_map, self._style
                )
                anomalies.extend(found)
                anomaly_keys.extend([k] * len(found))
        anomalies.extend(incompatible)
        anomaly_keys.extend(incompatible_keys)
        evidence = ColumnEvidence.of(
            (ww, wr, rw), txn_ids, keys, lambda: trace + rv, t_key
        )
        return Findings(anomalies, anomaly_keys, evidence)
