"""The list-append analyzer: Elle's most powerful inference (§3, §4.3, §6.1).

Appending unique elements to lists gives *traceability* (each read reveals
the full version history of its key) and *recoverability* (each element maps
to exactly one observed write).  Together these let the checker translate
client observations into an inferred direct serialization graph soundly:
every edge it emits exists in the DSG of every clean interpretation.

The analysis is a keyspace-partitioned plan (:mod:`repro.core.keyspace`)
over the history's single-pass :class:`~repro.history.index.HistoryIndex`.
Per key:

1. **Read checks** — per committed read: duplicate elements (a write applied
   twice by the database), garbage elements (never written by anyone),
   aborted reads (G1a), dirty updates, and intermediate reads (G1b), via the
   shared recoverability checks.  A per-key screen (element / aborted /
   non-final sets) proves most reads anomaly-free with set operations so the
   element-by-element walk runs only on suspicious reads.
2. **Version order** — the longest committed read defines the inferred
   order; non-prefix reads are ``incompatible-order`` anomalies.
3. **Dependency edges** — ww along consecutive *installed* versions, wr from
   a version's writer to its readers, rw from a reader to the writer of the
   next installed version.

Internal consistency (each transaction against its own ops) runs
transaction-major alongside the plan, and optional session/real-time edges
(§5.1) are added after the per-key batches merge.  A batch check runs the
whole-index pass at any ``shards=N``: the worker pool serves only plans
without one (grow-set, counter).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

import numpy as np

from ..errors import HistoryError
from ..history import History
from ..history.index import check_unique_writes, take
from .analysis import Analysis, Evidence
from .anomalies import (
    DIRTY_UPDATE,
    DUPLICATE_ELEMENTS,
    G1A,
    G1B,
    GARBAGE_READ,
    INCOMPATIBLE_ORDER,
    Anomaly,
    sort_anomalies,
)
from .deps import RW, WR, WW
from .keyspace import (
    Batch,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
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


@register_plan
class ListAppendPlan(KeyspacePlan):
    """Per-key list-append analysis over the shared history index."""

    workload = "list-append"

    def __init__(self, history: History) -> None:
        super().__init__(history)
        check_unique_writes(self.index, "list-append")
        # Keys in first-committed-read order: only keys somebody read can
        # define a version order or witness read anomalies.
        self._keys = self.index.read_key_order
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

    # ------------------------------------------------------------------
    # Whole-index columnar pass

    def analyze_index(self, analysis: Analysis, profile=None) -> bool:
        """Analyze every key in one vectorized sweep over the CSR columns.

        The per-key screens of :meth:`analyze_key` become single numpy
        passes over the concatenated columns: per-key maximal reads
        (``maximum.reduceat``), the committed-final-append stream ``S``
        (one mask over ``w_final``), and the clean-key test ``S == trace
        and every read a prefix``.  A key that passes is *clean*: its
        recoverability / G1a / G1b / dirty-update / duplicate screens are
        proven silent, its installed version order is exactly ``S``, and
        its ww/wr/rw edges are computable as bulk id arrays — so the
        per-key plan invocation is skipped entirely.  Flagged reads land
        in ``(key, position)`` survivor arrays and their keys fall back
        to :meth:`analyze_key`, the per-key path.  Anomalies merge in
        the canonical :func:`~repro.core.anomalies.sort_anomalies` order.
        The clean keys' edges go into the graph as one block of columns
        and the fallback fragments after them: the frozen graph is the
        same for any emission order.  Evidence is not built here: the
        analysis logs one deferred source that, if ever read, yields the
        fragments in key order — the fallback keys' as computed, and each
        clean key's re-derived by :meth:`analyze_key` — so both kinds of
        key share one derivation.  Output — anomalies, the
        graph, evidence precedence — is identical to the per-key path;
        the sharding/streaming/service and reference oracles pin that.
        """
        if not self._keys:
            return False
        index = self.index
        cols = index.columns(self._keys)

        with stage(profile, "analyze/columnar-screen"):
            nk = len(cols.keys)
            rv = cols.r_val
            wv = cols.w_val
            r_indptr = cols.r_indptr
            r_len_l = [-1 if v is None else len(v) for v in rv]
            r_len = np.asarray(r_len_l, dtype=np.int64)
            key_of_read = np.repeat(
                np.arange(nk, dtype=np.int64), np.diff(r_indptr)
            )
            starts = r_indptr[:-1]
            # Every key in read order has >= 1 committed value-bearing
            # read, so the reduceat segments are never empty.  Unknown
            # (None) reads carry length -1: they never win the max and
            # are skipped everywhere, exactly like the classic path's
            # filtered copy.
            maxlen = np.maximum.reduceat(r_len, starts)
            # First maximal read per key (max() picks the first maximum).
            is_max = np.flatnonzero(r_len == maxlen[key_of_read])
            longest_idx = is_max[
                np.unique(key_of_read[is_max], return_index=True)[1]
            ]

            # S: every append of a non-aborted writer, per key in stream
            # order.  Indeterminate writers belong — their appends can be
            # read and installed (the per-key path only breaks the chain
            # on aborted or garbage elements).  ``s_final`` marks the
            # last append of each writer's run: the *installed* versions.
            wm = take(index.txn_aborted, cols.w_txn) == 0
            w_indptr = cols.w_indptr
            cum = np.zeros(len(wm) + 1, dtype=np.int64)
            np.cumsum(wm, out=cum[1:])
            s_count = cum[w_indptr[1:]] - cum[w_indptr[:-1]]
            s_idx = np.flatnonzero(wm)
            s_txn = cols.w_txn[s_idx]
            s_final = cols.w_final[s_idx]
            s_indptr = np.zeros(nk + 1, dtype=np.int64)
            np.cumsum(s_count, out=s_indptr[1:])
            n_s = len(s_txn)

            # Candidate clean keys, three vectorized gates: (a) at least
            # as many surviving appends as the longest read has elements
            # (appends after the last read sit in ``S`` beyond the trace
            # and never enter the version order); (b) every known read
            # ends on an installed position — a read ending mid-run saw
            # an intermediate version (a G1b candidate) and survives to
            # the per-key path.  The Python finishing loop then verifies
            # (c) ``trace == S[:maxlen]`` elementwise with a duplicate
            # check — the prefix compare stays exact, never hashed.
            base = s_indptr[key_of_read]
            count_ok = s_count >= maxlen
            gather = (r_len > 0) & (r_len <= s_count[key_of_read])
            if n_s:
                ends_ok = (r_len <= 0) | (
                    gather
                    & s_final[np.where(gather, base + r_len - 1, 0)]
                )
            else:
                ends_ok = r_len <= 0
            candidates = np.flatnonzero(
                count_ok & np.logical_and.reduceat(ends_ok, starts)
            )
            # Survivor (key, read) arrays from the vectorized screen:
            # flagged reads in keys that passed the count gate.
            flagged_idx = np.flatnonzero(~ends_ok & count_ok[key_of_read])
            survivor_keys: List[int] = key_of_read[flagged_idx].tolist()
            survivor_reads: List[int] = flagged_idx.tolist()

            r_indptr_l = r_indptr.tolist()
            s_indptr_l = s_indptr.tolist()
            s_idx_l = s_idx.tolist()
            longest_l = longest_idx.tolist()
            clean_bits = bytearray(nk)
            for k in candidates.tolist():
                trace = rv[longest_l[k]]
                tlen = len(trace)
                slo = s_indptr_l[k]
                if (
                    tuple(wv[i] for i in s_idx_l[slo : slo + tlen]) != trace
                    or len(set(trace)) != tlen
                ):
                    continue
                lo, hi = r_indptr_l[k], r_indptr_l[k + 1]
                prefixes = {tlen: trace}
                flagged = -1
                for i in range(lo, hi):
                    length = r_len_l[i]
                    if length < 0:
                        continue  # unknown read: filtered, never judged
                    prefix = prefixes.get(length)
                    if prefix is None:
                        prefix = prefixes[length] = trace[:length]
                    if rv[i] != prefix:
                        flagged = i
                        break
                if flagged >= 0:
                    survivor_keys.append(k)
                    survivor_reads.append(flagged)
                    continue
                clean_bits[k] = 1
            clean = np.frombuffer(bytes(clean_bits), dtype=np.uint8).astype(
                bool
            )
            fallback = np.flatnonzero(~clean).tolist()

            # Bulk ww/wr/rw edge columns for the clean keys, computed in
            # the transaction-position domain until the final id gather.
            # The frozen graph does not depend on emission order, so the
            # three kinds go in as one block each.
            r_txn = cols.r_txn
            if n_s:
                s_key = np.repeat(
                    np.arange(nk, dtype=np.int64), np.diff(s_indptr)
                )
                # The ww chain links consecutive *installed* versions
                # within the trace (in-segment offsets >= maxlen were
                # never read); one run per writer, so adjacent installed
                # writers are always distinct transactions.
                in_trace = (
                    np.arange(n_s, dtype=np.int64) - s_indptr[s_key]
                ) < maxlen[s_key]
                ii = np.flatnonzero(clean[s_key] & s_final & in_trace)
                pair = s_key[ii[1:]] == s_key[ii[:-1]] if len(ii) else ii
                ww_u = s_txn[ii[:-1][pair]]
                ww_v = s_txn[ii[1:][pair]]

                clean_r = clean[key_of_read]
                wr_valid = clean_r & (r_len > 0)
                producer = s_txn[np.where(wr_valid, base + r_len - 1, 0)]
                wr_emit = wr_valid & (producer != r_txn)
                # rw: the run starting right after the read's last element
                # is the next installed version's writer (clean reads end
                # on installed positions, so position ``length`` starts a
                # fresh run whose final append is still inside the trace).
                rw_valid = clean_r & (r_len >= 0) & (r_len < maxlen[key_of_read])
                nwriter = s_txn[np.where(rw_valid, base + r_len, 0)]
                rw_emit = rw_valid & (nwriter != r_txn)

                # One gather of transaction ids for both endpoint columns.
                out_u, out_v = np.split(
                    take(
                        index.txn_ids,
                        np.concatenate(
                            (
                                ww_u,
                                producer[wr_emit],
                                r_txn[rw_emit],
                                ww_v,
                                r_txn[wr_emit],
                                nwriter[rw_emit],
                            )
                        ),
                    ),
                    2,
                )
                out_l = np.repeat(
                    np.array([WW, WR, RW], dtype=np.int64),
                    [len(ww_u), int(wr_emit.sum()), int(rw_emit.sum())],
                )
            else:
                out_u = out_v = out_l = np.empty(0, dtype=np.int64)

            anomalies = self.internal_anomalies(0, len(index.transactions))

        if profile is not None:
            profile.count("keyspace.columnar_keys", nk - len(fallback))
            profile.count("keyspace.fallback_keys", len(fallback))
            profile.count("keyspace.survivor_reads", len(survivor_reads))

        with stage(profile, "analyze/fallback"):
            fallback_edges = {}
            analyze_key = self.analyze_key
            keys = self._keys
            for k in fallback:
                key_anomalies, fragment = analyze_key(keys[k])
                anomalies.extend(key_anomalies)
                if fragment:
                    fallback_edges[k] = fragment

        with stage(profile, "analyze/merge"):
            analysis.anomalies.extend(sort_anomalies(anomalies))
            graph = analysis.graph
            graph.add_edge_columns(out_u, out_v, out_l)
            for fragment in fallback_edges.values():
                graph.add_edge_keys(fragment)

            # Evidence: one deferred source, in key order — the fallback
            # keys' fragments as computed, and each clean key's fragment
            # re-derived by the per-key path.  A clean history never reads
            # it.  The replay runs analyze_key against the live index, so
            # it refuses once the history has grown past this analysis.
            clock = index._clock

            def fragments():
                if index._clock != clock:
                    raise HistoryError(
                        "the history changed after this list-append "
                        "analysis; its evidence can no longer be replayed"
                    )
                for kp, key in enumerate(keys):
                    if clean_bits[kp]:
                        yield analyze_key(key)[1]
                    elif kp in fallback_edges:
                        yield fallback_edges[kp]

            analysis.log_evidence(fragments)
        return True

    def analyze_key(self, key: Any) -> Batch:
        """One key's read checks, version order, and dependency edges.

        Runs entirely over the slice's columnar arrays: read values are
        pre-normalized tuples, writers are interned transaction positions
        (``first_writer``), and transaction status comes from the index's
        flat status columns.  The screen classifies the *longest* read's
        elements once; any read that is a prefix of the longest is then
        judged suspicious or clean by three integer comparisons, and only
        suspicious reads pay for the element-by-element recoverability
        walk (with the object-level write map built lazily, at most once
        per key).  Within the fragment the first record of an edge wins:
        ww edges along the trace, then each read's wr and rw edges in
        read order.
        """
        index = self.index
        slice_ = index.slices[key]
        transactions = index.transactions
        txn_ids = index.txn_ids
        txn_aborted = index.txn_aborted
        first_writer = slice_.first_writer

        # Committed value-bearing reads, columnar.  The slice arrays are
        # used as-is unless some committed read has an unknown (None)
        # value, which is rare enough to pay a filtered copy for.
        reads_txn = slice_.r_txn
        reads_val = slice_.r_val
        if None in reads_val:
            filtered_txn: List[int] = []
            filtered_val: List[Tuple] = []
            for i, value in enumerate(reads_val):
                if value is not None:
                    filtered_txn.append(reads_txn[i])
                    filtered_val.append(value)
            reads_txn = filtered_txn
            reads_val = filtered_val
        n_reads = len(reads_val)

        # Version order: the longest committed read defines the trace
        # (first maximal read wins, as max() picks the first maximum).
        longest_i = max(range(n_reads), key=lambda i: len(reads_val[i]))
        longest = reads_val[longest_i]
        longest_pos = reads_txn[longest_i]
        longest_id = txn_ids[longest_pos]
        trace_len = len(longest)

        # Classify the longest read's elements once: writer positions,
        # non-final flags, the first garbage/aborted position, and the
        # first in-trace duplicate boundary.  Every prefix read screens
        # against these in O(1) after one tuple comparison.
        nonfinal = self._nonfinal_elements(slice_.w_txn, slice_.w_val)
        fw_get = first_writer.get
        writers = [fw_get(element, -1) for element in longest]
        min_bad = trace_len
        for p, w in enumerate(writers):
            if w < 0 or txn_aborted[w]:
                min_bad = p
                break
        if nonfinal:
            nonfinal_at = [element in nonfinal for element in longest]
        else:
            nonfinal_at = [False] * trace_len
        dup_at = trace_len
        if len(set(longest)) != trace_len:
            seen = set()
            for p, element in enumerate(longest):
                if element in seen:
                    dup_at = p
                    break
                seen.add(element)

        # ------------------------------------------------------------------
        # Installed versions and their ww chain (§4.1.2): a version is
        # *installed* when its element is its writer's final append to the
        # key; elements with no recovered writer (garbage) break the chain
        # — nothing beyond them is ordered soundly.  The ww edges land in
        # the fragment first, before any read's wr/rw edges.
        fragment: Dict[Tuple[int, int, int], Evidence] = {}
        installed_positions: List[int] = []
        installed_writers: List[int] = []
        for p in range(trace_len):
            w = writers[p]
            if w < 0:
                break  # garbage element: the trace beyond it is unreliable
            if not nonfinal_at[p]:
                installed_positions.append(p)
                installed_writers.append(w)

        for j in range(1, len(installed_writers)):
            pwriter = installed_writers[j - 1]
            nwriter = installed_writers[j]
            if pwriter != nwriter:
                edge = (txn_ids[pwriter], txn_ids[nwriter], WW)
                if edge not in fragment:
                    fragment[edge] = Evidence(
                        kind=WW,
                        key=key,
                        value=longest[installed_positions[j]],
                        prev_value=longest[installed_positions[j - 1]],
                        via=longest_id,
                    )

        # ------------------------------------------------------------------
        # One fused pass over the reads: screen, recoverability anomalies,
        # and wr/rw edges for prefix reads; non-prefix reads are collected
        # for the incompatible-order report below.  ``next_installed[b+1]``
        # is the index of the first installed position > b, replacing a
        # per-read bisect with one table lookup.
        anomalies: List[Anomaly] = []
        n_installed = len(installed_positions)
        next_installed: List[int] = []
        k = 0
        for b in range(-1, trace_len):
            while k < n_installed and installed_positions[k] <= b:
                k += 1
            next_installed.append(k)
        nonprefix: List[int] = []
        screen_sets = None  # (elements, aborted) for non-prefix reads
        obj_write_map = None  # lazily built for suspicious reads only

        def check_suspicious_read(i: int, value: Tuple) -> None:
            nonlocal obj_write_map
            if obj_write_map is None:
                obj_write_map = index.write_map(slice_)
            anomalies.extend(
                check_recoverable_read(
                    transactions[reads_txn[i]], key, value, obj_write_map, self._style
                )
            )

        for i in range(n_reads):
            value = reads_val[i]
            length = len(value)
            if (
                value == longest
                if length == trace_len
                else value == longest[:length]
            ):
                suspicious = (
                    length > dup_at
                    or length > min_bad
                    or (length > 0 and nonfinal_at[length - 1])
                )
            else:
                nonprefix.append(i)
                if screen_sets is None:
                    elements: Set[Any] = set(first_writer)
                    aborted: Set[Any] = {
                        v for v, w in first_writer.items() if txn_aborted[w]
                    }
                    screen_sets = (elements, aborted)
                if self._suspicious(value, *screen_sets, nonfinal):
                    check_suspicious_read(i, value)
                continue  # incompatible read: no sound edges
            if suspicious:
                check_suspicious_read(i, value)

            reader_pos = reads_txn[i]
            # wr: the version read was produced by the writer of its last
            # element (for a prefix read, the trace element at length - 1).
            producer = writers[length - 1] if length else -1
            if producer >= 0 and producer != reader_pos:
                edge = (txn_ids[producer], txn_ids[reader_pos], WR)
                if edge not in fragment:
                    fragment[edge] = Evidence(
                        kind=WR, key=key, value=longest[length - 1]
                    )

            # rw: the reader saw the version ending at position length-1;
            # the writer of the next installed version overwrote it.
            nxt = next_installed[length]
            if nxt < n_installed:
                writer = installed_writers[nxt]
                if producer >= 0 and writer == producer:
                    # The "next" installed version belongs to the same
                    # transaction that produced the version read (an
                    # intermediate read, flagged as G1b): no sound
                    # anti-dependency follows.
                    continue
                if reader_pos != writer:
                    edge = (txn_ids[reader_pos], txn_ids[writer], RW)
                    if edge not in fragment:
                        fragment[edge] = Evidence(
                            kind=RW,
                            key=key,
                            value=longest[installed_positions[nxt]],
                            prev_value=value,
                        )

        # Incompatible orders: non-prefix reads, one report per distinct value.
        if nonprefix:
            flagged = set()
            for i in nonprefix:
                value = reads_val[i]
                if value in flagged:
                    continue
                flagged.add(value)
                anomalies.append(
                    Anomaly(
                        name=INCOMPATIBLE_ORDER,
                        txns=(txn_ids[reads_txn[i]], longest_id),
                        message=(
                            f"T{txn_ids[reads_txn[i]]} read {list(value)} of "
                            f"key {key!r}, which is "
                            f"not a prefix of {list(longest)} as read by "
                            f"T{longest_id}; these versions cannot lie on one "
                            "version order"
                        ),
                        data={"key": key, "value": value, "longest": longest},
                    )
                )
        return anomalies, fragment

    @staticmethod
    def _nonfinal_elements(w_txn: List[int], w_val: List[Any]) -> Set[Any]:
        """Elements that are a *non-final* append of their transaction."""
        nonfinal: Set[Any] = set()
        n = len(w_txn)
        i = 0
        while i < n:
            txn = w_txn[i]
            j = i
            while j + 1 < n and w_txn[j + 1] == txn:
                j += 1
            if j > i:
                final_value = w_val[j]
                for k in range(i, j + 1):
                    value = w_val[k]
                    if value != final_value:
                        nonfinal.add(value)
            i = j + 1
        return nonfinal

    @staticmethod
    def _suspicious(value, elements, aborted, nonfinal) -> bool:
        """True when ``value`` could witness any anomaly on this key."""
        if not value:
            return False
        if len(value) != len(set(value)):
            return True  # duplicate elements
        if not elements.issuperset(value):
            return True  # garbage element
        if not aborted.isdisjoint(value):
            return True  # aborted read (G1a) / dirty update
        return value[-1] in nonfinal  # intermediate read (G1b)
