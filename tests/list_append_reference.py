"""The per-key list-append analyzer: the columnar pass's reference.

``src/`` runs one list-append analyzer, the columnar pass of
:class:`~repro.core.list_append.ListAppendPlan`, for batch checks and
streams alike.  This module keeps the per-key walk it replaced: one key's
read checks, version order, and dependency edges, derived from that key's
:class:`~tests.index_reference.KeySlice` and the index's transaction
columns.  It is an oracle only; nothing in ``src/`` imports it.

:func:`use_reference` makes a plan run it for every key, batch and stream
alike (the reference oracles, ``per_key_only``); :func:`analyze_key` runs
it for one key of a plan.
"""

from typing import Any, Dict, List, Set, Tuple

from repro.core.analysis import Evidence
from repro.core.anomalies import INCOMPATIBLE_ORDER, Anomaly
from repro.core.deps import RW, WR, WW
from repro.core.keyspace import check_recoverable_read
from repro.core.list_append import ListAppendPlan
from tests.index_reference import slice_of, write_map
from tests.keyspace_reference import WalkBatch, use_walk


def analyze_key(plan: ListAppendPlan, key: Any) -> WalkBatch:
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
    index = plan.index
    slice_ = slice_of(index, key)
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
    nonfinal = _nonfinal_elements(slice_.w_txn, slice_.w_val)
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
            obj_write_map = write_map(index, slice_)
        anomalies.extend(
            check_recoverable_read(
                transactions[reads_txn[i]], key, value, obj_write_map, plan._style
            )
        )

    for i in range(n_reads):
        value = reads_val[i]
        length = len(value)
        if value == longest if length == trace_len else value == longest[:length]:
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
            if _suspicious(value, *screen_sets, nonfinal):
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
                fragment[edge] = Evidence(kind=WR, key=key, value=longest[length - 1])

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


def use_reference(patch) -> None:
    """Make list-append plans run :func:`analyze_key` on every key, in batch
    checks and streams alike."""
    use_walk(patch, ListAppendPlan, analyze_key)
