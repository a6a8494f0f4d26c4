"""The per-key rw-register analyzer: the version-graph pass's reference.

``src/`` runs one rw-register analyzer, the version-graph pass of
:class:`~repro.core.rw_register.RwRegisterPlan`, for batch checks and
streams alike.  This module keeps the per-key walk it replaced: one key's
read checks, version DAG, and dependency edges, derived from that key's
:class:`~tests.index_reference.KeySlice` and the index's transaction
columns.  It is an oracle only; nothing in ``src/`` imports it.

:func:`use_reference` makes a plan run it for every key, batch and stream
alike (the reference oracles, ``per_key_only``); :func:`analyze_key` runs
it for one key of a plan.
"""

from typing import Any, Dict, List, Set, Tuple

from repro.core.analysis import Evidence
from repro.core.anomalies import Anomaly
from repro.core.deps import RW, WR, WW
from repro.core.keyspace import check_recoverable_read
from repro.core.rw_register import (
    INIT,
    RwRegisterPlan,
    _cyclic_versions,
    _lost_update,
)
from repro.graph import CSRGraph, interval_precedence_pairs
from repro.history.index import HistoryIndex
from tests.index_reference import KeySlice, slice_of, write_map
from tests.keyspace_reference import WalkBatch, use_walk

#: Distinguishes "no pinned version yet" from a pinned ``None`` (= INIT).
_UNPINNED = object()


# ---------------------------------------------------------------------------
# Slice derivations, rebuilt from the slot and status columns


def interacting_positions(index: HistoryIndex, entry: KeySlice) -> List[int]:
    """The committed transactions that touched the key, in invocation order."""
    committed = index.txn_committed
    positions: List[int] = []
    for pos in entry.op_txn:
        if committed[pos] and (not positions or positions[-1] != pos):
            positions.append(pos)
    return positions


def committed_stream(
    index: HistoryIndex, entry: KeySlice
) -> Tuple[List[int], List[int], List[Any]]:
    """A slice's committed stream as ``(positions, read flags, values)``.

    Merges the committed-read and write substreams back into observation
    order, keeping only committed transactions' slots.  Read values are
    the slice's normalized values (lists became tuples at build time).
    """
    committed = index.txn_committed
    r_txn = entry.r_txn
    r_seq = entry.r_seq
    r_val = entry.r_val
    w_txn = entry.w_txn
    w_seq = entry.w_seq
    w_val = entry.w_val
    n_r = len(r_txn)
    n_w = len(w_txn)
    positions: List[int] = []
    flags: List[int] = []
    values: List[Any] = []
    i = j = 0
    while True:
        if i < n_r:
            if j < n_w and (
                w_txn[j] < r_txn[i] or (w_txn[j] == r_txn[i] and w_seq[j] < r_seq[i])
            ):
                pos = w_txn[j]
                if committed[pos]:
                    positions.append(pos)
                    flags.append(0)
                    values.append(w_val[j])
                j += 1
            else:
                positions.append(r_txn[i])
                flags.append(1)
                values.append(r_val[i])
                i += 1
        elif j < n_w:
            pos = w_txn[j]
            if committed[pos]:
                positions.append(pos)
                flags.append(0)
                values.append(w_val[j])
            j += 1
        else:
            break
    return positions, flags, values


def interacting_positions_by_process(
    index: HistoryIndex, entry: KeySlice
) -> Dict[int, List[int]]:
    """A slice's committed interacting transaction positions, per process."""
    process = index.txn_process
    by_process: Dict[int, List[int]] = {}
    for pos in interacting_positions(index, entry):
        by_process.setdefault(process[pos], []).append(pos)
    return by_process


# ---------------------------------------------------------------------------
# The per-key analyzer


def _kahn_acyclic(
    succ: Dict[Any, List[Any]], version_edges: Dict[Tuple[Any, Any], Set[str]]
) -> bool:
    """True iff the version adjacency has no cycle (Kahn peel)."""
    indegree = dict.fromkeys(succ, 0)
    for _v1, v2 in version_edges:
        indegree[v2] += 1
    stack = [v for v, d in indegree.items() if d == 0]
    remaining = len(indegree)
    pop = stack.pop
    push = stack.append
    while stack:
        value = pop()
        remaining -= 1
        for target in succ[value]:
            d = indegree[target] - 1
            indegree[target] = d
            if d == 0:
                push(target)
    return remaining == 0


def analyze_key(plan: RwRegisterPlan, key: Any) -> WalkBatch:
    """One key's read checks, version DAG, and dependency edges.

    Runs over the slice's columnar arrays: writers are interned
    transaction positions (``first_writer``), transaction status comes
    from the index's flat columns, and the per-transaction version pins
    feeding the process/realtime sources are computed in one walk of the
    key's op stream.  Reads pay for the element-by-element recoverability
    walk only when a three-comparison screen says they could witness
    garbage, G1a, or G1b.
    """
    index = plan.index
    slice_ = slice_of(index, key)
    transactions = index.transactions
    txn_ids = index.txn_ids
    txn_committed = index.txn_committed
    txn_aborted = index.txn_aborted
    first_writer = slice_.first_writer
    fw_get = first_writer.get
    sources = plan._sources
    anomalies: List[Anomaly] = []

    r_txn = slice_.r_txn
    r_val = slice_.r_val

    # One object stands for each version, whichever equal object a read
    # returned (1, 1.0 and True are one version): its first write, else
    # its first committed read.  The version-graph pass follows the same
    # rule, and this order (written values by first write, then unwritten
    # ones by first read) is the canonical version order.
    canon: Dict[Any, Any] = dict(zip(first_writer, first_writer))
    for value in r_val:
        canon.setdefault(value, value)

    # Values proven committed by observation: read by a committed txn.
    observed: Set[Any] = {v for v in r_val if v is not None}

    # Final write per writer position (last write wins), for the G1b
    # screen: a committed read of a non-final write is intermediate.
    final_of: Dict[int, Any] = {}
    w_txn = slice_.w_txn
    w_val = slice_.w_val
    for i in range(len(w_txn)):
        final_of[w_txn[i]] = w_val[i]

    # ------------------------------------------------------------------
    # Read checks: garbage, G1a, G1b; collect readers per version.
    readers: Dict[Any, List[int]] = {}  # version -> reader txn ids
    obj_write_map = None  # lazily built for suspicious reads only
    for i in range(len(r_val)):
        value = r_val[i]
        pos = r_txn[i]
        if value is None:
            readers.setdefault(INIT, []).append(txn_ids[pos])
            continue
        wpos = fw_get(value, -1)
        if wpos < 0 or txn_aborted[wpos] or (wpos != pos and final_of[wpos] != value):
            if obj_write_map is None:
                obj_write_map = write_map(index, slice_)
            anomalies.extend(
                check_recoverable_read(
                    transactions[pos], key, (value,), obj_write_map, plan._style
                )
            )
        if wpos >= 0:
            readers.setdefault(canon[value], []).append(txn_ids[pos])

    # ------------------------------------------------------------------
    # The per-key version DAG from each enabled source.  Adjacency is
    # tracked in a plain dict; the full graph machinery is only built for
    # the rare cyclic key (see below).
    version_edges: Dict[Tuple[Any, Any], Set[str]] = {}
    succ: Dict[Any, List[Any]] = {}

    def add_version_edge(v1: Any, v2: Any, source: str) -> None:
        if v1 == v2:
            return
        pair = (v1, v2)
        entry = version_edges.get(pair)
        if entry is None:
            version_edges[pair] = {source}
            row = succ.get(v1)
            if row is None:
                succ[v1] = [v2]
            else:
                row.append(v2)
            if v2 not in succ:
                succ[v2] = []
        else:
            entry.add(source)

    if "initial-state" in sources:
        for value, wpos in first_writer.items():
            if txn_committed[wpos] or value in observed:
                add_version_edge(INIT, value, "initial-state")

    need_stream = (
        "write-follows-read" in sources or "process" in sources or "realtime" in sources
    )
    if need_stream:
        # The committed micro-op stream, merged back into observation
        # order from the read/write substreams.
        st_txn, st_read, st_val = committed_stream(index, slice_)
        st_val = list(map(canon.__getitem__, st_val))
        n_ops = len(st_txn)

    if "write-follows-read" in sources:
        i = 0
        while i < n_ops:
            pos = st_txn[i]
            current: Any = _UNPINNED
            while i < n_ops and st_txn[i] == pos:
                value = st_val[i]
                if st_read[i]:
                    current = value  # None = INIT
                else:
                    if current is not _UNPINNED:
                        add_version_edge(current, value, "write-follows-read")
                    current = value
                i += 1

    if "process" in sources or "realtime" in sources:
        # (first, last) version each transaction pinned the key to, from
        # one pass over the op stream.
        pins: Dict[int, Tuple[Any, Any]] = {}
        for i in range(n_ops):
            pos = st_txn[i]
            value = st_val[i]
            cur = pins.get(pos)
            pins[pos] = (value, value) if cur is None else (cur[0], value)

        def order_source_edges(pairs, tag: str) -> None:
            for p1, p2 in pairs:
                last = pins.get(p1)
                first = pins.get(p2)
                if last is None or first is None:
                    continue
                add_version_edge(last[1], first[0], tag)

        if "process" in sources:
            grouped = interacting_positions_by_process(index, slice_)
            for positions in grouped.values():
                order_source_edges(zip(positions, positions[1:]), "process")
        if "realtime" in sources:
            txn_invoke = index.txn_invoke
            txn_complete = index.txn_complete
            iv_pos = []
            iv_invoke = []
            iv_complete = []
            for pos in interacting_positions(index, slice_):
                complete = txn_complete[pos]
                if complete >= 0:
                    iv_pos.append(pos)
                    iv_invoke.append(txn_invoke[pos])
                    iv_complete.append(complete)
            sources_arr, targets_arr = interval_precedence_pairs(
                iv_pos, iv_invoke, iv_complete
            )
            order_source_edges(zip(sources_arr, targets_arr), "realtime")

    # ------------------------------------------------------------------
    # Cyclic version orders: report and discard (§7.4).  A Kahn peel over
    # the plain adjacency proves the common case (acyclic) cheaply; only a
    # key that fails it pays for the CSR freeze and the component search.
    # Versions mix types that cannot be sorted, so they intern to ints in
    # canonical version order, INIT first — the node order of the
    # version-graph pass, so both list a component's values in the same
    # order.
    if _kahn_acyclic(succ, version_edges):
        components: List[List[Any]] = []
    else:
        canonical: Dict[Any, int] = {INIT: 0}
        for value in canon:
            canonical.setdefault(value, len(canonical))
        us: List[int] = []
        vs: List[int] = []
        for v1, v2 in version_edges:
            us.append(canonical[v1])
            vs.append(canonical[v2])
        version_graph = CSRGraph.from_edge_log(us, vs, [1] * len(us))
        by_id = list(canonical)
        nodes = version_graph.nodes
        components = [
            [by_id[nodes[i]] for i in component]
            for component in version_graph.cyclic_scc_idx()
        ]
    cyclic = bool(components)
    if components:
        for component in components:
            involved = set()
            for value in component:
                wpos = fw_get(value)
                if wpos is not None:
                    involved.add(txn_ids[wpos])
                involved.update(readers.get(value, ()))
            anomalies.append(_cyclic_versions(key, component, involved))

    # ------------------------------------------------------------------
    # Transaction dependency edges.
    fragment: Dict[Tuple[int, int, int], Evidence] = {}

    # wr edges need no version order; they survive cyclic keys.
    for value, value_readers in readers.items():
        if value is INIT:
            continue
        wpos = fw_get(value)
        if wpos is None:
            continue
        writer_id = txn_ids[wpos]
        for reader_id in value_readers:
            if writer_id != reader_id:
                edge = (writer_id, reader_id, WR)
                if edge not in fragment:
                    fragment[edge] = Evidence(WR, key, value)
    if not cyclic:
        for (v1, v2), _sources_seen in version_edges.items():
            wpos2 = fw_get(v2)
            if wpos2 is None or not (txn_committed[wpos2] or v2 in observed):
                continue
            writer2_id = txn_ids[wpos2]
            if v1 is not INIT:
                wpos1 = fw_get(v1)
                if wpos1 is not None and (txn_committed[wpos1] or v1 in observed):
                    writer1_id = txn_ids[wpos1]
                    if writer1_id != writer2_id:
                        edge = (writer1_id, writer2_id, WW)
                        if edge not in fragment:
                            fragment[edge] = Evidence(WW, key, v2, v1)
            for reader_id in readers.get(v1, ()):
                if reader_id != writer2_id:
                    edge = (reader_id, writer2_id, RW)
                    if edge not in fragment:
                        fragment[edge] = Evidence(RW, key, v2, v1)

    # ------------------------------------------------------------------
    # Lost updates: two committed read-modify-writes off one version.
    rmw_writers: Dict[Any, List[Tuple[Any, int]]] = {}
    for (v1, v2), sources_seen in version_edges.items():
        if "write-follows-read" not in sources_seen:
            continue
        wpos = fw_get(v2)
        if wpos is not None and txn_committed[wpos]:
            rmw_writers.setdefault(v1, []).append((v2, wpos))
    for v1, writers in rmw_writers.items():
        distinct = {txn_ids[w]: (v2, w) for v2, w in writers}
        if len(distinct) >= 2:
            anomalies.append(_lost_update(key, v1, distinct))
    return anomalies, fragment


def use_reference(patch) -> None:
    """Make rw-register plans run :func:`analyze_key` on every key, in batch
    checks and streams alike."""
    use_walk(patch, RwRegisterPlan, analyze_key)
