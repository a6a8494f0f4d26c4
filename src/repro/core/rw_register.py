"""The read-write-register analyzer: partial version orders (§5.2, §7.4).

Blind register writes destroy history, so registers admit no total version
order.  But with unique written values (recoverability) and a handful of
independent assumptions, a useful *partial* order emerges:

* **initial-state** — ``nil`` is unreachable via writes, so ``nil`` precedes
  every written value.  (Reading ``nil`` proves a transaction serialized
  before every write of that key.)
* **write-follows-read** — within one committed transaction, a write landed
  on top of whatever the transaction last read or wrote of that key.
* **process** / **realtime** — if the database claims each key is
  sequentially consistent / linearizable (as Dgraph did), then a transaction
  that finished touching a key at version ``v1`` before another began
  touching it at ``v2`` orders ``v1`` before ``v2``.

Version-order cycles (e.g. Dgraph's ``w(540, 2)`` completing seconds before
a read of ``540 = nil``) contradict those assumptions; they are reported as
``cyclic-versions`` and the key's order is discarded, exactly as §7.4
describes — write-read dependencies for the key survive, since they need no
version order.

Transaction edges derive from the per-key version DAG:

* ``wr`` — writer of ``v`` -> committed reader of ``v``.
* ``ww`` — writer of ``v1`` -> writer of ``v2`` for version edge v1 -> v2.
* ``rw`` — committed reader of ``v1`` -> writer of ``v2`` likewise.

Version edges need not be *immediate* successions: a chain through
unobserved intermediate versions still orders the endpoint transactions, so
cycles remain sound (each inferred edge is implied by a path of true DSG
edges, and transitive rw edges preserve the anti-dependency count).

Writes participate only when provably committed — the writer returned ok, or
some committed read observed the value.  Lost updates surface when two
committed read-modify-write transactions hang off the same version.

The analysis runs as a keyspace-partitioned plan over the history's
single-pass :class:`~repro.history.index.HistoryIndex`: each key's version
DAG, read checks, and dependency edges derive from that key's
:class:`~repro.history.index.KeySlice` alone.  In particular the process /
realtime version-order sources read each key's *interacting* transactions
straight off the slice instead of rescanning every transaction once per key
— the historical O(keys × txns) hotspot is now O(ops) total.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from ..graph import CSRGraph, interval_precedence_pairs
from ..history import History
from ..history.index import check_unique_writes
from .analysis import Evidence
from .anomalies import (
    CYCLIC_VERSIONS,
    G1A,
    G1B,
    GARBAGE_READ,
    LOST_UPDATE,
    Anomaly,
)
from .deps import RW, WR, WW
from .keyspace import (
    Batch,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
)

#: Version-order inference sources enabled by default.  ``process`` and
#: ``realtime`` assume the database claims per-key sequential consistency /
#: linearizability; enable them explicitly (as §7.4 does for Dgraph).
DEFAULT_SOURCES = ("initial-state", "write-follows-read")

KNOWN_SOURCES = frozenset(
    {"initial-state", "write-follows-read", "process", "realtime"}
)

#: Marker for the initial version in version graphs (registers start nil).
INIT = None

#: Distinguishes "no pinned version yet" from a pinned ``None`` (= INIT).
_UNPINNED = object()


def _validate_sources(sources: Sequence[str]) -> None:
    unknown = set(sources) - KNOWN_SOURCES
    if unknown:
        raise ValueError(
            f"unknown version-order sources {sorted(unknown)}; "
            f"known: {sorted(KNOWN_SOURCES)}"
        )


# ---------------------------------------------------------------------------
# Anomaly phrasing (the shared checks in keyspace drive the logic)

def _garbage(reader, key, value, _elements):
    return Anomaly(
        name=GARBAGE_READ,
        txns=(reader.id,),
        message=(
            f"T{reader.id} read value {value!r} of key "
            f"{key!r}, which no observed transaction wrote"
        ),
        data={"key": key, "value": value},
    )


def _g1a(reader, key, value, writer):
    return Anomaly(
        name=G1A,
        txns=(reader.id, writer.id),
        message=(
            f"T{reader.id} read value {value!r} of key "
            f"{key!r}, written by aborted transaction "
            f"T{writer.id}"
        ),
        data={"key": key, "value": value},
    )


def _g1b(reader, key, value, final, _elements, writer):
    return Anomaly(
        name=G1B,
        txns=(reader.id, writer.id),
        message=(
            f"T{reader.id} read intermediate value "
            f"{value!r} of key {key!r}: "
            f"T{writer.id} later wrote {final!r}"
        ),
        data={"key": key, "value": value},
    )


@register_plan
class RwRegisterPlan(KeyspacePlan):
    """Per-key rw-register analysis over the shared history index."""

    workload = "rw-register"

    def __init__(
        self, history: History, sources: Sequence[str] = DEFAULT_SOURCES
    ) -> None:
        # Ahead of the base constructor: bad sources outrank workload errors.
        _validate_sources(sources)
        super().__init__(history, sources=tuple(sources))
        check_unique_writes(self.index, "rw-register")
        self._sources = frozenset(sources)
        self._keys = self.index.key_order
        self._style = ReadCheckStyle(
            garbage=_garbage,
            g1a=_g1a,
            g1b=_g1b,
            intermediate=True,
            intermediate_after_aborted=False,
        )

    # ------------------------------------------------------------------

    @staticmethod
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

    def analyze_key(self, key: Any) -> Batch:
        """One key's read checks, version DAG, and dependency edges.

        Runs over the slice's columnar arrays: writers are interned
        transaction positions (``first_writer``), transaction status comes
        from the index's flat columns, and the per-transaction version
        pins feeding the process/realtime sources are computed in one walk
        of the key's op stream instead of re-scanning each transaction's
        micro-ops per pair.  Reads pay for the element-by-element
        recoverability walk only when a three-comparison screen says they
        could witness garbage, G1a, or G1b.
        """
        index = self.index
        slice_ = index.slices[key]
        transactions = index.transactions
        txn_ids = index.txn_ids
        txn_committed = index.txn_committed
        txn_aborted = index.txn_aborted
        first_writer = slice_.first_writer
        fw_get = first_writer.get
        sources = self._sources
        anomalies: List[Anomaly] = []

        r_txn = slice_.r_txn
        r_val = slice_.r_val

        # Values proven committed by observation: read by a committed txn.
        observed: Set[Any] = {v for v in r_val if v is not None}

        # Final write per writer position (last write wins), for the G1b
        # screen: a committed read of a non-final write is intermediate.
        final_of: Dict[int, Any] = {}
        w_txn = slice_.w_txn
        w_val = slice_.w_val
        for i in range(len(w_txn)):
            final_of[w_txn[i]] = w_val[i]

        # --------------------------------------------------------------
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
            if (
                wpos < 0
                or txn_aborted[wpos]
                or (wpos != pos and final_of[wpos] != value)
            ):
                if obj_write_map is None:
                    obj_write_map = index.write_map(slice_)
                anomalies.extend(
                    check_recoverable_read(
                        transactions[pos], key, (value,), obj_write_map, self._style
                    )
                )
            if wpos >= 0:
                readers.setdefault(value, []).append(txn_ids[pos])

        # --------------------------------------------------------------
        # The per-key version DAG from each enabled source.  Adjacency is
        # tracked in a plain dict; the full graph machinery is only built
        # for the rare cyclic key (see below).
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
            "write-follows-read" in sources
            or "process" in sources
            or "realtime" in sources
        )
        if need_stream:
            # The committed micro-op stream, merged back into observation
            # order from the read/write substreams.
            st_txn, st_read, st_val = index.committed_stream(slice_)
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
                            add_version_edge(
                                current, value, "write-follows-read"
                            )
                        current = value
                    i += 1

        if "process" in sources or "realtime" in sources:
            # (first, last) version each transaction pinned the key to —
            # one pass over the op stream replaces the historical
            # per-pair re-scan of each transaction's micro-ops.
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
                grouped = index.interacting_positions_by_process(slice_)
                for positions in grouped.values():
                    order_source_edges(zip(positions, positions[1:]), "process")
            if "realtime" in sources:
                txn_invoke = index.txn_invoke
                txn_complete = index.txn_complete
                iv_pos = []
                iv_invoke = []
                iv_complete = []
                for pos in slice_.inter_txn:
                    complete = txn_complete[pos]
                    if complete >= 0:
                        iv_pos.append(pos)
                        iv_invoke.append(txn_invoke[pos])
                        iv_complete.append(complete)
                sources_arr, targets_arr = interval_precedence_pairs(
                    iv_pos, iv_invoke, iv_complete
                )
                order_source_edges(zip(sources_arr, targets_arr), "realtime")

        # --------------------------------------------------------------
        # Cyclic version orders: report and discard (§7.4).  A Kahn peel
        # over the plain adjacency proves the common case (acyclic)
        # cheaply; only a key that fails it pays for the CSR freeze and the
        # component search.  Versions mix types that cannot be sorted, so
        # they intern to ints in first-emission order; the canonical
        # component order over those ids is then first-emission order.
        if self._kahn_acyclic(succ, version_edges):
            components: List[List[Any]] = []
        else:
            values: Dict[Any, int] = {}
            us: List[int] = []
            vs: List[int] = []
            for v1, v2 in version_edges:
                us.append(values.setdefault(v1, len(values)))
                vs.append(values.setdefault(v2, len(values)))
            version_graph = CSRGraph.from_edge_log(us, vs, [1] * len(us))
            # Every interned id is an endpoint, so node ids are the ids.
            by_id = list(values)
            components = [
                [by_id[i] for i in component]
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
                implicated = sorted(involved)
                anomalies.append(
                    Anomaly(
                        name=CYCLIC_VERSIONS,
                        txns=tuple(implicated),
                        message=(
                            f"inferred version order for key {key!r} is cyclic "
                            f"over values {sorted(component, key=repr)}; the "
                            "order is discarded for dependency inference"
                        ),
                        data={"key": key, "values": tuple(component)},
                    )
                )

        # --------------------------------------------------------------
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
                if wpos2 is None or not (
                    txn_committed[wpos2] or v2 in observed
                ):
                    continue
                writer2_id = txn_ids[wpos2]
                if v1 is not INIT:
                    wpos1 = fw_get(v1)
                    if wpos1 is not None and (
                        txn_committed[wpos1] or v1 in observed
                    ):
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

        # --------------------------------------------------------------
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
                ids = tuple(sorted(distinct))
                values = sorted((v2 for v2, _w in distinct.values()), key=repr)
                anomalies.append(
                    Anomaly(
                        name=LOST_UPDATE,
                        txns=ids,
                        message=(
                            f"transactions {', '.join(f'T{i}' for i in ids)} "
                            f"each read version {v1!r} of key {key!r} and "
                            f"wrote {values}: all but one update was lost"
                        ),
                        data={"key": key, "base": v1, "values": tuple(values)},
                    )
                )
        return anomalies, fragment
