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

The analysis runs as a keyspace plan over the history's single-pass
:class:`~repro.history.index.HistoryIndex`, on one path: a vectorized pass
over the flat columns of a key list.  Every version of every key is an int
node of one version graph, each source emits its version edges as int
arrays over all the keys at once, and one strongly-connected-component
search flags every cyclic key.  As for every
:class:`~repro.core.keyspace.KeyspacePlan`, a batch check runs the pass
over every key and merges it whole; the streaming checker runs it over
the keys a chunk touched and splits the result into per-key batches,
which depend on their key alone.  The
pass groups each key's *interacting* transactions from its own slots
instead of rescanning every transaction once per key, so the process /
realtime sources cost O(ops) in total, not O(keys × txns).
"""

from __future__ import annotations

from itertools import repeat
from operator import is_
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..graph import CSRGraph, interval_precedence_pairs
from ..history import History
from ..history.index import RowView, check_unique_writes, take
from .analysis import ColumnEvidence, EdgeColumns
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
    Findings,
    KeyspacePlan,
    ReadCheckStyle,
    check_recoverable_read,
    register_plan,
)
from .profiling import stage

#: Version-order inference sources enabled by default.  ``process`` and
#: ``realtime`` assume the database claims per-key sequential consistency /
#: linearizability; enable them explicitly (as §7.4 does for Dgraph).
DEFAULT_SOURCES = ("initial-state", "write-follows-read")

KNOWN_SOURCES = frozenset(
    {"initial-state", "write-follows-read", "process", "realtime"}
)

#: Marker for the initial version in version graphs (registers start nil).
INIT = None


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


def _cyclic_versions(key, component, involved):
    return Anomaly(
        name=CYCLIC_VERSIONS,
        txns=tuple(sorted(involved)),
        message=(
            f"inferred version order for key {key!r} is cyclic "
            f"over values {sorted(component, key=repr)}; the "
            "order is discarded for dependency inference"
        ),
        data={"key": key, "values": tuple(component)},
    )


def _lost_update(key, base, distinct):
    """``distinct`` maps each writer id to ``(written value, position)``."""
    ids = tuple(sorted(distinct))
    values = sorted((v2 for v2, _w in distinct.values()), key=repr)
    return Anomaly(
        name=LOST_UPDATE,
        txns=ids,
        message=(
            f"transactions {', '.join(f'T{i}' for i in ids)} "
            f"each read version {base!r} of key {key!r} and "
            f"wrote {values}: all but one update was lost"
        ),
        data={"key": key, "base": base, "values": tuple(values)},
    )


#: Version-order source codes, in emission order within a key.
_INITIAL, _WFR, _PROCESS, _REALTIME = range(4)


class _Versions(NamedTuple):
    """Every version of every key as an int node.

    Nodes are numbered key by key, in canonical version order: the key's
    INIT, one id per write slot of the ``w_*`` columns (a written value's
    node is its first write slot's id), then the key's unwritten (garbage)
    read values in first-read order.
    """

    n: int
    key: np.ndarray  # node -> key index
    writer: np.ndarray  # node -> first writer's position (-1: INIT, garbage)
    slot: np.ndarray  # node -> first write slot (-1: INIT, garbage)
    garbage: Dict[int, Any]  # garbage node -> its value
    init: np.ndarray  # key index -> INIT node
    r_slot: np.ndarray  # read -> its value's first write slot (-1/-2: INIT/garbage)
    r_node: np.ndarray  # read -> node
    w_first: np.ndarray  # write slot -> its value's first write slot
    w_node: np.ndarray  # write slot -> node

    def value(self, node: int, w_val: List[Any]) -> Any:
        """The object that stands for a node's version (None for INIT)."""
        slot = self.slot[node]
        return w_val[slot] if slot >= 0 else self.garbage.get(node)


def _intern_versions(view: RowView) -> _Versions:
    """Resolve every read and write of the view to its version node."""
    nk = len(view.keys)
    rv = view.r_val
    wv = view.w_val
    n_w = len(wv)
    # Per key, ``view.first`` maps each written value to its first write
    # slot; a read of an unwritten value resolves to -2 (garbage), a read
    # of nil to -1 (INIT; registers never write nil).
    r_slot_l: List[int] = []
    r_bounds = view.r_indptr.tolist()
    for first, lo, hi in zip(view.first, r_bounds, r_bounds[1:]):
        r_slot_l.extend(map(first.get, rv[lo:hi], repeat(-2)))
    w_first = view.w_first
    r_slot = np.array(r_slot_l, dtype=np.int64)
    r_slot[np.fromiter(map(is_, rv, repeat(INIT)), bool, len(rv))] = -1

    # Garbage values number after the key's write slots, in first-read order.
    r_key = view.r_key
    garbage_reads = (r_slot == -2).nonzero()[0]
    garbage: Dict[Tuple[int, Any], int] = {}
    g_count = [0] * nk
    g_local = []
    for i, k in zip(garbage_reads.tolist(), r_key[garbage_reads].tolist()):
        j = garbage.setdefault((k, rv[i]), g_count[k])
        if j == g_count[k]:
            g_count[k] += 1
        g_local.append(j)

    w_count = np.diff(view.w_indptr)
    node_indptr = np.zeros(nk + 1, dtype=np.int64)
    np.cumsum(1 + w_count + np.asarray(g_count, dtype=np.int64), out=node_indptr[1:])
    n = int(node_indptr[-1])
    init = node_indptr[:-1]
    w_key = view.w_key
    slot_node = np.arange(n_w, dtype=np.int64) + (init + 1 - view.w_indptr[:-1])[w_key]
    # Reads without a writer select the padding entry past the last slot.
    r_node = np.where(
        r_slot >= 0,
        np.append(slot_node, 0)[np.where(r_slot >= 0, r_slot, n_w)],
        init[r_key],
    )
    garbage_node: Dict[int, Any] = {}
    if len(garbage_reads):
        g_key = r_key[garbage_reads]
        r_node[garbage_reads] = (
            init[g_key] + 1 + w_count[g_key] + np.asarray(g_local, dtype=np.int64)
        )
        for (k, value), j in garbage.items():
            garbage_node[int(init[k] + 1 + w_count[k] + j)] = value
    firsts = (w_first == np.arange(n_w)).nonzero()[0]
    writer = np.full(n, -1, dtype=np.int64)
    writer[slot_node[firsts]] = view.w_txn[firsts]
    slot = np.full(n, -1, dtype=np.int64)
    slot[slot_node[firsts]] = firsts
    return _Versions(
        n=n,
        key=np.repeat(np.arange(nk, dtype=np.int64), np.diff(node_indptr)),
        writer=writer,
        slot=slot,
        garbage=garbage_node,
        init=init,
        r_slot=r_slot,
        r_node=r_node,
        w_first=w_first,
        w_node=slot_node[w_first],
    )


@register_plan
class RwRegisterPlan(KeyspacePlan):
    """rw-register analysis over the shared history index."""

    workload = "rw-register"
    key_rank = "key_first"

    def __init__(
        self, history: History, sources: Sequence[str] = DEFAULT_SOURCES
    ) -> None:
        # Ahead of the base constructor: bad sources outrank workload errors.
        _validate_sources(sources)
        super().__init__(history)
        self._sources = frozenset(sources)
        self._keys = self.index.key_order
        check_unique_writes(self.index, "rw-register", self._keys)
        self._style = ReadCheckStyle(
            garbage=_garbage,
            g1a=_g1a,
            g1b=_g1b,
            intermediate=True,
            intermediate_after_aborted=False,
        )

    # ------------------------------------------------------------------
    # The version-graph pass

    def _pass(self, keys: Sequence[Any], profile=None) -> Findings:
        """Analyze ``keys`` in one vectorized pass over one version graph.

        Every version of every key becomes an int node (:class:`_Versions`:
        the key's INIT, each written value's first write slot in the
        ``w_*`` columns, each unwritten read value), and committed reads
        resolve to their nodes in one ``(key, value)`` lookup pass.  Each
        enabled source emits its version edges as int arrays over all the
        keys (:meth:`_version_edges`), and one SCC search over the version
        graph flags every cyclic key: those keys report their
        ``cyclic-versions`` components and keep only their wr edges
        (§7.4).  ww/wr/rw edges come from gathers and a readers-per-version
        join; lost updates group the write-follows-read edges by base
        version.  A read the three-comparison screen flags runs
        :func:`check_recoverable_read` for that read alone.  Transaction
        status is read at the keys' own rows (:func:`take`), never over
        the whole history.
        """
        index = self.index
        transactions = index.transactions
        txn_ids = index.txn_ids
        view = index.view(keys)
        keys = view.keys

        with stage(profile, "analyze/columnar-screen"):
            nk = len(keys)
            n_r = len(view.r_val)
            r_txn = view.r_txn
            r_key = view.r_key
            versions = _intern_versions(view)
            r_slot = versions.r_slot
            r_node = versions.r_node
            has_writer = r_slot >= 0
            # A written version is committed when its first writer is, and
            # live when it is committed or a committed read observed it.
            w_committed = take(index.txn_committed, view.w_txn) != 0
            written = (versions.slot >= 0).nonzero()[0]
            committed = np.zeros(versions.n, dtype=bool)
            committed[written] = w_committed[versions.slot[written]]
            live = committed.copy()
            live[r_node[has_writer]] = True

            # The read screen: garbage, an aborted writer, or another
            # transaction's non-final write.  Slot gathers go through one
            # padding entry, which reads without a writer select.
            wslot = np.where(has_writer, r_slot, len(view.w_val))
            r_writer = np.append(view.w_txn, -1)[wslot]
            finals = view.w_final.nonzero()[0]
            final_slot = np.append(versions.w_first[finals], -3)[
                np.searchsorted(finals, wslot)
            ]
            intermediate = (r_writer != r_txn) & (final_slot != r_slot)
            aborted = take(index.txn_aborted, np.maximum(r_writer, 0)) != 0
            screen = (r_slot == -2) | (has_writer & (aborted | intermediate))
            flagged = screen.nonzero()[0]

            # Readers per version: committed reads of INIT or of a written
            # value, grouped by node in read order.
            readable = (r_slot != -2).nonzero()[0]
            by_node = readable[np.argsort(r_node[readable], kind="stable")]
            rd_indptr = np.zeros(versions.n + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(r_node[readable], minlength=versions.n),
                out=rd_indptr[1:],
            )
            rd_txn = r_txn[by_node]

            ve_v1, ve_v2, ve_rank, ve_wfr = self._version_edges(
                view, versions, w_committed, live
            )

            # One SCC search flags every cyclic key.  Node ids ascend key
            # by key in canonical version order, so each component lists
            # its versions in that order.  A cycle stays inside its key
            # and takes at least one edge against node order, so the
            # search covers only the keys with such an edge.
            components = []
            back = ve_v1 > ve_v2
            if back.any():
                suspect = np.zeros(nk, dtype=bool)
                suspect[versions.key[ve_v1[back]]] = True
                search = suspect[versions.key[ve_v1]].nonzero()[0]
                version_graph = CSRGraph.from_edge_log(
                    ve_v1[search], ve_v2[search], np.ones(len(search), dtype=np.int64)
                )
                components = [
                    version_graph.to_nodes(c) for c in version_graph.cyclic_scc_idx()
                ]
            cyclic_keys = [int(versions.key[c[0]]) for c in components]
            cyclic = np.zeros(nk, dtype=bool)
            cyclic[np.asarray(cyclic_keys, dtype=np.int64)] = True

            # wr: the writer of each read version -> its committed reader;
            # these need no version order and survive cyclic keys.
            wr = (has_writer & (r_writer != r_txn)).nonzero()[0]
            # ww / rw along the version edges of acyclic keys whose later
            # version is live.
            w1 = versions.writer[ve_v1]
            w2 = versions.writer[ve_v2]
            ok = live[ve_v2] & ~cyclic[versions.key[ve_v2]]
            ww = (ok & live[ve_v1] & (w1 != w2)).nonzero()[0]
            # rw joins each edge with the readers of its earlier version.
            e = ok.nonzero()[0]
            lo = rd_indptr[ve_v1[e]]
            count = rd_indptr[ve_v1[e] + 1] - lo
            rw = np.repeat(e, count)
            rw_u = rd_txn[
                np.arange(len(rw), dtype=np.int64)
                + np.repeat(lo - (np.cumsum(count) - count), count)
            ]
            keep = rw_u != w2[rw]
            rw = rw[keep]
            rw_u = rw_u[keep]

            # Evidence ranks: wr in the key's readers-per-version order
            # (the version's first read, then the read), ww/rw in
            # version-edge order; each is key-major.  A key's fragment
            # holds its wr records, then ww, then rw: the later bits'
            # ranks start past the earlier bits'.  Records name a
            # version by its first write slot; INIT names the None past
            # the last slot.
            has_readers = np.diff(rd_indptr) > 0
            first_read = np.zeros(versions.n, dtype=np.int64)
            first_read[has_readers] = by_node[rd_indptr[:-1][has_readers]]
            wr_rank = first_read[r_node[wr]] * n_r + wr
            ww_base = n_r * n_r
            rw_base = ww_base + int(ve_rank.max()) + 1 if len(ve_rank) else ww_base
            slot = np.where(versions.slot >= 0, versions.slot, len(view.w_val))
            columns = (
                EdgeColumns(
                    WR,
                    r_writer[wr],
                    r_txn[wr],
                    r_slot[wr],
                    None,
                    None,
                    wr_rank,
                ),
                EdgeColumns(
                    WW,
                    w1[ww],
                    w2[ww],
                    slot[ve_v2[ww]],
                    slot[ve_v1[ww]],
                    None,
                    ve_rank[ww] + ww_base,
                ),
                EdgeColumns(
                    RW,
                    rw_u,
                    w2[rw],
                    slot[ve_v2[rw]],
                    slot[ve_v1[rw]],
                    None,
                    ve_rank[rw] + rw_base,
                ),
            )

            # Lost updates: base versions with write-follows-read edges to
            # two or more committed writers, each in the order its first
            # edge was emitted.
            lu = (ve_wfr & committed[ve_v2]).nonzero()[0]
            lost = []
            if len(lu) > 1:
                lu = lu[np.lexsort((w2[lu], ve_v1[lu]))]
                base = ve_v1[lu]
                new_base = np.ones(len(lu), dtype=bool)
                new_base[1:] = base[1:] != base[:-1]
                new_writer = new_base.astype(np.int64)
                new_writer[1:] |= w2[lu[1:]] != w2[lu[:-1]]
                starts = new_base.nonzero()[0]
                writers = np.add.reduceat(new_writer, starts)
                ends = np.append(starts[1:], len(lu))[: len(starts)]
                two = writers >= 2
                lost = [lu[a:b] for a, b in zip(starts[two], ends[two])]
                lost.sort(key=lambda edges: int(ve_rank[edges].min()))

        flagged_l = flagged.tolist()
        if profile is not None:
            fallback = set(r_key[flagged].tolist())
            fallback.update(cyclic_keys)
            profile.count("keyspace.columnar_keys", nk - len(fallback))
            profile.count("keyspace.fallback_keys", len(fallback))
            profile.count("keyspace.survivor_reads", len(flagged_l))

        with stage(profile, "analyze/fallback"):
            anomalies: List[Anomaly] = []
            anomaly_keys: List[int] = []
            rv = view.r_val
            wv = view.w_val
            for i, k in zip(flagged_l, r_key[flagged].tolist()):
                value = rv[i]
                writer = r_writer[i]
                write_map = {value: transactions[writer]} if writer >= 0 else {}
                reader = transactions[r_txn[i]]
                found = check_recoverable_read(
                    reader, keys[k], (value,), write_map, self._style
                )
                anomalies.extend(found)
                anomaly_keys.extend([k] * len(found))
            for component, k in zip(components, cyclic_keys):
                involved = set()
                for node in component:
                    if versions.writer[node] >= 0:
                        involved.add(txn_ids[versions.writer[node]])
                    readers = rd_txn[rd_indptr[node] : rd_indptr[node + 1]]
                    involved.update(map(txn_ids.__getitem__, readers.tolist()))
                component_values = [versions.value(node, wv) for node in component]
                anomalies.append(_cyclic_versions(keys[k], component_values, involved))
                anomaly_keys.append(k)
            for edges in lost:
                edges = edges[np.argsort(ve_rank[edges])]
                v1 = ve_v1[edges[0]]
                distinct = {
                    txn_ids[w]: (versions.value(v2, wv), w)
                    for v2, w in zip(ve_v2[edges].tolist(), w2[edges].tolist())
                }
                k = int(versions.key[v1])
                anomalies.append(
                    _lost_update(keys[k], versions.value(v1, wv), distinct)
                )
                anomaly_keys.append(k)
        evidence = ColumnEvidence.of(
            columns, txn_ids, keys, lambda: wv + [None], view.w_key
        )
        return Findings(anomalies, anomaly_keys, evidence)

    def _version_edges(
        self,
        view: RowView,
        versions: _Versions,
        w_committed: np.ndarray,
        live: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every enabled source's version edges over the columns' keys.

        ``w_committed`` flags the write slots of committed transactions,
        ``live`` the committed or observed written versions.  Returns the
        distinct ``(v1, v2)`` node pairs with the rank of each pair's
        first emission in emission order (key, then source, then the
        source's own order) and whether write-follows-read emitted it.
        Each source's block comes out key-major, so one stable sort by key
        of the concatenation restores emission order.
        """
        sources = self._sources
        index = self.index
        w_txn = view.w_txn
        w_key = view.w_key
        r_key = view.r_key
        blocks = []
        if "initial-state" in sources:
            # INIT precedes every live written version.
            nodes = live.nonzero()[0]
            blocks.append((_INITIAL, versions.init[versions.key[nodes]], nodes))
        if sources & {"write-follows-read", "process", "realtime"}:
            # The committed stream: every committed read plus every
            # committed transaction's writes, in (key, txn, mop) order.
            # Both substreams are in that order already, so a stable sort
            # of one combined code merges them.  (The code is below keys x
            # transactions x micro-ops per transaction: far inside int64
            # for any history that fits in memory.)
            cw = w_committed.nonzero()[0]
            st_key = np.concatenate((r_key, w_key[cw]))
            st_pos = np.concatenate((view.r_txn, w_txn[cw]))
            st_seq = np.concatenate((view.r_seq, view.w_seq[cw]))
            width = int(st_seq.max()) + 1 if len(st_seq) else 1
            order = np.argsort(
                (st_key * len(index.txn_ids) + st_pos) * width + st_seq,
                kind="stable",
            )
            st_key = st_key[order]
            st_pos = st_pos[order]
            st_node = np.concatenate((versions.r_node, versions.w_node[cw]))[order]
            n_st = len(order)
            same = np.zeros(n_st, dtype=bool)
            same[1:] = (st_key[1:] == st_key[:-1]) & (st_pos[1:] == st_pos[:-1])
        if "write-follows-read" in sources:
            # A write lands on whatever its transaction last read or wrote.
            i = (same & (order >= len(view.r_txn))).nonzero()[0]
            blocks.append((_WFR, st_node[i - 1], st_node[i]))
        if sources & {"process", "realtime"}:
            # One group per (key, interacting transaction), pinned to the
            # first and last version it touched.
            g_start = (~same).nonzero()[0]
            g_key = st_key[g_start]
            g_pos = st_pos[g_start]
            g_first = st_node[g_start]
            g_last = st_node[np.append(g_start[1:], n_st)[: len(g_start)] - 1]
        if "process" in sources:
            g_proc = take(index.txn_process, g_pos)
            by_proc = np.lexsort((g_proc, g_key))
            run = (g_key[by_proc[1:]] == g_key[by_proc[:-1]]) & (
                g_proc[by_proc[1:]] == g_proc[by_proc[:-1]]
            )
            # Processes in order of first appearance in the key, then
            # their consecutive pairs: sort pairs by their run's first
            # (lowest) group.
            run_start = np.ones(len(by_proc), dtype=bool)
            run_start[1:] = ~run
            run_first = by_proc[
                np.maximum.accumulate(np.where(run_start, np.arange(len(by_proc)), 0))
            ]
            emit = np.argsort(run_first[1:][run], kind="stable")
            p1 = by_proc[:-1][run][emit]
            p2 = by_proc[1:][run][emit]
            blocks.append((_PROCESS, g_last[p1], g_first[p2]))
        if "realtime" in sources:
            g_complete = take(index.txn_complete, g_pos)
            g_invoke = take(index.txn_invoke, g_pos)
            spans = (g_complete >= 0).nonzero()[0]
            if len(spans):
                # Shifting each key's times past the previous key's keeps
                # every key's reduction intact: the only extra pairs cross
                # keys, and are dropped.
                lo = int(g_invoke[spans].min())
                shift = g_key[spans] * (int(g_complete[spans].max()) - lo + 2) - lo
                src, dst = interval_precedence_pairs(
                    spans, g_invoke[spans] + shift, g_complete[spans] + shift
                )
                src = np.asarray(src, dtype=np.int64)
                dst = np.asarray(dst, dtype=np.int64)
                keep = g_key[src] == g_key[dst]
                blocks.append((_REALTIME, g_last[src[keep]], g_first[dst[keep]]))

        empty = np.empty(0, dtype=np.int64)
        src_code = np.repeat(
            np.array([b[0] for b in blocks], dtype=np.int64),
            [len(b[1]) for b in blocks],
        )
        v1 = np.concatenate([b[1] for b in blocks] + [empty])
        v2 = np.concatenate([b[2] for b in blocks] + [empty])
        # Emission order, self loops dropped; np.unique's stable sort
        # keeps each pair's first emission.
        emit = np.argsort(versions.key[v1], kind="stable")
        emit = emit[v1[emit] != v2[emit]]
        n = versions.n
        pairs, rank, inverse = np.unique(
            v1[emit] * n + v2[emit], return_index=True, return_inverse=True
        )
        wfr = np.zeros(len(pairs), dtype=bool)
        wfr[inverse[src_code[emit] == _WFR]] = True
        return pairs // n, pairs % n, rank, wfr
