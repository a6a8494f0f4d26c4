"""Dense integer-indexed CSR (compressed sparse row) graph core.

Analyzers *build* the dependency graph as an append-only edge log
(:class:`~repro.graph.edgelog.EdgeLogGraph`); the cycle search *reads* it.
At Elle's target scale (§7.5: hundreds of thousands of transactions) the
search runs many Tarjan and BFS passes over the same topology, so the log
is frozen once into flat arrays:

* ``nodes[i]`` — the original node for integer id ``i``: the distinct
  transaction ids in ascending order;
* ``indptr`` / ``indices`` / ``labels`` — classic CSR: the out-edges of
  node ``i`` are ``indices[indptr[i]:indptr[i + 1]]`` with bitmask labels
  ``labels[indptr[i]:indptr[i + 1]]``, ascending by target.

The snapshot depends on the labelled edge set alone, never on the order
in which analyzers emitted the edges, so every traversal — and every
cycle witness — is a function of the graph itself.

All algorithms here work in the integer domain and take an edge *mask*: an
edge participates iff ``label & mask`` is non-zero.  Restricted variants
additionally take ``members`` (ascending ids), confining the traversal to
the subgraph those nodes induce — which is how the cycle search confines
narrower passes to the strongly connected components found under wider
masks.

Cyclic components come out in one canonical order — members ascending,
components by smallest member — that depends only on the component sets.
That lets two engines answer the same query: scipy labels the strongly
connected components of a large graph in C, and the Python Tarjan serves
small graphs and restricted queries, each returning identical lists.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Mask that admits every edge regardless of label.
ALL_EDGES = -1

#: Unrestricted cyclic-SCC queries on graphs with at least this many edges
#: go to scipy's C labelling; smaller graphs stay on the Python Tarjan.
#: scipy pays ~0.1 ms per call (sparse-matrix validation, label grouping);
#: Tarjan pays ~0.2 µs per edge.  Measured on a 2-vCPU x86 host (numpy 2.4,
#: scipy 1.17) over sparse dependency-shaped graphs: they break even
#: between 1k and 2k edges; at 8192 edges Tarjan takes 1.4 ms against
#: scipy's 0.4 ms; at 335k edges (a
#: register-stale dependency graph) ~90 ms against ~13 ms.  rw-register's
#: global version graph goes to scipy; the per-key path's version graphs
#: (tens of edges) stay on Tarjan.
_FAST_SCC_MIN_EDGES = 8192


class CSRGraph:
    """An immutable CSR snapshot of a labeled digraph.

    Build via :meth:`from_edge_log` (or ``EdgeLogGraph.freeze()``, which
    caches the snapshot until the next append).  Node-domain helpers
    (``edge_label``, ``__contains__``) serve read-only code paths.
    """

    __slots__ = ("_nodes", "_nodes_np", "_index_of", "_indptr", "_indices",
                 "_labels", "_n", "_e", "label_union", "_np_arrays")

    def __init__(
        self,
        nodes: Sequence,
        indptr: Sequence[int],
        indices: Sequence[int],
        labels: Sequence[int],
    ) -> None:
        """Wrap CSR arrays; Python lists materialize lazily.

        On a clean history scipy's component labelling answers the whole
        cycle search from the numpy arrays, so the (costly) int-list
        conversions never happen unless a Python traversal — Tarjan, BFS,
        node-domain queries — actually needs them.
        """
        labels_np = np.asarray(labels, dtype=np.int64)
        indices_np = np.asarray(indices, dtype=np.int64)
        self._nodes = None
        self._nodes_np = np.asarray(nodes)
        self._index_of = None
        self._indptr = None
        self._indices = None
        self._labels = None
        self._n = len(self._nodes_np)
        self._e = len(indices_np)
        self.label_union = int(np.bitwise_or.reduce(labels_np))
        self._np_arrays = (
            np.asarray(indptr, dtype=np.int64),
            indices_np,
            labels_np,
        )

    @property
    def nodes(self) -> List:
        """Interned nodes, id order (materialized lazily)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self._nodes_np.tolist()
        return nodes

    @property
    def indptr(self) -> List[int]:
        indptr = self._indptr
        if indptr is None:
            indptr = self._indptr = self._np_arrays[0].tolist()
        return indptr

    @property
    def indices(self) -> List[int]:
        indices = self._indices
        if indices is None:
            indices = self._indices = self._np_arrays[1].tolist()
        return indices

    @property
    def labels(self) -> List[int]:
        labels = self._labels
        if labels is None:
            labels = self._labels = self._np_arrays[2].tolist()
        return labels

    @property
    def index_of(self) -> Dict:
        """Node -> integer id; built lazily (bulk builds skip it entirely)."""
        index_of = self._index_of
        if index_of is None:
            index_of = self._index_of = {
                node: i for i, node in enumerate(self.nodes)
            }
        return index_of

    @classmethod
    def from_edge_log(
        cls,
        us: Sequence[int],
        vs: Sequence[int],
        labels: Sequence[int],
    ) -> "CSRGraph":
        """Build the canonical snapshot of a flat edge log.

        The log lists every edge *emission* — the same ``(u, v, label)``
        triple may repeat, and labels for one ``(u, v)`` pair OR together.
        Nodes are the distinct endpoints in ascending order, and each
        row's successors ascend by target, so the snapshot is a function
        of the labelled edge set alone: any permutation or split of the
        log freezes to the same arrays.

        The build is one unstable sort of ``(u, v)`` pair codes plus an
        OR-reduce of their labels.
        """
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        lab = np.asarray(labels, dtype=np.int64)
        e = len(u)
        if e == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, np.zeros(1, dtype=np.int64), empty, empty)
        lo = min(int(u.min()), int(v.min()))
        hi = max(int(u.max()), int(v.max()))
        if lo >= 0 and hi < 8 * e + 1024:
            # Dense node domain (transaction ids): a presence table
            # replaces the O(n log n) sort inside np.unique.
            present = np.zeros(hi + 1, dtype=bool)
            present[u] = True
            present[v] = True
            nodes = np.flatnonzero(present)
            rank = np.cumsum(present) - 1
            uid = rank[u]
            vid = rank[v]
        else:
            nodes, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
            uid = inverse[:e]
            vid = inverse[e:]
        n = len(nodes)
        # Sorting the pair codes groups each (u, v) pair's emissions and
        # orders the groups by source, then target: the CSR row order.
        pair = uid * n + vid
        order = np.argsort(pair)
        sorted_pair = pair[order]
        starts_mask = np.empty(e, dtype=bool)
        starts_mask[0] = True
        np.not_equal(sorted_pair[1:], sorted_pair[:-1], out=starts_mask[1:])
        starts = np.flatnonzero(starts_mask)
        pairs = sorted_pair[starts]
        labels_np = np.bitwise_or.reduceat(lab[order], starts)
        src = pairs // n
        indptr_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr_np[1:])
        return cls(nodes, indptr_np, pairs - src * n, labels_np)

    # ------------------------------------------------------------------
    # Node-domain queries

    @property
    def n(self) -> int:
        return self._n

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return self._e

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node) -> bool:
        return node in self.index_of

    def edge_label(self, u, v) -> int:
        """The bitmask on edge ``u -> v`` (node domain), or 0 if absent."""
        ui = self.index_of.get(u)
        vi = self.index_of.get(v)
        if ui is None or vi is None:
            return 0
        return self.edge_label_idx(ui, vi)

    def has_edge(self, u, v, mask: int = ALL_EDGES) -> bool:
        return bool(self.edge_label(u, v) & mask)

    # ------------------------------------------------------------------
    # Integer-domain primitives

    def edge_label_idx(self, u: int, v: int) -> int:
        """The bitmask on edge ``u -> v`` (integer domain), or 0 if absent."""
        indices = self.indices
        for pos in range(self.indptr[u], self.indptr[u + 1]):
            if indices[pos] == v:
                return self.labels[pos]
        return 0

    def allowed_table(self, members: Iterable[int]) -> bytearray:
        """A byte table with ``table[i] = 1`` for each member index."""
        table = bytearray(self._n)
        for i in members:
            table[i] = 1
        return table

    # ------------------------------------------------------------------
    # Tarjan strongly connected components

    def scc_idx(
        self,
        mask: int = ALL_EDGES,
        members: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """Tarjan SCCs over integer ids, unrolled to an explicit stack.

        ``members`` restricts the traversal to a node subset and is also
        the DFS root order (default: every node in id order).  With
        the default the visit order — hence component order *and* member
        order — is that of the textbook recursive Tarjan over CSR rows.
        Components come out in reverse topological order of the
        condensation.
        """
        indptr = self.indptr
        indices = self.indices
        labels = self.labels
        n = self._n
        index_of = [-1] * n
        lowlink = [0] * n
        on_stack = bytearray(n)
        stack: List[int] = []
        components: List[List[int]] = []
        counter = 0
        if members is None:
            roots: Iterable[int] = range(n)
            allowed = None
        else:
            roots = members
            allowed = self.allowed_table(members)
        # Parallel work stacks: the node under visit and its resume position
        # in the CSR row (cheaper than tuples or saved iterators).
        work_node: List[int] = []
        work_pos: List[int] = []
        for root in roots:
            if index_of[root] != -1:
                continue
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            work_node.append(root)
            work_pos.append(indptr[root])
            while work_node:
                node = work_node[-1]
                pos = work_pos[-1]
                end = indptr[node + 1]
                advanced = False
                node_low = lowlink[node]
                while pos < end:
                    if labels[pos] & mask:
                        child = indices[pos]
                        if allowed is None or allowed[child]:
                            child_index = index_of[child]
                            if child_index == -1:
                                work_pos[-1] = pos + 1
                                index_of[child] = lowlink[child] = counter
                                counter += 1
                                stack.append(child)
                                on_stack[child] = 1
                                work_node.append(child)
                                work_pos.append(indptr[child])
                                advanced = True
                                break
                            if on_stack[child] and child_index < node_low:
                                node_low = child_index
                    pos += 1
                if advanced:
                    lowlink[node] = node_low
                    continue
                lowlink[node] = node_low
                work_node.pop()
                work_pos.pop()
                if work_node:
                    parent = work_node[-1]
                    if node_low < lowlink[parent]:
                        lowlink[parent] = node_low
                if node_low == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        return components

    def cyclic_scc_idx(
        self,
        mask: int = ALL_EDGES,
        members: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """SCCs that can contain a cycle: size > 1, or a self-looping node.

        Each component is an ascending list of ids, and components are
        ordered by their smallest id.  ``members`` (ascending ids) confines
        the query to the subgraph they induce.  Unrestricted queries on
        graphs of at least ``_FAST_SCC_MIN_EDGES`` edges are answered by
        scipy's C labelling; the rest by the Python Tarjan.  Both engines
        return identical lists.
        """
        if members is None and self._e >= _FAST_SCC_MIN_EDGES:
            return self._cyclic_scipy(mask)
        return self._cyclic_tarjan(mask, members)

    def _cyclic_tarjan(
        self, mask: int, members: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """:meth:`cyclic_scc_idx` by the Python Tarjan, sorted."""
        indptr = self.indptr
        indices = self.indices
        cyclic = []
        for component in self.scc_idx(mask, members):
            if len(component) > 1:
                component.sort()
                cyclic.append(component)
                continue
            node = component[0]
            # C-level membership test first: most rows hold no self-loop.
            if node in indices[indptr[node]:indptr[node + 1]]:
                if self.edge_label_idx(node, node) & mask:
                    cyclic.append(component)
        cyclic.sort(key=itemgetter(0))
        return cyclic

    def _cyclic_scipy(self, mask: int) -> List[List[int]]:
        """:meth:`cyclic_scc_idx` by scipy's strong-component labelling."""
        # Lazy: ``import repro`` stays free of scipy's import cost.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        indptr, indices, labels = self._np_arrays
        n = self._n
        if mask & self.label_union != self.label_union:
            # Drop the edges the mask hides: each row's new start is the
            # number of kept edges before its old start.
            keep = (labels & mask) != 0
            kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            indptr = kept_before[indptr]
            indices = indices[keep]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        looped = rows[rows == indices]
        count, component_of = connected_components(
            csr_matrix(
                (np.ones(len(indices), dtype=np.int8), indices, indptr),
                shape=(n, n),
            ),
            directed=True,
            connection="strong",
        )
        cyclic = np.bincount(component_of, minlength=count) > 1
        cyclic[component_of[looped]] = True
        nodes = np.flatnonzero(cyclic[component_of])  # ascending
        if not len(nodes):
            return []
        # Group by label (stable: each group stays ascending), then order
        # the groups by their smallest member.
        of_node = component_of[nodes]
        order = np.argsort(of_node, kind="stable")
        breaks = np.flatnonzero(np.diff(of_node[order])) + 1
        components = [part.tolist() for part in np.split(nodes[order], breaks)]
        components.sort(key=itemgetter(0))
        return components

    # ------------------------------------------------------------------
    # Breadth-first cycle searches

    def shortest_path_idx(
        self,
        source: int,
        target: int,
        mask: int = ALL_EDGES,
        allowed: Optional[bytearray] = None,
    ) -> Optional[List[int]]:
        """BFS shortest path ``source -> ... -> target`` under ``mask``.

        Successors are scanned in CSR row order (ascending target id in a
        :meth:`from_edge_log` snapshot), so ties break deterministically.  When ``source == target`` the path
        must leave the node and return: the target test happens on edge
        traversal, not on dequeue.
        """
        indptr = self.indptr
        indices = self.indices
        labels = self.labels
        parent: Dict[int, int] = {}
        queue = deque((source,))
        seen = {source}
        seen_add = seen.add
        append = queue.append
        while queue:
            node = queue.popleft()
            for pos in range(indptr[node], indptr[node + 1]):
                if not labels[pos] & mask:
                    continue
                succ = indices[pos]
                if allowed is not None and not allowed[succ]:
                    continue
                if succ == target:
                    path = [target, node]
                    while node != source:
                        node = parent[node]
                        path.append(node)
                    path.reverse()
                    return path
                if succ not in seen:
                    seen_add(succ)
                    parent[succ] = node
                    append(succ)
        return None

    def shortest_cycle_idx(
        self,
        component: Sequence[int],
        mask: int = ALL_EDGES,
        allowed: Optional[bytearray] = None,
    ) -> Optional[List[int]]:
        """The shortest cycle through any member of ``component``.

        ``allowed`` must contain (at least) the component members; when
        omitted a table is built from the component.  Members are scanned in
        the order given, keeping the shortest cycle found; a 2-cycle or
        self-loop stops the scan early since nothing shorter exists.
        """
        if allowed is None:
            allowed = self.allowed_table(component)
        best: Optional[List[int]] = None
        for node in component:
            path = self.shortest_path_idx(node, node, mask, allowed)
            if path is None:
                continue
            if best is None or len(path) < len(best):
                best = path
                if len(best) <= 3:  # self-loop or 2-cycle: minimal possible
                    break
        return best

    def first_edge_cycle_idx(
        self,
        component: Sequence[int],
        first_mask: int,
        rest_mask: int,
        allowed: Optional[bytearray] = None,
    ) -> Optional[List[int]]:
        """A cycle taking exactly one ``first_mask`` edge, then ``rest_mask``.

        For each member ``u`` (in order) and each out-edge ``u -> v``
        matching ``first_mask`` inside the component (CSR row order), BFS
        searches ``v -> u`` using only ``rest_mask`` edges.  When
        ``rest_mask`` excludes the ``first_mask`` bits the result contains
        exactly one first-mask edge — the G-single property.
        """
        if allowed is None:
            allowed = self.allowed_table(component)
        indptr = self.indptr
        indices = self.indices
        labels = self.labels
        for u in component:
            for pos in range(indptr[u], indptr[u + 1]):
                if not labels[pos] & first_mask:
                    continue
                v = indices[pos]
                if not allowed[v]:
                    continue
                if v == u:
                    # Self-loop on the first edge alone forms the cycle.
                    return [u, u]
                path = self.shortest_path_idx(v, u, rest_mask, allowed)
                if path is not None:
                    return [u] + path
        return None

    # ------------------------------------------------------------------

    def to_nodes(self, idx_seq: Sequence[int]) -> List:
        """Map a sequence of integer ids back to their original nodes."""
        nodes = self.nodes
        return [nodes[i] for i in idx_seq]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(nodes={len(self.nodes)}, edges={len(self.indices)})"
