"""Dense integer-indexed CSR (compressed sparse row) graph core.

:class:`~repro.graph.digraph.LabeledDiGraph` is the right structure for
*building* dependency graphs — analyzers discover edges in arbitrary order
and OR labels together — but a terrible one for *searching* them: every edge
probe hashes an arbitrary node, and every traversal walks dict views.  At
Elle's target scale (§7.5: hundreds of thousands of transactions) the cycle
search runs many Tarjan and BFS passes over the same frozen topology, so
the graph is snapshotted once into flat arrays:

* ``nodes[i]`` — the original node for integer id ``i`` (interning order is
  the digraph's insertion order, keeping traversals deterministic and
  byte-identical to the dict-based implementation they replaced);
* ``indptr`` / ``indices`` / ``labels`` — classic CSR: the out-edges of
  node ``i`` are ``indices[indptr[i]:indptr[i + 1]]`` with bitmask labels
  ``labels[indptr[i]:indptr[i + 1]]``, in successor insertion order.

All algorithms here work in the integer domain and take an edge *mask*: an
edge participates iff ``label & mask`` is non-zero.  Restricted variants
additionally take an ``allowed`` byte table (``allowed[i]`` truthy means
node ``i`` is in play), which is how the cycle search confines narrower
passes to the strongly connected components found under wider masks.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

try:  # Optional acceleration; every path below has a pure-Python twin.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the _force flags
    _np = None

#: Mask that admits every edge regardless of label.
ALL_EDGES = -1

#: Below this edge count the pure-Python edge-log build wins (numpy's
#: per-call overhead dominates tiny graphs).  Both builds are byte-identical,
#: so the threshold is purely a performance knob.
_BULK_MIN_EDGES = 512

#: Below this edge count the scipy strongly-connected screen is not worth
#: the array round-trip; the Python Tarjan runs directly.
_FAST_SCC_MIN_EDGES = 8192

# Lazily resolved scipy.sparse handle (None = not probed, False = absent).
_SCIPY_SPARSE = None


def _sparse():
    """``scipy.sparse`` if importable, else ``False`` (probed once)."""
    global _SCIPY_SPARSE
    if _SCIPY_SPARSE is None:
        try:
            from scipy import sparse as sp  # type: ignore

            _SCIPY_SPARSE = sp
        except ImportError:  # pragma: no cover - exercised via _force flags
            _SCIPY_SPARSE = False
    return _SCIPY_SPARSE


class CSRGraph:
    """An immutable CSR snapshot of a labeled digraph.

    Build via :meth:`from_digraph` (or ``LabeledDiGraph.freeze()``, which
    caches the snapshot until the next mutation).  Node-domain helpers
    (``edge_label``, ``__contains__``) mirror ``LabeledDiGraph`` so frozen
    graphs can stand in for dict graphs in read-only code paths.
    """

    __slots__ = ("_nodes", "_nodes_np", "_index_of", "_indptr", "_indices",
                 "_labels", "_n", "_e", "label_union", "_np_arrays",
                 "_self_loops")

    def __init__(
        self,
        nodes: List,
        index_of: Optional[Dict],
        indptr: List[int],
        indices: List[int],
        labels: List[int],
        label_union: Optional[int] = None,
    ) -> None:
        self._nodes = nodes
        self._nodes_np = None
        self._index_of = index_of
        self._indptr = indptr
        self._indices = indices
        self._labels = labels
        self._n = len(nodes)
        self._e = len(indices)
        if label_union is None:
            label_union = 0
            for label in labels:
                label_union |= label
        self.label_union = label_union
        #: Cached ``(indptr, indices, labels)`` as numpy arrays, built on
        #: demand by the scipy acyclicity screen (or kept from a bulk build).
        self._np_arrays = None
        #: Self-looping node id -> OR of its self-loop labels, built on demand.
        self._self_loops = None

    @classmethod
    def _from_np(
        cls, nodes_np, indptr_np, indices_np, labels_np, label_union: int
    ) -> "CSRGraph":
        """Wrap a bulk-built numpy CSR; Python lists materialize lazily.

        On a clean history the vectorized acyclicity screen answers the
        whole cycle search from the numpy arrays, so the (costly) int-list
        conversions never happen unless a Python traversal — Tarjan, BFS,
        node-domain queries — actually needs them.
        """
        graph = cls.__new__(cls)
        graph._nodes = None
        graph._nodes_np = nodes_np
        graph._index_of = None
        graph._indptr = None
        graph._indices = None
        graph._labels = None
        graph._n = len(nodes_np)
        graph._e = len(indices_np)
        graph.label_union = label_union
        graph._np_arrays = (indptr_np, indices_np, labels_np)
        graph._self_loops = None
        return graph

    @property
    def nodes(self) -> List:
        """Interned nodes, id order (materialized lazily from a bulk build)."""
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
    def from_digraph(cls, graph) -> "CSRGraph":
        """Freeze a :class:`LabeledDiGraph` into CSR arrays.

        Node ids follow the digraph's insertion order; each row's successor
        order is the successor-dict insertion order.  Traversals over the
        snapshot therefore visit nodes and edges in exactly the order the
        dict-based algorithms did.
        """
        succ = graph._succ
        nodes = list(succ)
        index_of = {node: i for i, node in enumerate(nodes)}
        indptr = [0] * (len(nodes) + 1)
        indices: List[int] = []
        labels: List[int] = []
        extend_indices = indices.extend
        extend_labels = labels.extend
        intern = index_of.__getitem__
        pos = 0
        for i, node in enumerate(nodes):
            targets = succ[node]
            if targets:
                pos += len(targets)
                extend_indices(map(intern, targets))
                extend_labels(targets.values())
            indptr[i + 1] = pos
        return cls(nodes, index_of, indptr, indices, labels)

    @classmethod
    def from_edge_log(
        cls,
        us: Sequence[int],
        vs: Sequence[int],
        labels: Sequence[int],
    ) -> "CSRGraph":
        """Build a snapshot from a flat, append-ordered edge log.

        The log lists every edge *emission* — the same ``(u, v, label)``
        triple may repeat, and labels for one ``(u, v)`` pair OR together.
        The result is byte-identical to inserting the triples one by one
        into a :class:`LabeledDiGraph` and freezing it: nodes intern in
        first-appearance order over the interleaved ``u0, v0, u1, v1, ...``
        stream, and each row's successors keep first-emission order.

        Large logs take a vectorized numpy path (sort/reduce over flat
        arrays); small logs — and numpy-less installs — use a dict build.
        """
        if _np is not None and len(us) >= _BULK_MIN_EDGES:
            return cls._from_edge_log_np(us, vs, labels)
        return cls._from_edge_log_py(us, vs, labels)

    @classmethod
    def _from_edge_log_py(cls, us, vs, labels) -> "CSRGraph":
        succ: Dict = {}
        for u, v, label in zip(us, vs, labels):
            row = succ.get(u)
            if row is None:
                row = succ[u] = {}
            if v not in succ:
                succ[v] = {}
            row[v] = row.get(v, 0) | label
        nodes = list(succ)
        index_of = {node: i for i, node in enumerate(nodes)}
        indptr = [0] * (len(nodes) + 1)
        indices: List[int] = []
        flat_labels: List[int] = []
        intern = index_of.__getitem__
        pos = 0
        for i, node in enumerate(nodes):
            targets = succ[node]
            if targets:
                pos += len(targets)
                indices.extend(map(intern, targets))
                flat_labels.extend(targets.values())
            indptr[i + 1] = pos
        return cls(nodes, index_of, indptr, indices, flat_labels)

    @classmethod
    def _from_edge_log_np(cls, us, vs, labels) -> "CSRGraph":
        u = _np.asarray(us, dtype=_np.int64)
        v = _np.asarray(vs, dtype=_np.int64)
        lab = _np.asarray(labels, dtype=_np.int64)
        e = len(u)
        # Nodes, in first-appearance order over the interleaved stream.
        interleaved = _np.empty(2 * e, dtype=_np.int64)
        interleaved[0::2] = u
        interleaved[1::2] = v
        lo = int(interleaved.min())
        hi = int(interleaved.max())
        if lo >= 0 and hi < 8 * e + 1024:
            # Dense node domain (transaction ids): two scatters replace the
            # O(n log n) sort inside np.unique.  Fancy assignment keeps the
            # *last* write per repeated index, so assigning in reverse
            # stream order records each node's first appearance.
            first_occ = _np.full(hi + 1, -1, dtype=_np.int64)
            first_occ[interleaved[::-1]] = _np.arange(
                2 * e - 1, -1, -1, dtype=_np.int64
            )
            present = _np.flatnonzero(first_occ >= 0)  # sorted by value
            node_vals = present[_np.argsort(first_occ[present])]
            n = len(node_vals)
            rank = _np.empty(hi + 1, dtype=_np.int64)
            rank[node_vals] = _np.arange(n, dtype=_np.int64)
            uid = rank[u]
            vid = rank[v]
            node_source = node_vals
        else:
            uniq, first = _np.unique(interleaved, return_index=True)
            n = len(uniq)
            order = _np.argsort(first)
            rank = _np.empty(n, dtype=_np.int64)
            rank[order] = _np.arange(n, dtype=_np.int64)
            uid = rank[_np.searchsorted(uniq, u)]
            vid = rank[_np.searchsorted(uniq, v)]
            node_source = uniq[order]
        # Group emissions by (u, v): OR the labels, keep the first emission
        # position (stable sort => the group's minimum stream index).
        pair = uid * n + vid
        by_pair = _np.argsort(pair, kind="stable")
        sorted_pair = pair[by_pair]
        starts_mask = _np.empty(e, dtype=bool)
        starts_mask[0] = True
        _np.not_equal(sorted_pair[1:], sorted_pair[:-1], out=starts_mask[1:])
        starts = _np.flatnonzero(starts_mask)
        pairs = sorted_pair[starts]
        pair_labels = _np.bitwise_or.reduceat(lab[by_pair], starts)
        pair_first = by_pair[starts]
        # CSR rows: sort unique pairs by (source id, first emission).
        src = pairs // n
        dst = pairs - src * n
        row_order = _np.lexsort((pair_first, src))
        indices_np = dst[row_order]
        labels_np = pair_labels[row_order]
        counts = _np.bincount(src, minlength=n)
        indptr_np = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=indptr_np[1:])
        return cls._from_np(
            node_source,
            indptr_np,
            indices_np,
            labels_np,
            int(_np.bitwise_or.reduce(lab)) if e else 0,
        )

    # ------------------------------------------------------------------
    # Node-domain queries (LabeledDiGraph-compatible subset)

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

    def successors(self, u, mask: int = ALL_EDGES) -> Iterator:
        """Node-domain successor iteration (compatibility helper)."""
        ui = self.index_of.get(u)
        if ui is None:
            return iter(())
        nodes = self.nodes
        indices = self.indices
        labels = self.labels
        return (
            nodes[indices[pos]]
            for pos in range(self.indptr[ui], self.indptr[ui + 1])
            if labels[pos] & mask
        )

    # ------------------------------------------------------------------
    # Integer-domain primitives

    def edge_label_idx(self, u: int, v: int) -> int:
        """The bitmask on edge ``u -> v`` (integer domain), or 0 if absent."""
        indices = self.indices
        for pos in range(self.indptr[u], self.indptr[u + 1]):
            if indices[pos] == v:
                return self.labels[pos]
        return 0

    def intern_many(self, members: Iterable) -> List[int]:
        """Map node-domain values to integer ids, preserving order."""
        intern = self.index_of.__getitem__
        return [intern(m) for m in members]

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
        roots: Optional[Sequence[int]] = None,
        allowed: Optional[bytearray] = None,
    ) -> List[List[int]]:
        """Tarjan SCCs over integer ids, unrolled to an explicit stack.

        ``roots`` is the DFS root order (default: every node in interning
        order); ``allowed`` restricts the traversal to a node subset.  With
        defaults the visit order — hence component order *and* member order
        — is identical to the dict-based Tarjan this replaced.  Components
        come out in reverse topological order of the condensation.
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
        if roots is None:
            roots = range(n)
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

    def _self_loop_labels(self) -> Dict[int, int]:
        """Self-looping node id -> the OR of its self-loop labels.

        Scanned once per snapshot (a C-level membership test per row; only
        rows that hold their own id are walked), so the singleton test in
        :meth:`cyclic_scc_idx` is a dict lookup however many Tarjan passes
        and probes run over the snapshot.
        """
        loops = self._self_loops
        if loops is None:
            loops = {}
            indices = self.indices
            labels = self.labels
            start = 0
            for node, end in enumerate(self.indptr[1:]):
                if node in indices[start:end]:
                    for pos in range(start, end):
                        if indices[pos] == node:
                            loops[node] = loops.get(node, 0) | labels[pos]
                start = end
            self._self_loops = loops
        return loops

    def cyclic_scc_idx(
        self,
        mask: int = ALL_EDGES,
        roots: Optional[Sequence[int]] = None,
        allowed: Optional[bytearray] = None,
    ) -> List[List[int]]:
        """SCCs that can contain a cycle: size > 1, or a self-looping node.

        Full-graph queries on large graphs first run a vectorized
        acyclicity screen (scipy's strongly-connected count): when the
        graph under ``mask`` is provably acyclic — one component per node
        and no self-loop — the answer is ``[]`` with no Python traversal.
        Any other outcome falls through to the Tarjan walk, whose emission
        order downstream witness selection depends on.
        """
        if roots is None and allowed is None and self._provably_acyclic(mask):
            return []
        loops = self._self_loop_labels()
        return [
            component
            for component in self.scc_idx(mask, roots, allowed)
            if len(component) > 1 or loops.get(component[0], 0) & mask
        ]

    def _provably_acyclic(self, mask: int) -> bool:
        """True only when a C-speed screen proves no cycle exists under ``mask``."""
        if _np is None or self._e < _FAST_SCC_MIN_EDGES:
            return False
        sparse = _sparse()
        if not sparse:
            return False
        arrays = self._np_arrays
        if arrays is None:
            arrays = self._np_arrays = (
                _np.asarray(self.indptr, dtype=_np.int64),
                _np.asarray(self.indices, dtype=_np.int64),
                _np.asarray(self.labels, dtype=_np.int64),
            )
        indptr_np, indices_np, labels_np = arrays
        n = self._n
        if mask & self.label_union == self.label_union:
            # Every edge visible: wrap the existing CSR arrays directly.
            matrix = sparse.csr_matrix(
                (
                    _np.ones(len(indices_np), dtype=_np.int8),
                    indices_np,
                    indptr_np,
                ),
                shape=(n, n),
            )
        else:
            keep = (labels_np & mask) != 0
            rows = _np.repeat(
                _np.arange(n, dtype=_np.int64), _np.diff(indptr_np)
            )[keep]
            matrix = sparse.csr_matrix(
                (
                    _np.ones(len(rows), dtype=_np.int8),
                    (rows, indices_np[keep]),
                ),
                shape=(n, n),
            )
        if bool(matrix.diagonal().any()):
            return False  # a self-loop is already a cycle
        from scipy.sparse import csgraph  # local: follows the gate above

        count = csgraph.connected_components(
            matrix, directed=True, connection="strong", return_labels=False
        )
        return int(count) == n

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

        Successors are scanned in CSR row order (the digraph's insertion
        order), so ties break exactly as the dict BFS did.  When ``source ==
        target`` the path must leave the node and return: the target test
        happens on edge traversal, not on dequeue.
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
