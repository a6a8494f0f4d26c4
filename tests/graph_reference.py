"""Test-side graph helpers: the canonical reference build and node reads.

:func:`canonical_csr` is the plain dict build of the snapshot that
:meth:`~repro.graph.csr.CSRGraph.from_edge_log` must reproduce exactly:
nodes sorted, each row's successors ascending, the labels of a repeated
pair ORed.  The read helpers answer node-domain degree and successor
questions from a frozen snapshot's arrays; the checker itself never asks
them.
"""

from repro.graph import ALL_EDGES, CSRGraph


def canonical_csr(us, vs, labels):
    """The canonical snapshot of an edge log, built with dicts."""
    succ = {}
    for u, v, label in zip(us, vs, labels):
        succ.setdefault(v, {})
        row = succ.setdefault(u, {})
        row[v] = row.get(v, 0) | label
    nodes = sorted(succ)
    index_of = {node: i for i, node in enumerate(nodes)}
    indptr, indices, flat_labels = [0], [], []
    for node in nodes:
        row = succ[node]
        for target in sorted(row):
            indices.append(index_of[target])
            flat_labels.append(row[target])
        indptr.append(len(indices))
    return CSRGraph(nodes, indptr, indices, flat_labels)


def _snapshot(graph):
    return graph if isinstance(graph, CSRGraph) else graph.freeze()


def successors(graph, u, mask=ALL_EDGES):
    """``u``'s successors under ``mask``, in row order ([] if absent)."""
    csr = _snapshot(graph)
    ui = csr.index_of.get(u)
    if ui is None:
        return []
    nodes, indices, labels = csr.nodes, csr.indices, csr.labels
    return [
        nodes[indices[pos]]
        for pos in range(csr.indptr[ui], csr.indptr[ui + 1])
        if labels[pos] & mask
    ]


def out_degree(graph, u, mask=ALL_EDGES):
    return len(successors(graph, u, mask))


def in_degree(graph, v, mask=ALL_EDGES):
    csr = _snapshot(graph)
    vi = csr.index_of.get(v)
    if vi is None:
        return 0
    labels = csr.labels
    return sum(
        1
        for pos, target in enumerate(csr.indices)
        if target == vi and labels[pos] & mask
    )


def add_edges(graph, triples):
    """Append ``(u, v, label)`` triples to ``graph``'s log through its
    column append, the one every value edge takes."""
    triples = list(triples)
    if triples:
        us, vs, labels = zip(*triples)
        graph.add_edge_columns(us, vs, labels)
