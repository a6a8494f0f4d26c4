"""Property tests: the CSR core is byte-equivalent to the dict algorithms.

The CSR snapshot interns nodes in insertion order and keeps each row in
successor insertion order, so every traversal (Tarjan, BFS shortest-cycle,
first-edge search) must visit nodes and edges in exactly the order the
historical dict-of-dicts implementation did — same components in the same
order with the same member order, same tie-broken witness cycles, same
anomaly lists.  These tests pin that equivalence against a faithful
dict-based reference implementation, over random labeled graphs and random
masks.

The reference code below is the pre-CSR implementation, kept verbatim as
an executable oracle.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycle_search import find_cycle_anomalies
from repro.graph import (
    LabeledDiGraph,
    cyclic_components,
    find_cycle_with_first_edge,
    shortest_cycle_in_component,
    shortest_path,
    strongly_connected_components,
)

# All six dependency bits the checker uses.
FULL_MASK = 63


# ----------------------------------------------------------------------
# Dict-based reference implementations (the seed algorithms, verbatim).


def ref_scc(graph, mask):
    index_of, lowlink, on_stack = {}, {}, set()
    stack, components, counter = [], [], 0
    for root in graph.nodes():
        if root in index_of:
            continue
        work = [(root, None)]
        while work:
            node, child_iter = work[-1]
            if child_iter is None:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
                child_iter = iter(
                    [v for v, l in graph._succ[node].items() if l & mask]
                )
                work[-1] = (node, child_iter)
            advanced = False
            for child in child_iter:
                if child not in index_of:
                    work.append((child, None))
                    advanced = True
                    break
                if child in on_stack and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def ref_cyclic(graph, mask):
    result = []
    for component in ref_scc(graph, mask):
        if len(component) > 1:
            result.append(component)
        elif graph._succ[component[0]].get(component[0], 0) & mask:
            result.append(component)
    return result


def ref_shortest_path(graph, source, target, mask, restrict=None):
    if source not in graph:
        return None
    parent, queue, seen = {}, deque([source]), {source}
    while queue:
        node = queue.popleft()
        for succ, label in graph._succ[node].items():
            if not label & mask:
                continue
            if restrict is not None and succ not in restrict:
                continue
            if succ == target:
                path = [target, node]
                while node != source:
                    node = parent[node]
                    path.append(node)
                path.reverse()
                return path
            if succ not in seen:
                seen.add(succ)
                parent[succ] = node
                queue.append(succ)
    return None


def ref_shortest_cycle(graph, component, mask):
    members = set(component)
    best = None
    for node in component:
        path = ref_shortest_path(graph, node, node, mask, members)
        if path is None:
            continue
        if best is None or len(path) < len(best):
            best = path
            if len(best) <= 3:
                break
    return best


def ref_first_edge_cycle(graph, first_mask, rest_mask, components=None):
    if components is None:
        components = ref_cyclic(graph, first_mask | rest_mask)
    for component in components:
        members = set(component)
        for u in component:
            for v, label in graph._succ[u].items():
                if not label & first_mask:
                    continue
                if v not in members:
                    continue
                if v == u:
                    return [u, u]
                path = ref_shortest_path(graph, v, u, rest_mask, members)
                if path is not None:
                    return [u] + path
    return None


def ref_find_cycle_anomalies(graph):
    """The seed's 16-pass search: a fresh full decomposition per spec."""
    from repro.core.anomalies import CycleAnomaly
    from repro.core.cycle_search import (
        _SPECS,
        _canonical,
        _summary,
        classify_cycle,
    )

    anomalies, seen = [], set()
    for spec in _SPECS:
        for component in ref_cyclic(graph, spec.mask):
            if spec.first is None:
                cycle = ref_shortest_cycle(graph, component, spec.mask)
            else:
                cycle = ref_first_edge_cycle(
                    graph, spec.first, spec.rest, [component]
                )
            if cycle is None:
                continue
            signature = _canonical(cycle)
            if signature in seen:
                continue
            seen.add(signature)
            name, steps = classify_cycle(graph, cycle, spec.mask)
            anomalies.append(
                CycleAnomaly(
                    name=name,
                    txns=tuple(cycle),
                    message=_summary(name, cycle),
                    steps=steps,
                )
            )
    return anomalies


# ----------------------------------------------------------------------
# Random graph / mask strategies.


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=FULL_MASK),
            ),
            max_size=36,
        )
    )
    g = LabeledDiGraph()
    for i in range(n):
        g.add_node(i)
    for u, v, label in edges:
        g.add_edge(u, v, label)
    return g


masks = st.integers(min_value=1, max_value=FULL_MASK)


# ----------------------------------------------------------------------
# Equivalence properties.


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_scc_identical(g, mask):
    # Exact equality: same components, same order, same member order.
    assert strongly_connected_components(g, mask) == ref_scc(g, mask)


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_cyclic_components_identical(g, mask):
    assert cyclic_components(g, mask) == ref_cyclic(g, mask)


@given(labeled_graphs(), masks, st.integers(0, 11), st.integers(0, 11))
@settings(max_examples=300, deadline=None)
def test_shortest_path_identical(g, mask, source, target):
    assert shortest_path(g, source, target, mask) == ref_shortest_path(
        g, source, target, mask
    )


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_shortest_cycle_identical(g, mask):
    for component in ref_cyclic(g, mask):
        assert shortest_cycle_in_component(
            g, component, mask
        ) == ref_shortest_cycle(g, component, mask)


@given(labeled_graphs(), masks, masks)
@settings(max_examples=300, deadline=None)
def test_first_edge_cycle_identical(g, first_mask, rest_mask):
    assert find_cycle_with_first_edge(
        g, first_mask, rest_mask
    ) == ref_first_edge_cycle(g, first_mask, rest_mask)


@given(labeled_graphs())
@settings(max_examples=300, deadline=None)
def test_find_cycle_anomalies_identical(g):
    # The refined (probe-gated, cache-shared) search must reproduce the
    # seed's 16-pass output byte for byte: same anomalies, same witnesses,
    # same order.
    assert find_cycle_anomalies(g) == ref_find_cycle_anomalies(g)


def test_freeze_cache_invalidated_on_mutation():
    g = LabeledDiGraph()
    g.add_edge(1, 2, 1)
    first = g.freeze()
    assert g.freeze() is first  # cached while unchanged
    g.add_edge(2, 1, 2)
    second = g.freeze()
    assert second is not first
    assert second.edge_label(2, 1) == 2


def test_freeze_cache_invalidated_on_failed_bulk_add():
    import pytest

    g = LabeledDiGraph()
    g.add_edge(1, 2, 1)
    g.freeze()
    with pytest.raises(ValueError):
        g.add_edges_from([(2, 3, 1), (3, 4, 0)])  # fails mid-iteration
    # The partial insert of 2->3 must be visible in a fresh snapshot.
    assert g.freeze().edge_label(2, 3) == 1


def test_freeze_matches_digraph_topology():
    g = LabeledDiGraph()
    g.add_edge("a", "b", 3)
    g.add_edge("b", "c", 4)
    g.add_edge("a", "c", 1)
    csr = g.freeze()
    assert len(csr) == 3
    assert csr.edge_count == 3
    assert csr.edge_label("a", "b") == 3
    assert csr.edge_label("c", "a") == 0
    assert list(csr.successors("a")) == ["b", "c"]
    assert list(csr.successors("a", 2)) == ["b"]


# ----------------------------------------------------------------------
# Self-loops under masks: one snapshot answers many masks and restricted
# probes from a single self-loop table.


@st.composite
def self_looping_graphs(draw):
    g = draw(labeled_graphs())
    nodes = list(g.nodes())
    for node in draw(st.lists(st.sampled_from(nodes), max_size=4)):
        g.add_edge(node, node, draw(masks))
    return g


def _induced(graph, members):
    sub = LabeledDiGraph()
    for node in graph.nodes():
        if node in members:
            sub.add_node(node)
    for node in sub.nodes():
        for succ, label in graph._succ[node].items():
            if succ in members:
                sub.add_edge(node, succ, label)
    return sub


@given(self_looping_graphs(), st.lists(masks, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_self_loops_under_masks_identical(g, mask_sequence):
    csr = g.freeze()
    for mask in mask_sequence:
        components = csr.cyclic_scc_idx(mask)
        assert [
            [csr.nodes[i] for i in component] for component in components
        ] == ref_cyclic(g, mask)


@given(self_looping_graphs(), masks, st.data())
@settings(max_examples=300, deadline=None)
def test_self_loops_restricted_probe_identical(g, mask, data):
    csr = g.freeze()
    members = data.draw(st.sets(st.sampled_from(list(g.nodes()))))
    ids = sorted(csr.intern_many(members))
    components = csr.cyclic_scc_idx(
        mask, roots=ids, allowed=csr.allowed_table(ids)
    )
    assert [
        [csr.nodes[i] for i in component] for component in components
    ] == ref_cyclic(_induced(g, members), mask)


def test_self_loop_label_outside_the_mask_is_no_cycle():
    g = LabeledDiGraph()
    g.add_edge(1, 1, 0b0100)
    g.add_edge(1, 2, 0b0001)
    g.add_edge(2, 2, 0b0011)
    csr = g.freeze()
    assert csr.cyclic_scc_idx(0b0001) == [[1]]
    assert csr.cyclic_scc_idx(0b0100) == [[0]]
    assert csr.cyclic_scc_idx(0b1000) == []
    assert csr.cyclic_scc_idx(FULL_MASK) == [[1], [0]]
    only_one = csr.allowed_table([0])
    assert csr.cyclic_scc_idx(0b0011, roots=[0], allowed=only_one) == []
    assert csr.cyclic_scc_idx(0b0100, roots=[0], allowed=only_one) == [[0]]


def test_self_loops_in_a_bulk_built_snapshot():
    from repro.graph.csr import _BULK_MIN_EDGES, CSRGraph

    # A long chain (enough edges for the numpy build when it is present)
    # with self-loops at a few nodes, each under its own label.
    n = _BULK_MIN_EDGES + 8
    us = list(range(n - 1)) + [5, 77, 300]
    vs = list(range(1, n)) + [5, 77, 300]
    labels = [1] * (n - 1) + [2, 4, 2]
    csr = CSRGraph.from_edge_log(us, vs, labels)
    reference = CSRGraph._from_edge_log_py(us, vs, labels)
    for mask in (1, 2, 4, 6, FULL_MASK):
        assert csr.cyclic_scc_idx(mask) == reference.cyclic_scc_idx(mask)
    found = csr.cyclic_scc_idx(2)
    assert sorted(csr.nodes[c[0]] for c in found) == [5, 300]
