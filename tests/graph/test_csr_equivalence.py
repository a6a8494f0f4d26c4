"""Property tests: the CSR core is byte-equivalent to the dict algorithms.

A CSR snapshot keeps the node order and row order it was built with (the
test-local :func:`freeze` takes the dict's), so every traversal (Tarjan, BFS
shortest-cycle, first-edge search) must visit nodes and edges in exactly
the order the historical dict-of-dicts implementation did — same
components in the same order with the same member order, same tie-broken
witness cycles.  Cyclic components are the one deliberate reordering:
``cyclic_scc_idx`` lists the reference Tarjan's cyclic components with
members ascending by id and components by smallest member
(:func:`ref_cyclic_sorted`), and the cycle searches consume them in that
order.  These tests pin that equivalence against a faithful dict-based
reference implementation, over random labeled graphs and random masks.

The reference code below is the pre-CSR implementation, kept verbatim as
an executable oracle.  It runs over a plain dict-of-dicts
(``graph[u][v] = label``, every node a key, isolated ones included); a
test-local :func:`freeze` turns the same dict into the CSR snapshot whose
integer-domain ``*_idx`` methods are compared against it.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycle_search import find_cycle_anomalies
from repro.graph import ALL_EDGES, CSRGraph, EdgeLogGraph
from repro.graph.csr import _FAST_SCC_MIN_EDGES
from tests.graph_reference import add_edges, canonical_csr, successors

# All six dependency bits the checker uses.
FULL_MASK = 63


# ----------------------------------------------------------------------
# The dict-of-dicts graph and its CSR freeze.


class DictGraph(dict):
    """A plain ``{u: {v: label}}`` dict with the accessors the reference
    code reads: ``nodes()``, ``_succ`` and ``edge_label``."""

    @property
    def _succ(self):
        return self

    def nodes(self):
        return iter(self)

    def edge_label(self, u, v):
        return self.get(u, {}).get(v, 0)


def dict_graph(nodes, edges):
    """``nodes`` first (in order), then each edge OR-ed into its row."""
    graph = DictGraph((node, {}) for node in nodes)
    for u, v, label in edges:
        graph.setdefault(u, {})
        graph.setdefault(v, {})
        graph[u][v] = graph[u].get(v, 0) | label
    return graph


def freeze(graph):
    """The CSR snapshot of a dict graph: ids in key order, rows in row order."""
    nodes = list(graph)
    index_of = {node: i for i, node in enumerate(nodes)}
    indptr, indices, labels = [0], [], []
    for node in nodes:
        indices.extend(index_of[v] for v in graph[node])
        labels.extend(graph[node].values())
        indptr.append(len(indices))
    return CSRGraph(nodes, indptr, indices, labels)


def as_nodes(csr, components):
    return [csr.to_nodes(component) for component in components]


def first_edge_cycle(csr, first_mask, rest_mask):
    """The first component's first-edge cycle, components under the union."""
    for component in csr.cyclic_scc_idx(first_mask | rest_mask):
        cycle = csr.first_edge_cycle_idx(component, first_mask, rest_mask)
        if cycle is not None:
            return csr.to_nodes(cycle)
    return None


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


def ref_cyclic_sorted(graph, mask):
    """:func:`ref_cyclic` in the canonical order of ``cyclic_scc_idx``.

    Members ascend by id (the dict's key order, which :func:`freeze`
    interns by) and components are ordered by their smallest member.
    """
    rank = {node: i for i, node in enumerate(graph)}.__getitem__
    components = [sorted(c, key=rank) for c in ref_cyclic(graph, mask)]
    components.sort(key=lambda component: rank(component[0]))
    return components


def as_sets(components):
    return {frozenset(component) for component in components}


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
    """The seed's 16-pass search: a fresh full decomposition per spec,
    its cyclic components taken in the canonical order, and the
    first-edge searches scanning each component's members in reverse."""
    from repro.core.anomalies import CycleAnomaly
    from repro.core.cycle_search import (
        _SPECS,
        _canonical,
        _summary,
        classify_cycle,
    )

    anomalies, seen = [], set()
    for spec in _SPECS:
        for component in ref_cyclic_sorted(graph, spec.mask):
            if spec.first is None:
                cycle = ref_shortest_cycle(graph, component, spec.mask)
            else:
                cycle = ref_first_edge_cycle(
                    graph, spec.first, spec.rest, [component[::-1]]
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
    return dict_graph(range(n), edges)


masks = st.integers(min_value=1, max_value=FULL_MASK)


# ----------------------------------------------------------------------
# Equivalence properties.


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_scc_identical(g, mask):
    # Exact equality: same components, same order, same member order.
    csr = freeze(g)
    assert as_nodes(csr, csr.scc_idx(mask)) == ref_scc(g, mask)


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_cyclic_components_identical(g, mask):
    csr = freeze(g)
    found = as_nodes(csr, csr.cyclic_scc_idx(mask))
    assert found == ref_cyclic_sorted(g, mask)
    assert as_sets(found) == as_sets(ref_cyclic(g, mask))


@given(labeled_graphs(), masks, st.integers(0, 11), st.integers(0, 11))
@settings(max_examples=300, deadline=None)
def test_shortest_path_identical(g, mask, source, target):
    expected = ref_shortest_path(g, source, target, mask)
    if source not in g or target not in g:
        assert expected is None
        return
    csr = freeze(g)
    path = csr.shortest_path_idx(
        csr.index_of[source], csr.index_of[target], mask
    )
    assert (None if path is None else csr.to_nodes(path)) == expected


@given(labeled_graphs(), masks)
@settings(max_examples=300, deadline=None)
def test_shortest_cycle_identical(g, mask):
    csr = freeze(g)
    for component in ref_cyclic(g, mask):
        ids = [csr.index_of[node] for node in component]
        cycle = csr.shortest_cycle_idx(ids, mask)
        assert (None if cycle is None else csr.to_nodes(cycle)) == (
            ref_shortest_cycle(g, component, mask)
        )


@given(labeled_graphs(), masks, masks)
@settings(max_examples=300, deadline=None)
def test_first_edge_cycle_identical(g, first_mask, rest_mask):
    components = ref_cyclic_sorted(g, first_mask | rest_mask)
    assert as_sets(components) == as_sets(ref_cyclic(g, first_mask | rest_mask))
    assert first_edge_cycle(
        freeze(g), first_mask, rest_mask
    ) == ref_first_edge_cycle(g, first_mask, rest_mask, components)


@given(labeled_graphs())
@settings(max_examples=300, deadline=None)
def test_find_cycle_anomalies_identical(g):
    # The refined (probe-answered, cache-shared) search must reproduce the
    # seed's 16-pass output over canonically ordered components byte for
    # byte: same anomalies, same witnesses, same order.
    assert find_cycle_anomalies(freeze(g)) == ref_find_cycle_anomalies(g)


def test_freeze_cache_invalidated_on_mutation():
    g = EdgeLogGraph()
    add_edges(g, [(1, 2, 1)])
    first = g.freeze()
    assert g.freeze() is first  # cached while unchanged
    add_edges(g, [(2, 1, 2)])
    second = g.freeze()
    assert second is not first
    assert second.edge_label(2, 1) == 2


def test_snapshot_node_domain_queries():
    csr = snapshot(("a", "b", 3), ("b", "c", 4), ("a", "c", 1))
    assert len(csr) == 3
    assert csr.edge_count == 3
    assert csr.edge_label("a", "b") == 3
    assert csr.edge_label("c", "a") == 0
    assert csr.edge_label("zz", "a") == 0
    assert "a" in csr and "zz" not in csr
    assert successors(csr, "a") == ["b", "c"]
    assert successors(csr, "a", 2) == ["b"]
    assert successors(csr, "zz") == []
    assert csr.has_edge("b", "c", 4) and not csr.has_edge("b", "c", 1)


@given(labeled_graphs(), masks, st.integers(min_value=-1, max_value=14))
@settings(max_examples=150, deadline=None)
def test_node_domain_queries_match_dict_graph(g, mask, probe):
    # ``probe`` ranges past the node domain, so absent nodes are asked too.
    csr = freeze(g)
    for u in list(g) + [probe]:
        row = g.get(u, {})
        assert successors(csr, u, mask) == [
            v for v, label in row.items() if label & mask
        ]
        for v in list(g) + [probe]:
            assert csr.edge_label(u, v) == g.edge_label(u, v)
            assert csr.has_edge(u, v, mask) == bool(g.edge_label(u, v) & mask)
    assert (probe in csr) == (probe in g)


# ----------------------------------------------------------------------
# Fixed cases over the integer-domain searches.

WW, WR, RW = 1, 2, 4


def snapshot(*edges):
    """Ids in first appearance over ``u0, v0, u1, v1, ...``."""
    return freeze(dict_graph((), edges))


def path(csr, source, target, mask=ALL_EDGES, members=None):
    """``shortest_path_idx`` in the node domain, ``members`` as ``allowed``."""
    index_of = csr.index_of
    allowed = None
    if members is not None:
        allowed = csr.allowed_table([index_of[m] for m in members])
    found = csr.shortest_path_idx(
        index_of[source], index_of[target], mask, allowed
    )
    return None if found is None else csr.to_nodes(found)


def cycles(csr, mask=ALL_EDGES):
    """One shortest cycle per cyclic component, in the node domain."""
    return [
        csr.to_nodes(csr.shortest_cycle_idx(component, mask))
        for component in csr.cyclic_scc_idx(mask)
    ]


def assert_cycle(csr, cycle, mask=ALL_EDGES):
    assert cycle[0] == cycle[-1]
    assert len(cycle) >= 2
    for u, v in zip(cycle, cycle[1:]):
        assert csr.has_edge(u, v, mask), f"missing edge {u}->{v}"
    interior = cycle[:-1]
    assert len(set(interior)) == len(interior), "cycle revisits a node"


def rw_steps(csr, cycle):
    return sum(1 for u, v in zip(cycle, cycle[1:]) if csr.edge_label(u, v) & RW)


class TestSccIdx:
    def test_empty(self):
        assert freeze(DictGraph()).scc_idx() == []

    def test_single_node_no_edge(self):
        csr = freeze(dict_graph(["a"], []))
        assert as_nodes(csr, csr.scc_idx()) == [["a"]]
        assert csr.cyclic_scc_idx() == []

    def test_self_loop_is_cyclic(self):
        csr = snapshot(("a", "a", 1))
        assert as_nodes(csr, csr.cyclic_scc_idx()) == [["a"]]

    def test_two_cycle(self):
        csr = snapshot((1, 2, 1), (2, 1, 1))
        assert [set(c) for c in as_nodes(csr, csr.cyclic_scc_idx())] == [{1, 2}]

    def test_chain_is_acyclic(self):
        csr = snapshot((1, 2, 1), (2, 3, 1), (3, 4, 1))
        assert csr.cyclic_scc_idx() == []
        assert len(csr.scc_idx()) == 4

    def test_two_separate_cycles(self):
        # The bridge 2 -> 3 keeps the two cycles separate components.
        csr = snapshot(
            (1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 3, 1)
        )
        found = {frozenset(c) for c in as_nodes(csr, csr.cyclic_scc_idx())}
        assert found == {frozenset({1, 2}), frozenset({3, 4, 5})}

    def test_mask_restricts_components(self):
        csr = snapshot((1, 2, WW), (2, 1, WR))
        assert csr.cyclic_scc_idx(WW | WR) != []
        assert csr.cyclic_scc_idx(WW) == []
        assert csr.cyclic_scc_idx(WR) == []

    def test_deep_graph_does_not_recurse(self):
        # A 50k-node chain ending in a 2-cycle would overflow Python's
        # stack if Tarjan recursed.
        n = 50_000
        csr = CSRGraph.from_edge_log(
            list(range(n)) + [n], list(range(1, n + 1)) + [n - 1], [1] * (n + 1)
        )
        found = as_nodes(csr, csr.cyclic_scc_idx())
        assert [set(c) for c in found] == [{n - 1, n}]

    @given(
        st.integers(min_value=0, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)),
                        st.integers(0, max(n - 1, 0)),
                    ),
                    max_size=40 if n else 0,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_oracle(self, data):
        nx = pytest.importorskip("networkx")
        n, edges = data
        csr = freeze(dict_graph(range(n), [(u, v, 1) for u, v in edges]))
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        ours = {frozenset(c) for c in as_nodes(csr, csr.scc_idx())}
        theirs = {frozenset(c) for c in nx.strongly_connected_components(ref)}
        assert ours == theirs


class TestShortestPathIdx:
    def test_direct_edge(self):
        assert path(snapshot((1, 2, WW)), 1, 2) == [1, 2]

    def test_two_hop(self):
        assert path(snapshot((1, 2, WW), (2, 3, WW)), 1, 3) == [1, 2, 3]

    def test_prefers_shorter(self):
        csr = snapshot((1, 2, WW), (2, 3, WW), (1, 3, WR))
        assert path(csr, 1, 3) == [1, 3]

    def test_no_path(self):
        assert path(snapshot((1, 2, WW)), 2, 1) is None

    def test_mask_blocks_path(self):
        assert path(snapshot((1, 2, WW)), 1, 2, mask=WR) is None

    def test_mask_blocks_detour(self):
        csr = snapshot((1, 9, WR), (9, 2, WW), (2, 7, WW))
        assert path(csr, 1, 7) == [1, 9, 2, 7]
        assert path(csr, 1, 7, mask=WW) is None

    def test_allowed_blocks_detour(self):
        csr = snapshot((1, 9, WW), (9, 2, WW), (1, 2, WW))
        assert path(csr, 1, 2, members={1, 2}) == [1, 2]
        assert path(csr, 1, 2, members={1, 2, 9}) == [1, 2]
        # With the direct edge gone, only the detour remains.
        detour = snapshot((1, 9, WW), (9, 2, WW), (2, 3, WW))
        assert path(detour, 1, 2, members={1, 2, 9}) == [1, 9, 2]
        assert path(detour, 1, 2, members={1, 2}) is None

    def test_cycle_back_to_source(self):
        assert path(snapshot((1, 2, WW), (2, 1, WW)), 1, 1) == [1, 2, 1]

    def test_self_loop_path(self):
        assert path(snapshot((1, 1, WW)), 1, 1) == [1, 1]


class TestShortestCycleIdx:
    def test_acyclic_has_no_cycle(self):
        assert cycles(snapshot((1, 2, WW), (2, 3, WW))) == []

    def test_two_cycle(self):
        csr = snapshot((1, 2, WW), (2, 1, WW))
        (cycle,) = cycles(csr)
        assert_cycle(csr, cycle)
        assert len(cycle) == 3

    def test_mask_filters(self):
        csr = snapshot((1, 2, WW), (2, 1, WR))
        assert cycles(csr, WW) == []
        assert len(cycles(csr, WW | WR)) == 1

    def test_finds_short_cycle_inside_large_scc(self):
        # 1->2->3->4->1 plus chord 2->1: the shortest cycle has 2 edges.
        csr = snapshot(
            (1, 2, WW), (2, 3, WW), (3, 4, WW), (4, 1, WW), (2, 1, WW)
        )
        (cycle,) = cycles(csr)
        assert_cycle(csr, cycle)
        assert len(cycle) == 3

    def test_self_loop_cycle(self):
        csr = snapshot((1, 2, WW), (2, 2, WR))
        assert cycles(csr) == [[2, 2]]
        assert cycles(csr, WW) == []

    def test_one_cycle_per_component(self):
        csr = snapshot(
            (1, 2, WW), (2, 1, WW), (3, 4, WW), (4, 3, WW), (2, 3, WW)
        )
        found = cycles(csr)
        assert len(found) == 2
        for cycle in found:
            assert_cycle(csr, cycle)


class TestFirstEdgeCycleIdx:
    """G-single: exactly one ``first_mask`` edge, the rest ``rest_mask``."""

    def test_g_single_like(self):
        csr = snapshot((1, 2, RW), (2, 1, WR))
        cycle = first_edge_cycle(csr, RW, WW | WR)
        assert_cycle(csr, cycle)
        assert rw_steps(csr, cycle) == 1

    def test_rejects_two_rw_cycle(self):
        # The only cycle needs two rw edges; the search must fail.
        csr = snapshot((1, 2, RW), (2, 1, RW))
        assert first_edge_cycle(csr, RW, WW | WR) is None

    def test_finds_exactly_one_rw_among_mixed(self):
        # Cycle A: 1 -rw-> 2 -rw-> 1 (two rw). Cycle B: 3 -rw-> 4 -ww-> 3.
        csr = snapshot(
            (1, 2, RW), (2, 1, RW), (3, 4, RW), (4, 3, WW), (2, 3, WW)
        )
        cycle = first_edge_cycle(csr, RW, WW | WR)
        assert_cycle(csr, cycle)
        assert set(cycle[:-1]) == {3, 4}

    def test_longer_completion_path(self):
        csr = snapshot((1, 2, RW), (2, 3, WW), (3, 4, WR), (4, 1, WW))
        cycle = first_edge_cycle(csr, RW, WW | WR)
        assert_cycle(csr, cycle)
        assert rw_steps(csr, cycle) == 1
        assert len(cycle) == 5

    def test_self_loop_on_first_edge(self):
        assert first_edge_cycle(snapshot((1, 1, RW)), RW, WW | WR) == [1, 1]

    def test_edge_with_both_labels_counts_once(self):
        # 1->2 carries both ww and rw; 2->1 ww.  The rw bit serves as the
        # single anti-dependency, completed by the ww edge home.
        csr = snapshot((1, 2, WW | RW), (2, 1, WW))
        assert_cycle(csr, first_edge_cycle(csr, RW, WW | WR))

    def test_allowed_confines_the_return_path(self):
        # 1 -rw-> 2 returns home only through 3; excluding 3 blocks it.
        csr = snapshot((1, 2, RW), (2, 3, WW), (3, 1, WW))
        ids = [csr.index_of[n] for n in (1, 2)]
        assert csr.first_edge_cycle_idx(ids, RW, WW) is None
        all_ids = [csr.index_of[n] for n in (1, 2, 3)]
        cycle = csr.first_edge_cycle_idx(all_ids, RW, WW)
        assert csr.to_nodes(cycle) == [1, 2, 3, 1]

    def test_no_cycle_at_all(self):
        csr = snapshot((1, 2, RW), (2, 3, WW))
        assert first_edge_cycle(csr, RW, WW | WR) is None


# ----------------------------------------------------------------------
# Self-loops under masks: one snapshot answers many masks and restricted
# probes from a single self-loop table.


@st.composite
def self_looping_graphs(draw):
    g = draw(labeled_graphs())
    nodes = list(g.nodes())
    for node in draw(st.lists(st.sampled_from(nodes), max_size=4)):
        g[node][node] = g[node].get(node, 0) | draw(masks)
    return g


def _induced(graph, members):
    sub = dict_graph([node for node in graph if node in members], [])
    for node in sub:
        for succ, label in graph[node].items():
            if succ in members:
                sub[node][succ] = label
    return sub


@given(self_looping_graphs(), st.lists(masks, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_self_loops_under_masks_identical(g, mask_sequence):
    csr = freeze(g)
    for mask in mask_sequence:
        found = as_nodes(csr, csr.cyclic_scc_idx(mask))
        assert found == ref_cyclic_sorted(g, mask)
        assert as_sets(found) == as_sets(ref_cyclic(g, mask))


@given(self_looping_graphs(), masks, st.data())
@settings(max_examples=300, deadline=None)
def test_self_loops_restricted_probe_identical(g, mask, data):
    csr = freeze(g)
    members = data.draw(st.sets(st.sampled_from(list(g.nodes()))))
    ids = sorted(csr.index_of[m] for m in members)
    found = as_nodes(csr, csr.cyclic_scc_idx(mask, ids))
    sub = _induced(g, members)
    assert found == ref_cyclic_sorted(sub, mask)
    assert as_sets(found) == as_sets(ref_cyclic(sub, mask))


def test_self_loop_label_outside_the_mask_is_no_cycle():
    csr = snapshot((1, 1, 0b0100), (1, 2, 0b0001), (2, 2, 0b0011))
    assert csr.cyclic_scc_idx(0b0001) == [[1]]
    assert csr.cyclic_scc_idx(0b0100) == [[0]]
    assert csr.cyclic_scc_idx(0b1000) == []
    assert csr.cyclic_scc_idx(FULL_MASK) == [[0], [1]]
    assert csr.cyclic_scc_idx(0b0011, [0]) == []
    assert csr.cyclic_scc_idx(0b0100, [0]) == [[0]]


def test_self_loops_in_a_bulk_built_snapshot():
    # A long chain with self-loops at a few nodes, each under its own label.
    n = 520
    us = list(range(n - 1)) + [5, 77, 300]
    vs = list(range(1, n)) + [5, 77, 300]
    labels = [1] * (n - 1) + [2, 4, 2]
    csr = CSRGraph.from_edge_log(us, vs, labels)
    reference = canonical_csr(us, vs, labels)
    for mask in (1, 2, 4, 6, FULL_MASK):
        assert csr.cyclic_scc_idx(mask) == reference.cyclic_scc_idx(mask)
    found = csr.cyclic_scc_idx(2)
    assert sorted(csr.nodes[c[0]] for c in found) == [5, 300]


# ----------------------------------------------------------------------
# The two cyclic-SCC engines: scipy's labelling and the sorted Tarjan.


@given(self_looping_graphs(), masks, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_both_engines_identical(g, mask, padded, data):
    nodes = list(g)
    if padded:
        # An acyclic tail pushes the snapshot over the cut-over without
        # adding cyclic components, so the public call takes scipy.
        tail = [10**6 + i for i in range(_FAST_SCC_MIN_EDGES + 1)]
        for u, v in zip(tail, tail[1:]):
            g[u] = {v: 1}
        g[tail[-1]] = {}
    csr = freeze(g)
    assert (csr.edge_count >= _FAST_SCC_MIN_EDGES) == padded
    expected = ref_cyclic_sorted(g, mask)
    assert as_nodes(csr, csr._cyclic_tarjan(mask)) == expected
    assert as_nodes(csr, csr._cyclic_scipy(mask)) == expected
    assert as_nodes(csr, csr.cyclic_scc_idx(mask)) == expected
    # Members covering every cyclic node under a wider mask (the
    # refinement walk's probe) reproduce the unrestricted answer.
    wider = csr.cyclic_scc_idx(FULL_MASK)
    probe = sorted(i for component in wider for i in component)
    assert as_nodes(csr, csr.cyclic_scc_idx(mask, probe)) == expected
    # Any member set: the restricted Tarjan equals scipy on the subgraph
    # those members induce.
    members = data.draw(st.sets(st.sampled_from(nodes)))
    sub = freeze(_induced(g, members))
    ids = sorted(csr.index_of[m] for m in members)
    assert as_nodes(csr, csr.cyclic_scc_idx(mask, ids)) == as_nodes(
        sub, sub._cyclic_scipy(mask)
    )
