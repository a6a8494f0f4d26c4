"""Property tests for core data structures and algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WW, WR, RW, PROCESS, REALTIME
from repro.core.consistency import (
    ALL_MODELS,
    ANOMALY_RULES_OUT,
    implies,
    impossible_models,
    strongest_satisfiable,
    weakest_violated,
)
from repro.core.cycle_search import find_cycle_anomalies
from repro.core.objects import is_prefix, longest_common_prefix, trace
from repro.graph import EdgeLogGraph
from tests.graph_reference import add_edges, in_degree, out_degree, successors

BITS = [WW, WR, RW, PROCESS, REALTIME]


# ---------------------------------------------------------------------------
# Graph invariants


@st.composite
def graph_ops(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from(BITS),
            ),
            max_size=30,
        )
    )
    return n, edges


@given(graph_ops())
@settings(max_examples=200, deadline=None)
def test_graph_succ_degree_symmetry(data):
    n, edges = data
    g = EdgeLogGraph()
    add_edges(g, edges)
    for u, v, label in g.edges():
        assert label == g.edge_label(u, v)
        assert v in set(successors(g, u))
    # Edge count from out-degrees equals count from in-degrees.
    out_total = sum(out_degree(g, x) for x in g.nodes())
    in_total = sum(in_degree(g, x) for x in g.nodes())
    assert out_total == in_total == g.edge_count


@given(graph_ops(), st.sampled_from([WW, WR | RW, PROCESS | REALTIME]))
@settings(max_examples=100, deadline=None)
def test_masked_queries_are_label_intersection(data, mask):
    n, edges = data
    g = EdgeLogGraph()
    add_edges(g, edges)
    csr = g.freeze()
    everything = list(g.edges())
    assert list(g.edges(mask)) == [e for e in everything if e[2] & mask]
    for u, v, label in everything:
        assert g.has_edge(u, v, mask) == bool(label & mask)
        assert csr.has_edge(u, v, mask) == bool(label & mask)
        assert (v in set(successors(g, u, mask))) == bool(label & mask)
    # Masking hides edges, never nodes.
    assert list(csr.nodes) == list(g.nodes())


@given(graph_ops(), st.sampled_from(BITS))
@settings(max_examples=100, deadline=None)
def test_in_degree_counts_masked_sources(data, mask):
    n, edges = data
    g = EdgeLogGraph()
    add_edges(g, edges)
    for v in g.nodes():
        sources = {u for u in g.nodes() if g.edge_label(u, v) & mask}
        assert in_degree(g, v, mask) == len(sources)
        assert in_degree(g, v) == sum(
            1 for u in g.nodes() if g.edge_label(u, v)
        )


# ---------------------------------------------------------------------------
# Cycle search invariants


@given(graph_ops())
@settings(max_examples=200, deadline=None)
def test_reported_cycles_are_real(data):
    n, edges = data
    g = EdgeLogGraph()
    add_edges(g, edges)
    for anomaly in find_cycle_anomalies(g):
        assert anomaly.txns[0] == anomaly.txns[-1]
        interior = anomaly.txns[:-1]
        assert len(set(interior)) == len(interior)
        for u, v, bit in anomaly.steps:
            assert g.has_edge(u, v, bit), (u, v, bit)
        # G-single means exactly one rw step; G2 at least... the steps
        # chosen during classification must be consistent with the name.
        rw_steps = sum(1 for _u, _v, b in anomaly.steps if b == RW)
        if anomaly.name.startswith("G-single"):
            assert rw_steps == 1
        if anomaly.name.startswith("G2-item"):
            assert rw_steps >= 2
        if anomaly.name.startswith("G0"):
            assert rw_steps == 0
        if not anomaly.name.endswith(("-process", "-realtime", "-ts")):
            assert all(
                b in (WW, WR, RW) for _u, _v, b in anomaly.steps
            )


@given(graph_ops())
@settings(max_examples=150, deadline=None)
def test_acyclic_value_graph_reports_no_value_cycles(data):
    # Remove all cycles by keeping only forward edges u < v.
    n, edges = data
    g = EdgeLogGraph()
    add_edges(g, [(u, v, bit) for u, v, bit in edges if u < v])
    assert find_cycle_anomalies(g) == []


# ---------------------------------------------------------------------------
# Traces and prefixes


@given(st.lists(st.integers(), max_size=12))
@settings(max_examples=150, deadline=None)
def test_trace_prefix_relation(elements):
    version = tuple(elements)
    prefixes = list(trace(version))
    assert len(prefixes) == len(version) + 1
    for p in prefixes:
        assert is_prefix(p, version)
    # Each consecutive pair differs by exactly one appended element.
    for a, b in zip(prefixes, prefixes[1:]):
        assert len(b) == len(a) + 1
        assert b[: len(a)] == a


@given(st.lists(st.integers(), max_size=10), st.lists(st.integers(), max_size=10))
@settings(max_examples=200, deadline=None)
def test_longest_common_prefix_properties(a, b):
    a, b = tuple(a), tuple(b)
    lcp = longest_common_prefix(a, b)
    assert is_prefix(lcp, a) and is_prefix(lcp, b)
    # Maximality: one more element would disagree or overrun.
    n = len(lcp)
    if n < len(a) and n < len(b):
        assert a[n] != b[n]


# ---------------------------------------------------------------------------
# Consistency lattice


@given(st.sampled_from(sorted(ALL_MODELS)), st.sampled_from(sorted(ALL_MODELS)),
       st.sampled_from(sorted(ALL_MODELS)))
@settings(max_examples=200, deadline=None)
def test_implies_is_transitive(a, b, c):
    if implies(a, b) and implies(b, c):
        assert implies(a, c)


@given(st.lists(st.sampled_from(sorted(ANOMALY_RULES_OUT)), max_size=5))
@settings(max_examples=200, deadline=None)
def test_impossible_models_monotone(anomalies):
    base = impossible_models(anomalies)
    extended = impossible_models(anomalies + ["G1a"])
    assert base <= extended


@given(st.lists(st.sampled_from(sorted(ANOMALY_RULES_OUT)), max_size=5))
@settings(max_examples=200, deadline=None)
def test_impossible_set_is_upward_closed(anomalies):
    impossible = impossible_models(anomalies)
    for violated in impossible:
        for model in ALL_MODELS:
            if implies(model, violated):
                assert model in impossible


@given(st.lists(st.sampled_from(sorted(ANOMALY_RULES_OUT)), max_size=5))
@settings(max_examples=150, deadline=None)
def test_boundaries_partition_consistently(anomalies):
    impossible = impossible_models(anomalies)
    for weakest in weakest_violated(anomalies):
        assert weakest in impossible
    for strongest in strongest_satisfiable(anomalies):
        assert strongest not in impossible
