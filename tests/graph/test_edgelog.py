"""Equivalence tests for the edge-log graph and its bulk CSR builds.

The analysis pipeline emits its dependency graph through
:class:`~repro.graph.edgelog.EdgeLogGraph`, whose freeze must be
byte-identical to the canonical dict build
(:func:`graph_reference.canonical_csr`) over the same emissions: nodes
sorted, successor rows ascending, labels OR-ed — whatever the order of the
emissions and however they were split across the ``add_*`` calls.  The
vectorized :meth:`CSRGraph.from_edge_log` is pinned against it at every
log size, as is the engine choice of ``cyclic_scc_idx``: scipy's
labelling on large graphs, the Python Tarjan on small ones and on
restricted queries.
"""

import pickle
from array import array
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, EdgeLogGraph
from repro.graph.csr import _FAST_SCC_MIN_EDGES
from repro.graph.intervals import interval_precedence_pairs
from tests.graph_reference import (
    add_edges,
    canonical_csr,
    in_degree,
    out_degree,
    successors,
)

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.sampled_from([1, 2, 4, 8, 16]),
    ),
    max_size=200,
)


def reference_csr(edges):
    return canonical_csr(
        [u for u, _v, _l in edges],
        [v for _u, v, _l in edges],
        [label for _u, _v, label in edges],
    )


def csr_signature(csr):
    return (csr.nodes, csr.indptr, csr.indices, csr.labels, csr.label_union)


class TestEdgeLogEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists)
    def test_freeze_matches_dict_build(self, edges):
        log = EdgeLogGraph()
        add_edges(log, edges)
        assert csr_signature(log.freeze()) == csr_signature(
            reference_csr(edges)
        )

    @settings(max_examples=60, deadline=None)
    @given(edge_lists, st.data())
    def test_freeze_ignores_emission_order_and_split(self, edges, data):
        # Any permutation of the log, cut into runs that each go through
        # one of the three bulk appends, freezes to the same snapshot.
        emissions = data.draw(st.permutations(edges))
        log = EdgeLogGraph()
        start = 0
        while start < len(emissions):
            stop = data.draw(
                st.integers(min_value=start + 1, max_value=len(emissions))
            )
            run = emissions[start:stop]
            start = stop
            how = data.draw(st.sampled_from(["columns", "arrays", "keys"]))
            if how == "columns":
                log.add_edge_columns(*zip(*run))
            elif how == "keys":
                add_edges(log, run)
            else:
                for label, group in groupby(run, key=lambda edge: edge[2]):
                    us, vs, _ls = zip(*group)
                    log.add_edge_arrays(us, vs, label)
        assert csr_signature(log.freeze()) == csr_signature(
            reference_csr(edges)
        )

    @settings(max_examples=40, deadline=None)
    @given(edge_lists)
    def test_both_bulk_builders_agree(self, edges):
        us = [u for u, _v, _l in edges]
        vs = [v for _u, v, _l in edges]
        ls = [label for _u, _v, label in edges]
        ref = csr_signature(reference_csr(edges))
        assert csr_signature(CSRGraph.from_edge_log(us, vs, ls)) == ref
        columns = (array("q", us), array("q", vs), array("q", ls))
        assert csr_signature(CSRGraph.from_edge_log(*columns)) == ref

    def test_empty_log_freezes_to_an_empty_snapshot(self):
        csr = CSRGraph.from_edge_log(array("q"), array("q"), array("q"))
        assert csr_signature(csr) == csr_signature(reference_csr([]))
        assert csr_signature(csr) == ([], [0], [], [], 0)
        assert csr.node_count == csr.edge_count == 0
        assert csr.scc_idx() == []
        assert csr.cyclic_scc_idx() == []

    def test_numpy_builder_handles_sparse_node_values(self):
        # Node values far above the edge count take the np.unique path
        # instead of the dense-domain scatter.
        edges = [(10**9 + i % 7, 10**9 + (i * 3) % 7, 1) for i in range(40)]
        us = [u for u, _v, _l in edges]
        vs = [v for _u, v, _l in edges]
        ls = [1] * len(edges)
        assert csr_signature(
            CSRGraph.from_edge_log(us, vs, ls)
        ) == csr_signature(reference_csr(edges))

    @pytest.mark.parametrize("size", [1, 3, 1000])
    def test_builder_outputs_python_ints(self, size):
        log = EdgeLogGraph()
        add_edges(log, [(i, i + 1, 1) for i in range(size)])
        csr = log.freeze()
        for seq in (csr.nodes, csr.indptr, csr.indices, csr.labels):
            assert all(type(x) is int for x in seq)

    def test_repeated_pairs_or_labels_together(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1)])
        add_edges(log, [(1, 2, 4)])
        assert log.edge_label(1, 2) == 5
        assert log.edge_count == 1

    def test_freeze_is_cached_until_mutation(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1)])
        first = log.freeze()
        assert log.freeze() is first
        add_edges(log, [(2, 3, 1)])
        assert log.freeze() is not first
        assert log.node_count == 3


class TestEdgeLogApi:
    def build(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1), (2, 3, 2), (1, 3, 4)])
        return log

    def test_empty_log(self):
        log = EdgeLogGraph()
        assert len(log) == 0
        assert log.edge_count == 0
        assert list(log.nodes()) == []
        assert list(log.edges()) == []
        assert 1 not in log

    def test_self_loop_allowed(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 1, 4)])
        assert log.has_edge(1, 1, 4)
        assert successors(log, 1) == [1]
        assert log.freeze().cyclic_scc_idx(4) == [[0]]

    def test_add_edge_creates_nodes(self):
        log = EdgeLogGraph()
        add_edges(log, [(7, 9, 1)])
        assert 7 in log and 9 in log
        assert log.edge_label(7, 9) == 1
        assert log.edge_label(9, 7) == 0

    def test_successors_respect_mask(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1), (1, 3, 2), (1, 4, 1 | 4)])
        assert successors(log, 1, 1) == [2, 4]
        assert successors(log, 1, 2) == [3]
        assert successors(log, 1, 4) == [4]
        assert successors(log, 9) == []

    def test_has_edge_with_mask(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1)])
        assert log.has_edge(1, 2)
        assert log.has_edge(1, 2, 1)
        assert not log.has_edge(1, 2, 2)
        assert not log.has_edge(2, 1)

    def test_zero_label_rejected_by_add_edge_arrays(self):
        log = EdgeLogGraph()
        with pytest.raises(ValueError):
            log.add_edge_arrays([1], [2], 0)

    def test_add_edge_arrays_bulk(self):
        log = self.build()
        log.add_edge_arrays([3, 3], [1, 2], 8)
        assert log.edge_label(3, 1) == 8
        assert log.edge_label(3, 2) == 8
        log.add_edge_arrays([], [], 8)  # no-op

    def test_frozen_snapshot_survives_later_appends(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1)])
        first = log.freeze()
        add_edges(log, [(2, 3, 2)])
        add_edges(log, [(1, 2, 4)])
        assert first.edge_label(1, 2) == 1
        assert first.edge_label(2, 3) == 0
        assert 3 not in first
        assert first.edge_count == 1
        assert log.edge_label(1, 2) == 5

    def test_in_degree_respects_mask(self):
        log = EdgeLogGraph()
        add_edges(log, [(2, 1, 1), (3, 1, 2), (4, 1, 1 | 4)])
        assert in_degree(log, 1) == 3
        assert in_degree(log, 1, mask=1) == 2
        assert in_degree(log, 1, mask=2) == 1
        assert in_degree(log, 1, mask=8) == 0
        assert in_degree(log, 2) == 0

    def test_edges_keep_the_ored_label_under_either_bit(self):
        log = EdgeLogGraph()
        add_edges(log, [(1, 2, 1), (1, 3, 4), (1, 2, 2)])
        assert list(log.edges()) == [(1, 2, 3), (1, 3, 4)]
        assert list(log.edges(mask=2)) == [(1, 2, 3)]
        assert list(log.edges(mask=1)) == [(1, 2, 3)]
        assert list(log.edges(mask=8)) == []

    def test_add_edge_columns_from_sequences(self):
        log = self.build()
        log.add_edge_columns([3, 4], [4, 1], [8, 2])
        log.add_edge_columns([], [], [])  # no-op
        assert log.edge_label(3, 4) == 8
        assert log.edge_label(4, 1) == 2
        assert log.edge_count == 5

    def test_numpy_columns_match_sequence_appends(self):
        us, vs, ls = [5, 1, 5], [1, 7, 1], [1, 2, 4]
        via_lists = EdgeLogGraph()
        via_lists.add_edge_columns(us, vs, ls)
        via_lists.add_edge_arrays([7, 7], [5, 1], 8)
        via_numpy = EdgeLogGraph()
        via_numpy.add_edge_columns(
            np.array(us, dtype=np.int32),
            np.array(vs, dtype=np.int64),
            np.array(ls, dtype=np.int8),
        )
        via_numpy.add_edge_arrays(np.array([7, 7]), np.array([5, 1]), 8)
        assert csr_signature(via_numpy.freeze()) == csr_signature(
            via_lists.freeze()
        )
        assert via_numpy.edge_label(5, 1) == 5
        # int32 columns and strided views append the same values.
        wide = np.array([[5, 0, 1], [1, 0, 7], [5, 0, 1]], dtype=np.int64)
        via_views = EdgeLogGraph()
        via_views.add_edge_columns(wide[:, 0], wide[:, 2], np.array(ls, dtype=np.int32))
        via_views.add_edge_arrays(
            np.array([7, 9, 7], dtype=np.int32)[::2], wide[1:, 0][::-1], 8
        )
        assert via_views.log() == via_lists.log()
        assert csr_signature(via_views.freeze()) == csr_signature(via_lists.freeze())

    def test_nodes_edges_and_membership(self):
        log = self.build()
        assert list(log.nodes()) == [1, 2, 3]
        assert sorted(log.edges()) == [(1, 2, 1), (1, 3, 4), (2, 3, 2)]
        assert list(log.edges(mask=2)) == [(2, 3, 2)]
        assert 1 in log and 9 not in log
        assert len(log) == 3
        assert log.edge_count == 3

    def test_degrees_and_successors(self):
        log = self.build()
        assert out_degree(log, 1) == 2
        assert out_degree(log, 1, mask=1) == 1
        assert out_degree(log, 9) == 0
        assert in_degree(log, 3) == 2
        assert in_degree(log, 3, mask=2) == 1
        assert in_degree(log, 9) == 0
        assert successors(log, 1) == [2, 3]


class TestScipyEngine:
    def chain_graph(self, n, cyclic):
        log = EdgeLogGraph()
        add_edges(log, [(i, i + 1, 1) for i in range(n)])
        if cyclic:
            add_edges(log, [(n, 0, 1)])
        return log.freeze()

    @pytest.fixture
    def engines(self, monkeypatch):
        """Counts each engine's calls while still running it."""
        calls = {"scipy": 0, "tarjan": 0}
        for name, method in (
            ("scipy", "_cyclic_scipy"),
            ("tarjan", "_cyclic_tarjan"),
        ):
            original = getattr(CSRGraph, method)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(CSRGraph, method, counted)
        return calls

    def test_large_acyclic_graph_has_no_components(self, engines):
        csr = self.chain_graph(_FAST_SCC_MIN_EDGES + 8, cyclic=False)
        assert csr.cyclic_scc_idx(csr.label_union) == []
        assert engines == {"scipy": 1, "tarjan": 0}
        assert csr._cyclic_tarjan(csr.label_union) == []

    def test_large_cyclic_graph_is_one_ascending_component(self, engines):
        n = _FAST_SCC_MIN_EDGES + 8
        csr = self.chain_graph(n, cyclic=True)
        components = csr.cyclic_scc_idx(csr.label_union)
        assert engines == {"scipy": 1, "tarjan": 0}
        assert components == [list(range(n + 1))]
        assert csr._cyclic_tarjan(csr.label_union) == components

    def test_self_loop_is_a_component(self, engines):
        log = EdgeLogGraph()
        add_edges(log, [(i, i + 1, 1) for i in range(_FAST_SCC_MIN_EDGES)])
        add_edges(log, [(5, 5, 1)])
        add_edges(log, [(3, 3, 2)])
        csr = log.freeze()
        assert csr.cyclic_scc_idx(csr.label_union) == [[3], [5]]
        assert csr.cyclic_scc_idx(1) == [[5]]
        assert engines == {"scipy": 2, "tarjan": 0}
        assert csr._cyclic_tarjan(1) == [[5]]

    def test_mask_filters_edges(self, engines):
        # Under the full mask there is a cycle; under mask=1 there is not.
        log = EdgeLogGraph()
        add_edges(log, [(i, i + 1, 1) for i in range(_FAST_SCC_MIN_EDGES)])
        add_edges(log, [(_FAST_SCC_MIN_EDGES, 0, 2)])
        csr = log.freeze()
        assert csr.cyclic_scc_idx(1) == []
        assert csr.cyclic_scc_idx(2) == []
        assert csr.cyclic_scc_idx(csr.label_union) == [
            list(range(_FAST_SCC_MIN_EDGES + 1))
        ]
        assert engines == {"scipy": 3, "tarjan": 0}

    def test_small_graphs_and_restricted_queries_use_tarjan(self, engines):
        small = self.chain_graph(16, cyclic=True)
        assert small.cyclic_scc_idx(small.label_union) == [list(range(17))]
        large = self.chain_graph(_FAST_SCC_MIN_EDGES + 8, cyclic=True)
        assert large.cyclic_scc_idx(large.label_union, [0, 1, 2]) == []
        assert engines == {"scipy": 0, "tarjan": 2}


class TestPickle:
    def test_frozen_graph_round_trips_without_its_snapshot(self):
        log = EdgeLogGraph()
        add_edges(log, [(3, 1, 1), (1, 2, 4), (2, 3, 2), (1, 2, 1)])
        before = log.freeze()
        data = pickle.dumps(log, pickle.HIGHEST_PROTOCOL)
        assert b"CSRGraph" not in data
        loaded = pickle.loads(data)
        after = loaded.freeze()
        assert after is not before
        assert (after.nodes, after.indptr, after.indices, after.labels) == (
            before.nodes,
            before.indptr,
            before.indices,
            before.labels,
        )
        add_edges(loaded, [(2, 1, 8)])
        assert loaded.edge_label(2, 1) == 8
        assert log.edge_label(2, 1) == 0


class TestIntervalPairs:
    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            interval_precedence_pairs(["x"], [5], [5])
