"""Tests for process (session) and real-time order inference."""

from repro.core import PROCESS, REALTIME
from repro.core.analysis import Analysis
from repro.core.orders import add_process_edges, add_realtime_edges
from repro.history import History, HistoryBuilder, append
from tests.graph_reference import in_degree, out_degree


def analysis_for(history):
    return Analysis(history=history, workload="list-append")


class TestProcessOrder:
    def test_chains_per_process(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 0, [append("x", 3)]),
            ("ok", 1, [append("x", 4)]),
        )
        a = analysis_for(h)
        add_process_edges(a)
        assert a.graph.has_edge(0, 4, PROCESS)
        assert a.graph.has_edge(2, 6, PROCESS)
        assert not a.graph.has_edge(0, 2, PROCESS)

    def test_no_transitive_edges(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 0, [append("x", 2)]),
            ("ok", 0, [append("x", 3)]),
        )
        a = analysis_for(h)
        add_process_edges(a)
        assert a.graph.has_edge(0, 2, PROCESS)
        assert a.graph.has_edge(2, 4, PROCESS)
        assert not a.graph.has_edge(0, 4, PROCESS)

    def test_aborted_skipped_but_chain_continues(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("fail", 0, [append("x", 2)]),
            ("ok", 0, [append("x", 3)]),
        )
        a = analysis_for(h)
        add_process_edges(a)
        assert a.graph.has_edge(0, 4, PROCESS)
        assert not a.graph.has_edge(0, 2, PROCESS)

    def test_indeterminate_included(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("info", 0, [append("x", 2)]),
        )
        a = analysis_for(h)
        add_process_edges(a)
        assert a.graph.has_edge(0, 2, PROCESS)

    def test_evidence_records_process(self):
        h = History.of(
            ("ok", 5, [append("x", 1)]),
            ("ok", 5, [append("x", 2)]),
        )
        a = analysis_for(h)
        add_process_edges(a)
        assert a.edge_evidence(0, 2, PROCESS).process == 5


class TestRealtimeOrder:
    def test_sequential_edges(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
        )
        a = analysis_for(h)
        add_realtime_edges(a)
        assert a.graph.has_edge(0, 2, REALTIME)

    def test_concurrent_no_edges(self):
        h = History.interleaved(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
        )
        a = analysis_for(h)
        add_realtime_edges(a)
        assert a.graph.edge_count == 0

    def test_info_receives_but_never_emits(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.ok(0, [append("x", 1)])
        b.invoke(1, [append("x", 2)])   # info txn: never completes
        b.invoke(2, [append("x", 3)])
        b.ok(2, [append("x", 3)])
        h = b.build()
        a = analysis_for(h)
        add_realtime_edges(a)
        info_id = next(t.id for t in h.transactions if t.indeterminate)
        ok1 = 0
        assert a.graph.has_edge(ok1, info_id, REALTIME)
        assert out_degree(a.graph, info_id, REALTIME) == 0

    def test_aborted_excluded(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("fail", 1, [append("x", 2)]),
            ("ok", 2, [append("x", 3)]),
        )
        a = analysis_for(h)
        add_realtime_edges(a)
        failed = h.transactions[1].id
        assert failed not in a.graph or (
            in_degree(a.graph, failed) == 0 and out_degree(a.graph, failed) == 0
        )
        assert a.graph.has_edge(0, 4, REALTIME)

    def test_transitive_reduction(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [append("x", 3)]),
        )
        a = analysis_for(h)
        add_realtime_edges(a)
        assert a.graph.has_edge(0, 2, REALTIME)
        assert a.graph.has_edge(2, 4, REALTIME)
        assert not a.graph.has_edge(0, 4, REALTIME)
