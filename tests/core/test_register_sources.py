"""Focused tests for each rw-register version-order source (§5.2)."""

from repro.core import RW, WW, analyze
from repro.history import History, HistoryBuilder, r, w


def analyze_sources(history, *sources):
    return analyze(
        history,
        workload="rw-register",
        process_edges=False,
        realtime_edges=False,
        sources=sources or ("initial-state", "write-follows-read"),
    )


class TestProcessSource:
    def history(self):
        # One process: writes 1, then (in a later txn) reads it and another
        # process's 2 never appears — per-key sequential consistency orders
        # version 1 before whatever the process touches next.
        return History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [w("x", 2)]),
            ("ok", 0, [r("x", 2)]),
        )

    def test_process_source_orders_versions(self):
        a = analyze_sources(self.history(), "process")
        # Process 0 touched x at 1, then at 2: version edge 1 -> 2 gives
        # ww T(w1) -> T(w2).
        assert a.graph.has_edge(0, 2, WW)

    def test_without_process_source_no_ww(self):
        a = analyze_sources(self.history(), "initial-state")
        assert not a.graph.has_edge(0, 2, WW)


class TestProcessSourceCycleDetection:
    def test_non_monotonic_process_view_poisons_key(self):
        # Process 0 writes 1, then reads nil: with the process source and
        # initial-state, the version order 1 -> nil -> 1 is cyclic.
        h = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 0, [r("x", None)]),
        )
        a = analyze_sources(h, "initial-state", "process")
        assert any(an.name == "cyclic-versions" for an in a.anomalies)


class TestSourceCombinations:
    def test_wfr_and_realtime_compose(self):
        b = HistoryBuilder()
        b.invoke(0, [w("x", 1)])
        b.ok(0, [w("x", 1)])
        b.invoke(1, [r("x", 1), w("x", 2)])
        b.ok(1, [r("x", 1), w("x", 2)])
        b.invoke(2, [r("x", None)])
        b.ok(2, [r("x", None)])
        h = b.build()
        # wfr alone: 1 < 2. realtime adds 2 < nil (the late nil read), and
        # initial-state nil < 1: a cycle spanning three sources.
        a = analyze_sources(h, "initial-state", "write-follows-read", "realtime")
        assert any(an.name == "cyclic-versions" for an in a.anomalies)

    def test_all_sources_on_clean_history_no_anomalies(self):
        h = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2)]),
            ("ok", 2, [r("x", 2)]),
        )
        a = analyze_sources(
            h, "initial-state", "write-follows-read", "process", "realtime"
        )
        assert a.anomalies == []

    def test_rw_edges_from_combined_sources(self):
        h = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1)]),
            ("ok", 2, [r("x", 1), w("x", 2)]),
        )
        a = analyze_sources(h, "initial-state", "write-follows-read")
        # Readers of version 1 anti-depend on the writer of 2.
        assert a.graph.has_edge(2, 4, RW)
