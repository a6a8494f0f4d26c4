"""Tests for the canonical paper scenarios."""

from repro import check
from repro.scenarios import (
    figure2_history,
    figure4_history,
    hserial_history,
    long_fork_history,
)


class TestFigure2:
    def test_complete_and_recoverable(self):
        history, names = figure2_history()
        result = check(history, consistency_model="serializable")
        # No garbage / duplicates: the observation is complete.
        assert "garbage-read" not in result.anomaly_types
        assert "duplicate-elements" not in result.anomaly_types

    def test_names_map_to_real_transactions(self):
        history, names = figure2_history()
        t1 = history[names["T1"]]
        assert any(m.fn == "append" and m.key == 250 for m in t1.mops)


class TestLongFork:
    def test_reported_as_g2(self):
        history, _names = long_fork_history()
        result = check(
            history, consistency_model="serializable", realtime_edges=False
        )
        assert not result.valid
        assert "G2-item" in result.anomaly_types

    def test_g2_tag_spares_si(self):
        # The paper's future-work caveat: long fork is tagged G2, which does
        # not rule out snapshot isolation.
        history, _names = long_fork_history()
        result = check(
            history,
            consistency_model="snapshot-isolation",
            realtime_edges=False,
        )
        assert result.valid


class TestHserial:
    def test_adya_example_is_serializable(self):
        # §2's H_serial: serializable, though only the traceable encoding
        # lets a client-side checker confirm it.
        history, _names = hserial_history()
        result = check(history, consistency_model="serializable",
                       realtime_edges=False, process_edges=False)
        assert result.valid

    def test_wr_chain_recovered(self):
        from repro.core import WR, analyze

        history, names = hserial_history()
        analysis = analyze(
            history,
            workload="list-append",
            process_edges=False,
            realtime_edges=False,
        )
        # T2 read-depends on T1 (x), T3 on T2 (y) — §2's walk-through.
        assert analysis.graph.has_edge(names["T1"], names["T2"], WR)
        assert analysis.graph.has_edge(names["T2"], names["T3"], WR)


class TestFigure4Factory:
    def test_cached_by_configuration(self):
        a = figure4_history(50, 2)
        b = figure4_history(50, 2)
        assert a is b  # cache hit

    def test_distinct_configurations_differ(self):
        a = figure4_history(50, 2)
        b = figure4_history(50, 3)
        assert a is not b

    def test_history_is_clean(self):
        result = check(
            figure4_history(100, 5), consistency_model="strict-serializable"
        )
        assert result.valid
