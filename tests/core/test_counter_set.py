"""Tests for the grow-set and counter analyzers."""

import pytest

from repro.core import RW, WR, analyze
from repro.errors import WorkloadError
from repro.history import History, add, inc, r


def analyze_set(*txns, **kw):
    kw.setdefault("process_edges", False)
    kw.setdefault("realtime_edges", False)
    return analyze(History.of(*txns), workload="grow-set", **kw)


def analyze_ctr(*txns, **kw):
    kw.setdefault("process_edges", False)
    kw.setdefault("realtime_edges", False)
    return analyze(History.of(*txns), workload="counter", **kw)


def names(analysis):
    return sorted({a.name for a in analysis.anomalies})


class TestAddIndex:
    def test_duplicate_adds_rejected(self):
        with pytest.raises(WorkloadError, match="unique adds"):
            analyze_set(("ok", 0, [add("x", 1)]), ("ok", 1, [add("x", 1)]))


class TestSection3Example:
    """The worked example of §3: T0 reads {0}, T1 adds 1, T2 adds 2,
    T3 reads {0, 1, 2}."""

    def analysis(self):
        return analyze_set(
            ("ok", 9, [add("x", 0)]),          # background writer of 0 (id 0)
            ("ok", 0, [r("x", {0})]),          # T0 (id 2)
            ("ok", 1, [add("x", 1)]),          # T1 (id 4)
            ("ok", 2, [add("x", 2)]),          # T2 (id 6)
            ("ok", 3, [r("x", {0, 1, 2})]),    # T3 (id 8)
        )

    def test_wr_edges(self):
        g = self.analysis().graph
        assert g.has_edge(4, 8, WR)  # T1 <wr T3
        assert g.has_edge(6, 8, WR)  # T2 <wr T3

    def test_rw_edges(self):
        g = self.analysis().graph
        assert g.has_edge(2, 4, RW)  # T0 <rw T1
        assert g.has_edge(2, 6, RW)  # T0 <rw T2

    def test_no_ww_between_adders(self):
        # Sets are order-free: T1 vs T2 stays ambiguous.
        g = self.analysis().graph
        assert not g.has_edge(4, 6) and not g.has_edge(6, 4)


class TestSetAnomalies:
    def test_garbage_element(self):
        a = analyze_set(("ok", 0, [r("x", {7})]))
        assert names(a) == ["garbage-read"]

    def test_aborted_add_read(self):
        a = analyze_set(
            ("fail", 0, [add("x", 1)]),
            ("ok", 1, [r("x", {1})]),
        )
        assert "G1a" in names(a)

    def test_internal_shrink(self):
        a = analyze_set(
            ("ok", 0, [add("x", 1)]),
            ("ok", 1, [r("x", {1}), r("x", set())]),
        )
        assert "internal" in names(a)

    def test_long_fork_style_cycle(self):
        from repro.core import find_cycle_anomalies

        a = analyze_set(
            ("ok", 0, [add("x", 1)]),
            ("ok", 1, [add("y", 1)]),
            ("ok", 2, [r("x", {1}), r("y", set())]),
            ("ok", 3, [r("x", set()), r("y", {1})]),
        )
        cycles = find_cycle_anomalies(a.graph)
        assert any(c.name == "G2-item" for c in cycles)


class TestCounter:
    def test_clean_counter_ok(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", 1)]),
            ("ok", 1, [inc("x", 1)]),
            ("ok", 2, [r("x", 2)]),
        )
        assert a.anomalies == []

    def test_read_above_possible_total(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", 1)]),
            ("ok", 1, [r("x", 5)]),
        )
        assert "garbage-read" in names(a)

    def test_indeterminate_increment_widens_range(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", 1)]),
            ("info", 1, [inc("x", 1)]),
            ("ok", 2, [r("x", 2)]),
        )
        assert a.anomalies == []

    def test_aborted_increment_not_counted(self):
        a = analyze_ctr(
            ("fail", 0, [inc("x", 3)]),
            ("ok", 1, [r("x", 3)]),
        )
        assert "garbage-read" in names(a)

    def test_negative_read_impossible(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", 1)]),
            ("ok", 1, [r("x", -1)]),
        )
        assert "garbage-read" in names(a)

    def test_negative_increments_allowed(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", -2)]),
            ("ok", 1, [r("x", -2)]),
        )
        assert a.anomalies == []

    def test_partial_reads_within_range(self):
        a = analyze_ctr(
            ("ok", 0, [inc("x", 1)]),
            ("ok", 1, [inc("x", 1)]),
            ("ok", 2, [r("x", 1)]),
        )
        assert a.anomalies == []

    def test_internal_counter_violation(self):
        a = analyze_ctr(
            ("ok", 0, [r("x", 0), inc("x", 2), r("x", 1)]),
            ("ok", 1, [inc("x", 1)]),
        )
        assert "internal" in names(a)


class TestCheckIntegration:
    def test_grow_set_through_check(self):
        from repro import check

        h = History.of(
            ("ok", 0, [add("x", 1)]),
            ("ok", 1, [r("x", {1})]),
        )
        result = check(h, workload="grow-set",
                       consistency_model="serializable")
        assert result.valid

    def test_counter_through_check(self):
        from repro import check

        h = History.of(
            ("ok", 0, [inc("x", 1)]),
            ("ok", 1, [r("x", 1)]),
        )
        result = check(h, workload="counter",
                       consistency_model="read-committed")
        assert result.valid
