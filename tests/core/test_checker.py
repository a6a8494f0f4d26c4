"""End-to-end checker tests: the anomaly catalogue of §7.

The paper states Elle's test suite demonstrates detection of G0, G1a, G1b,
G1c, G-single, G2, plus real-time and process cycles; this file is that
catalogue for our implementation (experiment E9 in DESIGN.md).
"""

import pytest

from repro import History, HistoryBuilder, append, check, r


def check_seq(*txns, **kw):
    return check(History.of(*txns), **kw)


class TestCleanHistories:
    def test_empty_history_valid(self):
        result = check(History([]), consistency_model="strict-serializable")
        assert result.valid
        assert result.anomalies == ()

    def test_serial_history_valid_at_strict_serializable(self):
        result = check_seq(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1]), append("x", 2)]),
            ("ok", 0, [r("x", [1, 2])]),
            consistency_model="strict-serializable",
        )
        assert result.valid
        assert result.anomaly_types == ()
        assert result.but_possibly == {"strict-serializable"}

    def test_valid_result_reports_nothing_ruled_out(self):
        result = check_seq(("ok", 0, [append("x", 1)]))
        assert result.not_ == frozenset()


class TestG0:
    def test_write_cycle(self):
        # T0 and T1 each append to x and y; reads reveal opposite orders.
        # Build observation: x = [1,2] but y = [2,1].
        full = History.interleaved(
            ("ok", 0, [append("x", 1), append("y", 1)]),
            ("ok", 1, [append("x", 2), append("y", 2)]),
            ("ok", 2, [r("x", [1, 2]), r("y", [2, 1])]),
        )
        result = check(full, consistency_model="read-uncommitted")
        assert not result.valid
        assert "G0" in result.anomaly_types


class TestG1a:
    def test_aborted_read(self):
        result = check_seq(
            ("fail", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
            consistency_model="read-committed",
        )
        assert not result.valid
        assert "G1a" in result.anomaly_types

    def test_g1a_legal_under_read_uncommitted(self):
        result = check_seq(
            ("fail", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
            consistency_model="read-uncommitted",
        )
        assert result.valid


class TestG1b:
    def test_intermediate_read(self):
        result = check_seq(
            ("ok", 0, [append("x", 1), append("x", 2)]),
            ("ok", 1, [r("x", [1])]),
            consistency_model="read-committed",
        )
        assert not result.valid
        assert "G1b" in result.anomaly_types


class TestG1c:
    def test_circular_information_flow(self):
        # T0 reads T1's append; T1 reads T0's append: wr cycle.
        h = History.interleaved(
            ("ok", 0, [append("x", 1), r("y", [2])]),
            ("ok", 1, [append("y", 2), r("x", [1])]),
        )
        result = check(h, consistency_model="read-committed")
        assert not result.valid
        assert "G1c" in result.anomaly_types


class TestGSingle:
    def history(self):
        # Read skew: T0 observed T1's append to y but not its append to x.
        return History.interleaved(
            ("ok", 0, [r("x", [1]), r("y", [1])]),
            ("ok", 1, [append("x", 2), append("y", 1)]),
            ("ok", 2, [r("x", [1, 2])]),
            ("ok", 3, [append("x", 1)]),
        )

    def test_read_skew_detected(self):
        result = check(self.history(), consistency_model="snapshot-isolation")
        assert not result.valid
        assert "G-single" in result.anomaly_types

    def test_read_skew_legal_under_read_committed(self):
        result = check(self.history(), consistency_model="read-committed")
        assert result.valid


class TestG2Item:
    def history(self):
        # Write skew: T0 and T1 each read both keys empty, then append to
        # different keys; neither observes the other.
        return History.interleaved(
            ("ok", 0, [r("x", []), r("y", []), append("x", 1)]),
            ("ok", 1, [r("x", []), r("y", []), append("y", 1)]),
            ("ok", 2, [r("x", [1]), r("y", [1])]),
        )

    def test_write_skew_detected(self):
        result = check(self.history(), consistency_model="serializable")
        assert not result.valid
        assert "G2-item" in result.anomaly_types

    def test_write_skew_legal_under_snapshot_isolation(self):
        result = check(self.history(), consistency_model="snapshot-isolation")
        assert result.valid
        assert "snapshot-isolation" not in result.impossible
        # The *maximal* surviving model is the realtime strengthening of SI.
        assert "strong-snapshot-isolation" in result.but_possibly


class TestRealtimeCycles:
    def test_stale_read_after_commit(self):
        # T0 appends 1 and completes; T1 then starts and reads [] — legal
        # under plain serializability, not under strict serializability.
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.ok(0, [append("x", 1)])
        b.invoke(1, [r("x", None)])
        b.ok(1, [r("x", [])])
        b.invoke(2, [r("x", None)])
        b.ok(2, [r("x", [1])])
        result = check(b.build(), consistency_model="strict-serializable")
        assert not result.valid
        assert "G-single-realtime" in result.anomaly_types

    def test_same_history_fine_without_realtime(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.ok(0, [append("x", 1)])
        b.invoke(1, [r("x", None)])
        b.ok(1, [r("x", [])])
        result = check(
            b.build(),
            consistency_model="serializable",
            realtime_edges=False,
        )
        assert result.valid


class TestProcessCycles:
    def test_non_monotonic_process_view(self):
        # One process observes x=[1], then un-observes it: needs process
        # edges to catch (the two reads alone are compatible).
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
            ("ok", 1, [r("x", [])]),
            ("ok", 2, [r("x", [1])]),
        )
        result = check(
            h,
            consistency_model="strong-session-snapshot-isolation",
            realtime_edges=False,
        )
        assert not result.valid
        assert any("process" in t for t in result.anomaly_types)

    def test_plain_snapshot_isolation_unaffected(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
            ("ok", 1, [r("x", [])]),
            ("ok", 2, [r("x", [1])]),
        )
        result = check(
            h,
            consistency_model="snapshot-isolation",
            process_edges=False,
            realtime_edges=False,
        )
        assert result.valid


class TestResultShape:
    def test_report_contains_explanations(self):
        h = History.interleaved(
            ("ok", 0, [append("x", 1), r("y", [2])]),
            ("ok", 1, [append("y", 2), r("x", [1])]),
        )
        result = check(h, consistency_model="serializable")
        report = result.report()
        assert "INVALID" in report
        assert "because" in report
        assert "a contradiction!" in report

    def test_anomalies_of_filter(self):
        result = check_seq(
            ("fail", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
        )
        assert len(result.anomalies_of("G1a")) == 1
        assert result.anomalies_of("G2-item") == []

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            check(History([]), workload="stack")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown consistency model"):
            check(History([]), consistency_model="acid")

    def test_shards_keyword_is_ignored(self):
        # Accepted for callers that still pass it; analysis is in-process.
        h = History.interleaved(
            ("ok", 0, [append("x", 1), r("y", [2])]),
            ("ok", 1, [append("y", 2), r("x", [1])]),
        )
        sharded = check(h, consistency_model="serializable", shards=2)
        assert sharded.report() == check(h, consistency_model="serializable").report()
