"""Tests for the list-append analyzer: edges and non-cycle anomalies."""

import pickle

import pytest

from repro import check
from repro.core import PROCESS, REALTIME, RW, WR, WW, analyze
from repro.core.analysis import ColumnEvidence
from repro.core.anomalies import CycleAnomaly
from repro.core.list_append import ListAppendPlan
from repro.db import Isolation, TiDBRetry
from repro.errors import WorkloadError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, append, r
from repro.scenarios import figure4_history
from tests import list_append_reference as reference
from tests.graph_reference import out_degree


def analyze_txns(*txns, **kw):
    kw.setdefault("process_edges", False)
    kw.setdefault("realtime_edges", False)
    return analyze(History.of(*txns), workload="list-append", **kw)


def anomaly_names(analysis):
    return sorted({a.name for a in analysis.anomalies})


class TestWriteIndex:
    def test_duplicate_appends_rejected(self):
        with pytest.raises(WorkloadError, match="globally unique"):
            analyze_txns(
                ("ok", 0, [append("x", 1)]),
                ("ok", 1, [append("x", 1)]),
            )

    def test_same_value_different_keys_ok(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("y", 1)]),
        )
        assert analysis.anomalies == []


class TestWrEdges:
    def test_wr_from_last_element_writer(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),   # T0 (id 0)
            ("ok", 1, [append("x", 2)]),   # T1 (id 2)
            ("ok", 2, [r("x", [1, 2])]),   # T2 (id 4)
        )
        g = analysis.graph
        assert g.has_edge(2, 4, WR)      # writer of 2 -> reader
        assert not g.has_edge(0, 4, WR)  # earlier writer linked via ww chain

    def test_wr_own_read_no_self_edge(self):
        analysis = analyze_txns(("ok", 0, [append("x", 1), r("x", [1])]))
        assert analysis.graph.edge_count == 0

    def test_empty_read_no_wr(self):
        analysis = analyze_txns(
            ("ok", 0, [r("x", [])]),
            ("ok", 1, [append("x", 1)]),
        )
        assert not any(
            label & WR for _u, _v, label in analysis.graph.edges()
        )


class TestWwEdges:
    def test_chain_follows_trace(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [append("x", 3)]),
            ("ok", 3, [r("x", [1, 2, 3])]),
        )
        g = analysis.graph
        assert g.has_edge(0, 2, WW)
        assert g.has_edge(2, 4, WW)
        assert not g.has_edge(0, 4, WW)  # not transitive

    def test_intermediate_appends_skipped(self):
        # T0 appends 1 then 3 (1 is intermediate); T1 appends 2 between.
        # Order [1, 2, 3]: installed versions are [1,2] (T1) and [1,2,3] (T0).
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), append("x", 3)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1, 2, 3])]),
        )
        g = analysis.graph
        assert g.has_edge(2, 0, WW)      # T1 -> T0
        assert not g.has_edge(0, 2, WW)  # the intermediate 1 orders nothing

    def test_unobserved_appends_unordered(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1])]),  # 2 unobserved
        )
        assert not analysis.graph.has_edge(0, 2, WW)

    def test_ww_evidence_records_via(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1, 2])]),
        )
        ev = analysis.edge_evidence(0, 2, WW)
        assert ev.key == "x"
        assert ev.value == 2 and ev.prev_value == 1
        assert ev.via == 4


class TestRwEdges:
    def test_reader_of_stale_version(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
            ("ok", 2, [append("x", 2)]),
            ("ok", 3, [r("x", [1, 2])]),
        )
        assert analysis.graph.has_edge(2, 4, RW)  # reader of [1] -> writer of 2

    def test_empty_read_antidepends_on_first_writer(self):
        analysis = analyze_txns(
            ("ok", 0, [r("x", [])]),
            ("ok", 1, [append("x", 1)]),
            ("ok", 2, [r("x", [1])]),
        )
        assert analysis.graph.has_edge(0, 2, RW)

    def test_current_read_no_rw(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
        )
        assert not any(
            label & RW for _u, _v, label in analysis.graph.edges()
        )

    def test_rw_skips_to_next_installed(self):
        # T0 appends 1; T1 appends 2 then 3 (2 intermediate).  A reader of
        # [1] anti-depends on T1, which installed [1,2,3].
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2), append("x", 3)]),
            ("ok", 2, [r("x", [1])]),
            ("ok", 3, [r("x", [1, 2, 3])]),
        )
        assert analysis.graph.has_edge(4, 2, RW)

    def test_intermediate_read_no_rw_onto_producer(self):
        # Reader sees T1's intermediate version [1,2]; the next installed
        # version belongs to T1 itself, so no anti-dependency is emitted
        # (the real anomaly is the G1b, reported separately).
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2), append("x", 3)]),
            ("ok", 2, [r("x", [1, 2])]),
            ("ok", 3, [r("x", [1, 2, 3])]),
        )
        assert not analysis.graph.has_edge(4, 2, RW)
        assert "G1b" in anomaly_names(analysis)


class TestNonCycleAnomalies:
    def test_aborted_read_g1a(self):
        analysis = analyze_txns(
            ("fail", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
        )
        names = anomaly_names(analysis)
        assert "G1a" in names

    def test_info_writer_not_g1a(self):
        analysis = analyze_txns(
            ("info", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
        )
        assert "G1a" not in anomaly_names(analysis)

    def test_intermediate_read_g1b(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), append("x", 2)]),
            ("ok", 1, [r("x", [1])]),
        )
        assert "G1b" in anomaly_names(analysis)

    def test_own_intermediate_read_not_g1b(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), r("x", [1]), append("x", 2)]),
        )
        assert "G1b" not in anomaly_names(analysis)

    def test_final_version_read_not_g1b(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), append("x", 2)]),
            ("ok", 1, [r("x", [1, 2])]),
        )
        assert "G1b" not in anomaly_names(analysis)

    def test_garbage_read(self):
        analysis = analyze_txns(("ok", 0, [r("x", [99])]))
        assert anomaly_names(analysis) == ["garbage-read"]

    def test_duplicate_elements(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1, 1])]),
        )
        assert "duplicate-elements" in anomaly_names(analysis)

    def test_dirty_update(self):
        # Aborted T0's element 1 below committed T1's element 2: T1's
        # append acted on aborted state.
        analysis = analyze_txns(
            ("fail", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1, 2])]),
        )
        names = anomaly_names(analysis)
        assert "dirty-update" in names
        assert "G1a" in names  # the read itself also saw aborted data

    def test_incompatible_order_blocks_edges(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1, 2])]),
            ("ok", 3, [r("x", [2, 1])]),
        )
        assert "incompatible-order" in anomaly_names(analysis)

    def test_internal_anomaly_surfaces(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), r("x", [])]),
        )
        assert "internal" in anomaly_names(analysis)

    def test_clean_history_no_anomalies(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1]), append("x", 2)]),
            ("ok", 2, [r("x", [1, 2])]),
        )
        assert analysis.anomalies == []


class TestOrderEdges:
    def test_process_edges_chain_same_process(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 0, [append("x", 2)]),
            ("ok", 1, [append("y", 1)]),
        )
        analysis = analyze(
            h, workload="list-append", process_edges=True, realtime_edges=False
        )
        assert analysis.graph.has_edge(0, 2, PROCESS)
        assert not analysis.graph.has_edge(2, 4, PROCESS)

    def test_realtime_edges_sequential(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
        )
        analysis = analyze(
            h, workload="list-append", process_edges=False, realtime_edges=True
        )
        assert analysis.graph.has_edge(0, 2, REALTIME)

    def test_realtime_skips_concurrent(self):
        h = History.interleaved(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
        )
        analysis = analyze(
            h, workload="list-append", process_edges=False, realtime_edges=True
        )
        assert not any(
            label & REALTIME for _u, _v, label in analysis.graph.edges()
        )

    def test_aborted_txns_excluded_from_orders(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("fail", 0, [append("x", 2)]),
            ("ok", 0, [append("x", 3)]),
        )
        analysis = analyze(
            h, workload="list-append", process_edges=True, realtime_edges=True
        )
        failed = h.transactions[1].id
        assert failed not in analysis.graph or out_degree(analysis.graph, failed) == 0
        assert analysis.graph.has_edge(0, 4, PROCESS)


class TestVersionOrder:
    """The longest committed read defines each key's version order (§4.3.2).

    Every other committed read of the key must be a prefix of it; reads
    that are not are ``incompatible-order`` anomalies.
    """

    def incompatible(self, analysis):
        return [a for a in analysis.anomalies if a.name == "incompatible-order"]

    def test_single_read_orders_its_writers(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),  # id 0
            ("ok", 1, [append("x", 2)]),  # id 2
            ("ok", 2, [append("x", 3)]),  # id 4
            ("ok", 3, [r("x", [1, 2, 3])]),
        )
        assert analysis.anomalies == []
        assert analysis.graph.has_edge(0, 2, WW)
        assert analysis.graph.has_edge(2, 4, WW)

    def test_longest_read_wins(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),  # id 0
            ("ok", 1, [append("x", 2)]),  # id 2
            ("ok", 2, [append("x", 3)]),  # id 4
            ("ok", 3, [r("x", [1])]),
            ("ok", 4, [r("x", [1, 2])]),
            ("ok", 5, [r("x", [1, 2, 3])]),
        )
        assert analysis.anomalies == []
        # Only the longest read saw 3 installed after 2.
        assert analysis.graph.has_edge(2, 4, WW)

    def test_incompatible_read_flagged(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2)]),
            ("ok", 2, [r("x", [1, 2])]),
            ("ok", 3, [r("x", [2, 1])]),
        )
        (anomaly,) = analysis.anomalies
        assert anomaly.name == "incompatible-order"

    def test_one_report_per_distinct_value(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), append("x", 2), append("x", 3)]),
            ("ok", 1, [append("x", 9)]),
            ("ok", 2, [r("x", [1, 2, 3])]),
            ("ok", 3, [r("x", [9])]),
            ("ok", 4, [r("x", [9])]),
        )
        assert len(self.incompatible(analysis)) == 1

    def test_divergent_mid_history(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1), append("x", 2), append("x", 3)]),
            ("ok", 1, [append("x", 9)]),
            ("ok", 2, [r("x", [1, 2, 3])]),
            ("ok", 3, [r("x", [1, 9])]),
        )
        (anomaly,) = self.incompatible(analysis)
        assert anomaly.data["value"] == (1, 9)

    def test_empty_reads_compatible_with_everything(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]),  # id 0
            ("ok", 1, [r("x", [])]),  # id 2
            ("ok", 2, [r("x", [1])]),
        )
        assert analysis.anomalies == []
        # The empty read still anti-depends on the first installed write.
        assert analysis.graph.has_edge(2, 0, RW)

    def test_only_empty_reads_give_no_edges(self):
        analysis = analyze_txns(("ok", 0, [r("x", [])]), ("ok", 1, [r("x", [])]))
        assert analysis.anomalies == []
        assert analysis.graph.edge_count == 0

    def test_uncommitted_reads_ignored(self):
        analysis = analyze_txns(
            ("ok", 9, [append("x", 1)]),
            ("ok", 0, [r("x", [1])]),
            ("info", 1, [r("x", [1, 2, 3])]),
            ("fail", 2, [r("x", [9, 9, 9])]),
        )
        assert analysis.anomalies == []

    def test_unknown_read_values_ignored(self):
        analysis = analyze_txns(
            ("ok", 1, [append("y", 5)]),  # id 0
            ("ok", 0, [r("x", None), r("y", [5])]),  # id 2
        )
        assert analysis.anomalies == []
        assert sorted(analysis.graph.edges()) == [(0, 2, WR)]

    def test_keys_independent(self):
        analysis = analyze_txns(
            ("ok", 2, [append("x", 1), append("y", 7)]),  # id 0
            ("ok", 3, [append("x", 2), append("y", 8)]),  # id 2
            ("ok", 0, [r("x", [1, 2]), r("y", [7])]),  # id 4
            ("ok", 1, [r("y", [7, 8])]),  # id 6
        )
        assert analysis.anomalies == []
        assert analysis.graph.has_edge(0, 2, WW)
        assert analysis.graph.has_edge(4, 2, RW)  # missed y = 8

    def test_writes_do_not_define_orders(self):
        analysis = analyze_txns(
            ("ok", 0, [append("x", 1)]), ("ok", 1, [append("x", 2)])
        )
        assert analysis.anomalies == []
        assert analysis.graph.edge_count == 0


class TestDeferredEvidence:
    """Evidence is one deferred source over the pass's own edge columns."""

    def test_valid_check_leaves_evidence_pending(self, monkeypatch):
        # Figure 4 shape: a valid check builds no record until evidence is
        # read, and then holds exactly the per-key reference's records.
        history = figure4_history(500, 10)
        result = check(history)
        assert result.valid
        (source,) = result.analysis._pending
        assert isinstance(source, ColumnEvidence)
        evidence = result.analysis.evidence
        assert evidence and not result.analysis._pending
        reference.use_reference(monkeypatch)
        assert evidence == check(History(history.ops)).analysis.evidence

    def test_single_bit_lookups_match_the_full_replay(self):
        # Cycle explanations look records up one bit at a time; each must
        # be the record a full evidence read holds, and none may replay.
        history = faulty_history()
        full = analyze(history).evidence
        lazy = analyze(history)
        assert full
        for (u, v, bit), record in full.items():
            assert lazy.edge_evidence(u, v, bit) == record
        assert lazy.edge_evidence(-1, 0, WR) is None
        assert lazy._pending  # still deferred: nothing was replayed
        assert lazy.evidence == full

    def test_pickled_result_carries_evidence(self):
        history = run_workload(
            RunConfig(
                txns=300,
                concurrency=6,
                isolation=Isolation.SNAPSHOT_ISOLATION,
                workload=WorkloadConfig(workload="list-append", active_keys=5),
                seed=1,
                faults=lambda rng: TiDBRetry(rng),
            )
        )
        result = check(history, consistency_model="snapshot-isolation")
        assert any(isinstance(a, CycleAnomaly) for a in result.anomalies)
        restored = pickle.loads(pickle.dumps(result))
        assert sorted(restored.analysis.evidence.items()) == sorted(
            result.analysis.evidence.items()
        )
        # Pickling a still-pending analysis materializes it first.
        pending = analyze(history)
        restored = pickle.loads(pickle.dumps(pending))
        assert restored.evidence == result.analysis.evidence

    def test_evidence_read_after_the_history_grew(self):
        # The source holds the pass's columns, never the live index: read
        # after ``History.extend``, it gives the pre-extend evidence.
        ops = list(figure4_history(200, 5).ops)
        expected = check(History(ops[:-40])).analysis.evidence
        history = History(ops[:-40])
        result = check(history)
        lookups = analyze(History(ops[:-40]))
        history.extend(ops[-40:])
        assert result.analysis.evidence == expected
        assert expected
        for (u, v, bit), record in expected.items():
            assert lookups.edge_evidence(u, v, bit) == record


def faulty_history():
    """Read-uncommitted with aborts and tidb-retry: G1a, G1b, dirty
    updates and incompatible orders on list-append keys."""
    return run_workload(
        RunConfig(
            txns=400,
            concurrency=8,
            isolation=Isolation.READ_UNCOMMITTED,
            workload=WorkloadConfig(workload="list-append", active_keys=6),
            seed=3,
            crash_probability=0.02,
            abort_probability=0.2,
            faults=lambda rng: TiDBRetry(rng),
        )
    )


def odd_history():
    """Duplicate and garbage elements, a value appended twice by its own
    transaction, and an unknown read: the screen's rarer branches."""
    return History.of(
        ("ok", 0, [append("x", 1), append("x", 2), append("x", 1)]),
        ("ok", 1, [append("x", 3)]),
        ("ok", 2, [r("x", [1, 2, 1, 3])]),
        ("ok", 3, [r("x", [1, 2])]),
        ("ok", 4, [r("x", [1])]),
        ("ok", 5, [r("x", None)]),
        ("ok", 6, [r("y", [7, 8])]),
        ("ok", 7, [append("y", 8)]),
        ("ok", 8, [r("y", [8, 9])]),
        ("ok", 9, [r("y", [8])]),
        ("ok", 10, [append("z", 5), r("z", [5, 5])]),
    )


class TestOnePath:
    """One columnar pass serves batch checks and streams alike."""

    @pytest.mark.parametrize(
        "histories,expected",
        [
            (
                lambda: [figure4_history(300, 8)],
                set(),
            ),
            (
                lambda: [faulty_history(), odd_history()],
                {
                    "G1a",
                    "G1b",
                    "dirty-update",
                    "duplicate-elements",
                    "garbage-read",
                    "incompatible-order",
                },
            ),
        ],
        ids=["clean", "faulty"],
    )
    def test_a_list_append_batch_depends_on_its_key_alone(self, histories, expected):
        # The stream's per-key cache relies on it: a key's batch is the
        # same whichever key list it was analyzed in, and equals the
        # per-key reference's, anomalies in order.
        seen = set()
        for history in histories():
            plan = ListAppendPlan(history)
            keys = list(plan.keys())
            together = plan.analyze_keys(keys)
            for key, (anomalies, source) in zip(keys, together):
                (alone,) = plan.analyze_keys([key])
                fragment = source.records()
                for batch in (
                    (alone[0], alone[1].records()),
                    reference.analyze_key(plan, key),
                ):
                    got = [a.__dict__ for a in batch[0]]
                    assert got == [a.__dict__ for a in anomalies]
                    assert list(batch[1].items()) == list(fragment.items())
                seen.update(a.name for a in anomalies)
        assert seen == expected
        if expected:
            assert max(len(anomalies) for anomalies, _f in together) > 1

    def test_odd_history_matches_the_reference(self, monkeypatch):
        # The whole-index merge of the rarer branches, against the
        # per-key walk: anomalies in order, edges and evidence.
        def signature(result):
            analysis = result.analysis
            return (
                [a.__dict__ for a in result.anomalies],
                sorted(analysis.graph.edges()),
                analysis.evidence,
            )

        shipped = signature(check(odd_history()))
        reference.use_reference(monkeypatch)
        assert signature(check(odd_history())) == shipped
