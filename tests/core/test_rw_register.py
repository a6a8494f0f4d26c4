"""Tests for the rw-register analyzer: partial version orders (§5.2, §7.4)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import check
from repro.core import RW, WR, WW, analyze
from repro.core.rw_register import KNOWN_SOURCES, RwRegisterPlan
from repro.db import Isolation, TiDBRetry, YugaByteStaleRead
from repro.errors import WorkloadError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, HistoryBuilder, r, w
from tests import rw_register_reference as reference


def analyze_txns(*txns, **kw):
    kw.setdefault("process_edges", False)
    kw.setdefault("realtime_edges", False)
    return analyze(History.of(*txns), workload="rw-register", **kw)


def names(analysis):
    return sorted({a.name for a in analysis.anomalies})


class TestWriteIndex:
    def test_duplicate_writes_rejected(self):
        with pytest.raises(WorkloadError, match="unique writes"):
            analyze_txns(("ok", 0, [w("x", 1)]), ("ok", 1, [w("x", 1)]))

    def test_none_write_rejected(self):
        with pytest.raises(WorkloadError, match="initial version"):
            analyze_txns(("ok", 0, [w("x", None)]))

    def test_same_value_other_key_fine(self):
        a = analyze_txns(("ok", 0, [w("x", 1)]), ("ok", 1, [w("y", 1)]))
        assert a.anomalies == []


class TestWrEdges:
    def test_read_links_writer(self):
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1)]),
        )
        assert a.graph.has_edge(0, 2, WR)

    def test_nil_read_no_wr(self):
        a = analyze_txns(("ok", 0, [r("x", None)]), ("ok", 1, [w("x", 1)]))
        assert not any(l & WR for _u, _v, l in a.graph.edges())


class TestInitialStateInference:
    def test_nil_reader_antidepends_on_all_writers(self):
        a = analyze_txns(
            ("ok", 0, [r("x", None)]),
            ("ok", 1, [w("x", 1)]),
            ("ok", 2, [w("x", 2)]),
        )
        assert a.graph.has_edge(0, 2, RW)
        assert a.graph.has_edge(0, 4, RW)

    def test_disabled_source_no_edges(self):
        a = analyze(
            History.of(("ok", 0, [r("x", None)]), ("ok", 1, [w("x", 1)])),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("write-follows-read",),
        )
        assert not any(l & RW for _u, _v, l in a.graph.edges())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown version-order sources"):
            analyze(History([]), workload="rw-register", sources=("vector-clocks",))


class TestWriteFollowsRead:
    def test_rmw_orders_versions(self):
        # T1 read 1, wrote 2: version 1 < 2, so T0 ww T1 and readers of 1
        # anti-depend on T1.
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2)]),
            ("ok", 2, [r("x", 1)]),
        )
        assert a.graph.has_edge(0, 2, WW)
        assert a.graph.has_edge(4, 2, RW)

    def test_own_write_chain(self):
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2), w("x", 3)]),
            ("ok", 2, [r("x", 3)]),
        )
        # Version chain 1 < 2 < 3 within T1 produces no self ww edges, but
        # the cross-transaction edge T0 -> T1 exists.
        assert a.graph.has_edge(0, 2, WW)

    def test_g1b_intermediate_register_read(self):
        a = analyze_txns(
            ("ok", 0, [w("x", 1), w("x", 2)]),
            ("ok", 1, [r("x", 1)]),
        )
        assert "G1b" in names(a)


class TestUnanchoredWrites:
    def test_info_write_unobserved_no_version_edges(self):
        a = analyze_txns(
            ("ok", 0, [r("x", None)]),
            ("info", 1, [w("x", 1)]),
        )
        # The indeterminate write might never have committed: no rw edge.
        assert not any(l & RW for _u, _v, l in a.graph.edges())

    def test_info_write_observed_is_anchored(self):
        a = analyze_txns(
            ("ok", 0, [r("x", None)]),
            ("info", 1, [w("x", 1)]),
            ("ok", 2, [r("x", 1)]),
        )
        # The committed read of 1 proves the info write committed.
        assert a.graph.has_edge(0, 2, RW)
        assert a.graph.has_edge(2, 4, WR)


class TestNonCycleAnomalies:
    def test_garbage_read(self):
        a = analyze_txns(("ok", 0, [r("x", 42)]))
        assert names(a) == ["garbage-read"]

    def test_aborted_register_read(self):
        a = analyze_txns(
            ("fail", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1)]),
        )
        assert "G1a" in names(a)

    def test_internal_dgraph_case(self):
        a = analyze_txns(("ok", 0, [w(10, 2), r(10, 1)]), ("ok", 1, [w(10, 1)]))
        assert "internal" in names(a)

    def test_lost_update(self):
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2)]),
            ("ok", 2, [r("x", 1), w("x", 3)]),
        )
        assert "lost-update" in names(a)

    def test_no_lost_update_on_chain(self):
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2)]),
            ("ok", 2, [r("x", 2), w("x", 3)]),
        )
        assert "lost-update" not in names(a)


class TestCyclicVersions:
    def test_dgraph_nil_read_after_write(self):
        # §7.4: T1 wrote 540=2 and completed; seconds later T2 read 540=nil.
        # With initial-state + realtime sources the version order is cyclic.
        b = HistoryBuilder()
        b.invoke(0, [r(541, None), w(540, 2)])
        b.ok(0, [r(541, None), w(540, 2)])
        b.invoke(1, [r(540, None), w(544, 1)])
        b.ok(1, [r(540, None), w(544, 1)])
        a = analyze(
            b.build(),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("initial-state", "write-follows-read", "realtime"),
        )
        assert "cyclic-versions" in names(a)

    def test_exact_cycle_over_string_versions_through_initial_state(self):
        # Initial state puts nil before "a", write-follows-read puts "a"
        # before "b", and realtime puts "b" before the late nil read: one
        # component whose members come in canonical version order (INIT,
        # then written values by first write).
        b = HistoryBuilder()
        b.invoke(0, [w("x", "a")])
        b.ok(0, [w("x", "a")])
        b.invoke(1, [r("x", "a"), w("x", "b")])
        b.ok(1, [r("x", "a"), w("x", "b")])
        b.invoke(2, [r("x", None)])
        b.ok(2, [r("x", None)])
        a = analyze(
            b.build(),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("initial-state", "write-follows-read", "realtime"),
        )
        (anomaly,) = a.anomalies
        assert anomaly.name == "cyclic-versions"
        assert anomaly.txns == (0, 2, 4)
        assert anomaly.data == {"key": "x", "values": (None, "a", "b")}
        assert "cyclic over values ['a', 'b', None]" in anomaly.message

    @pytest.mark.parametrize("whole_index", [True, False])
    def test_component_values_follow_first_write_not_first_emission(
        self, monkeypatch, whole_index
    ):
        # T3 spans the run, so it writes "c" in the first write slot and
        # is concurrent with everything.  Its read-modify-write emits b -> c
        # before realtime emits a -> b -> a; the component still lists "a"
        # (first written) before "b", on both analysis paths.
        if not whole_index:
            reference.use_reference(monkeypatch)
        b = HistoryBuilder()
        b.invoke(3, [r("x", "b"), w("x", "c")])
        b.invoke(0, [w("x", "a")])
        b.ok(0, [w("x", "a")])
        b.invoke(1, [w("x", "b")])
        b.ok(1, [w("x", "b")])
        b.invoke(2, [r("x", "a")])
        b.ok(2, [r("x", "a")])
        b.ok(3, [r("x", "b"), w("x", "c")])
        a = analyze(
            b.build(),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("write-follows-read", "realtime"),
        )
        (anomaly,) = a.anomalies
        assert anomaly.name == "cyclic-versions"
        assert anomaly.data == {"key": "x", "values": ("a", "b")}

    def test_cyclic_key_keeps_wr_edges(self):
        b = HistoryBuilder()
        b.invoke(0, [w(540, 2)])
        b.ok(0, [w(540, 2)])
        b.invoke(1, [r(540, 2)])
        b.ok(1, [r(540, 2)])
        b.invoke(2, [r(540, None)])
        b.ok(2, [r(540, None)])
        a = analyze(
            b.build(),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("initial-state", "realtime"),
        )
        assert "cyclic-versions" in names(a)
        assert a.graph.has_edge(0, 2, WR)  # wr survives the discard
        # But no rw/ww derived from the poisoned order.
        assert not any(l & (RW | WW) for _u, _v, l in a.graph.edges())

    def test_clean_keys_unaffected_by_poisoned_key(self):
        b = HistoryBuilder()
        b.invoke(0, [w(540, 2), w("y", 7)])
        b.ok(0, [w(540, 2), w("y", 7)])
        b.invoke(1, [r(540, None), r("y", 7)])
        b.ok(1, [r(540, None), r("y", 7)])
        a = analyze(
            b.build(),
            workload="rw-register",
            process_edges=False,
            realtime_edges=False,
            sources=("initial-state", "realtime"),
        )
        assert "cyclic-versions" in names(a)
        assert a.graph.has_edge(0, 2, WR)  # y's wr edge intact


class TestDgraphReadSkew:
    def test_paper_7_4_read_skew(self):
        # T1: r(2432, 10), r(2434, nil); T2: w(2434, 10); T3: w(2432, 10)...
        # (values made unique per key: register workload requirement).
        h = History.interleaved(
            ("ok", 0, [r(2432, 10), r(2434, None)]),
            ("ok", 1, [w(2434, 10)]),
            ("ok", 2, [w(2432, 10), r(2434, 10)]),
        )
        a = analyze(
            h, workload="rw-register", process_edges=False, realtime_edges=False
        )
        # T0 read T2's write of 2432 (wr T2->T0) and missed T1's write of
        # 2434 (rw T0->T1, via initial-state); T2 read T1's write
        # (wr T1->T2): cycle T0 -> T1 -> T2 -> T0 with one rw: G-single.
        from repro.core import find_cycle_anomalies

        cycles = find_cycle_anomalies(a.graph)
        assert any(c.name == "G-single" for c in cycles)


class TestCheckIntegration:
    def test_register_workload_through_check(self):
        from repro import check

        h = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1), w("x", 2)]),
            ("ok", 2, [r("x", 2)]),
        )
        result = check(h, workload="rw-register",
                       consistency_model="serializable")
        assert result.valid

    def test_lost_update_invalidates_si(self):
        from repro import check

        h = History.interleaved(
            ("ok", 0, [r("x", None), w("x", 1)]),
            ("ok", 1, [r("x", None), w("x", 2)]),
            ("ok", 2, [r("x", 2)]),
        )
        result = check(h, workload="rw-register",
                       consistency_model="snapshot-isolation")
        assert not result.valid
        assert "lost-update" in result.anomaly_types


def stale_register_history():
    return run_workload(
        RunConfig(
            txns=400,
            concurrency=8,
            isolation=Isolation.SNAPSHOT_ISOLATION,
            workload=WorkloadConfig(workload="rw-register", active_keys=6),
            seed=3,
            crash_probability=0.02,
            faults=lambda rng: YugaByteStaleRead(rng, probability=0.4, staleness=3),
        )
    )


def dirty_register_history():
    return run_workload(
        RunConfig(
            txns=400,
            concurrency=8,
            isolation=Isolation.READ_UNCOMMITTED,
            workload=WorkloadConfig(workload="rw-register", active_keys=6),
            seed=3,
            crash_probability=0.02,
            abort_probability=0.2,
            faults=lambda rng: TiDBRetry(rng),
        )
    )


class TestWholeIndexPass:
    """One version-graph pass serves batch checks and streams alike."""

    def test_neither_batch_nor_stream_imports_the_reference(self):
        # The per-key references live in tests/; src/ has one analyzer per
        # workload, for rw-register and list-append alike.
        script = textwrap.dedent(
            """
            import sys

            from repro import check
            from repro.core import StreamingChecker
            from repro.core.list_append import ListAppendPlan
            from repro.core.rw_register import KNOWN_SOURCES, RwRegisterPlan
            from repro.db import Isolation, TiDBRetry, YugaByteStaleRead
            from repro.generator import RunConfig, WorkloadConfig, run_workload

            history = run_workload(
                RunConfig(
                    txns=400,
                    concurrency=8,
                    isolation=Isolation.SNAPSHOT_ISOLATION,
                    workload=WorkloadConfig(workload="rw-register", active_keys=6),
                    seed=3,
                    crash_probability=0.02,
                    faults=lambda rng: YugaByteStaleRead(
                        rng, probability=0.4, staleness=3
                    ),
                )
            )
            options = dict(workload="rw-register", sources=sorted(KNOWN_SOURCES))
            batch = check(history, **options)
            assert "cyclic-versions" in batch.anomaly_types
            assert batch.analysis.evidence
            stream = StreamingChecker(**options)
            ops = list(history.ops)
            for start in range(0, len(ops), 200):
                update = stream.extend(ops[start : start + 200])
            assert update.result.report() == batch.report()
            assert "analyze_key" not in vars(RwRegisterPlan)

            history = run_workload(
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
            batch = check(history)
            assert {"G1a", "G1b", "dirty-update"} <= set(batch.anomaly_types)
            assert batch.analysis.evidence
            stream = StreamingChecker()
            ops = list(history.ops)
            for start in range(0, len(ops), 200):
                update = stream.extend(ops[start : start + 200])
            assert update.result.report() == batch.report()
            assert "analyze_key" not in vars(ListAppendPlan)
            assert not [name for name in sys.modules if "reference" in name]
            """
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, "-c", script], cwd=root, env=env, check=True)

    @pytest.mark.parametrize(
        "history,expected",
        [
            (stale_register_history, {"cyclic-versions"}),
            (dirty_register_history, {"G1a", "G1b", "lost-update"}),
        ],
        ids=["stale", "dirty"],
    )
    def test_a_register_batch_depends_on_its_key_alone(self, history, expected):
        # The stream's per-key cache relies on it: a key's batch is the
        # same whichever key list it was analyzed in, and equals the
        # per-key reference's, anomalies in order.
        plan = RwRegisterPlan(history(), sources=sorted(KNOWN_SOURCES))
        keys = list(plan.keys())
        together = plan.analyze_keys(keys)
        seen = set()
        for key, (anomalies, fragment) in zip(keys, together):
            (alone,) = plan.analyze_keys([key])
            for batch in (alone, reference.analyze_key(plan, key)):
                assert [a.__dict__ for a in batch[0]] == [a.__dict__ for a in anomalies]
                assert batch[1] == fragment
            seen.update(a.name for a in anomalies)
        assert seen == expected
        assert max(len(anomalies) for anomalies, _f in together) > 1

    @pytest.mark.parametrize("workload", ["rw-register", "list-append"])
    def test_sharded_check_runs_the_whole_index_pass(self, monkeypatch, workload):
        # ``check`` ignores ``shards``: a shards=2 check merges the one
        # pass over every key and never splits it into per-key batches.
        from repro.core.keyspace import KeyspacePlan

        if workload == "rw-register":
            history = stale_register_history()
            options = {"sources": sorted(KNOWN_SOURCES)}
        else:
            # Clean: no read takes the flagged-read walk.
            history = run_workload(
                RunConfig(txns=400, concurrency=8, seed=4, crash_probability=0.0)
            )
            options = {}
        whole_passes = []
        analyze_index = KeyspacePlan.analyze_index

        def counted(plan, analysis, profile=None):
            whole_passes.append(len(plan.keys()))
            return analyze_index(plan, analysis, profile)

        def no_batches(*args):
            raise AssertionError("the per-key batch path ran")

        monkeypatch.setattr(KeyspacePlan, "analyze_index", counted)
        monkeypatch.setattr(KeyspacePlan, "analyze_keys", no_batches)
        sharded = check(history, workload=workload, shards=2, **options)
        monkeypatch.undo()
        assert len(whole_passes) == 1 and whole_passes[0] > 1
        assert sharded.report() == check(
            history, workload=workload, **options
        ).report()

    def test_single_bit_lookups_match_the_full_replay(self):
        # Cycle explanations look records up one bit at a time; each must
        # be the record a full evidence read holds, and none may replay.
        history = stale_register_history()
        options = {"workload": "rw-register", "sources": sorted(KNOWN_SOURCES)}
        full = analyze(history, **options).evidence
        lazy = analyze(history, **options)
        assert full
        for (u, v, bit), record in full.items():
            assert lazy.edge_evidence(u, v, bit) == record
        assert lazy.edge_evidence(-1, 0, WR) is None
        assert lazy._pending  # still deferred: nothing was replayed
        assert lazy.evidence == full

    def test_history_without_committed_micro_ops(self):
        # No committed read or write: the committed stream is empty.
        history = History.of(("fail", 0, [w("x", 1)]), ("info", 1, [r("x", None)]))
        result = check(history, workload="rw-register", sources=sorted(KNOWN_SOURCES))
        assert result.valid
        assert result.analysis.graph.edge_count == 0

    @pytest.mark.parametrize("whole_index", [True, False])
    def test_equal_values_are_one_version_named_by_its_write(
        self, monkeypatch, whole_index
    ):
        # A read of 1.0 observes the write of 1: one version, which both
        # paths name by the written object whatever a read returned.
        if not whole_index:
            reference.use_reference(monkeypatch)
        a = analyze_txns(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1.0), w("x", 2)]),
            ("ok", 2, [r("x", 1.0)]),
        )
        for edge in ((0, 2, WW), (4, 2, RW)):
            record = a.evidence[edge]
            assert record.prev_value == 1 and type(record.prev_value) is int
