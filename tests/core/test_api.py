"""Tests for the public API surfaces: analyze, Analysis, results, errors."""

import pytest

from repro import Analysis, ReproError, WorkloadError, check
from repro.core import PROCESS, REALTIME, WR, WW, Profile, add_orders, analyze
from repro.core.analysis import ColumnEvidence, Evidence
from repro.core.keyspace import PLANS
from repro.errors import GeneratorError, HistoryError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, append, r, w
from tests.keyspace_reference import as_source


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (HistoryError, WorkloadError, GeneratorError):
            assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise WorkloadError("x")


class TestAnalyzeFunction:
    def test_returns_analysis(self):
        h = History.of(("ok", 0, [append("x", 1)]))
        analysis = analyze(h, workload="list-append")
        assert isinstance(analysis, Analysis)
        assert analysis.workload == "list-append"

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload") as excinfo:
            analyze(History([]), workload="btree")
        assert f"known: {sorted(PLANS)}" in str(excinfo.value)

    def test_options_forwarded(self):
        h = History.of(("ok", 0, [w("x", 1)]))
        analysis = analyze(
            h, workload="rw-register", sources=("initial-state",)
        )
        assert analysis.workload == "rw-register"

    def test_wrong_workload_mops_rejected(self):
        h = History.of(("ok", 0, [w("x", 1)]))
        with pytest.raises(WorkloadError, match="cannot interpret"):
            analyze(h, workload="list-append")

    def test_bad_sources_outrank_workload_errors(self):
        # A list-append history is foreign to rw-register, but the unknown
        # version-order source is reported first.
        h = History.of(("ok", 0, [append("x", 1)]))
        with pytest.raises(
            ValueError, match="unknown version-order sources"
        ) as excinfo:
            analyze(h, workload="rw-register", sources=("vector-clocks",))
        assert not isinstance(excinfo.value, WorkloadError)

    def test_workload_errors_outrank_duplicate_writes(self):
        h = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [w("x", 1), append("y", 2)]),
        )
        with pytest.raises(WorkloadError, match="cannot interpret"):
            analyze(h, workload="rw-register")


class TestOnePipeline:
    """Every workload enters analysis through ``analyze()``'s one path."""

    @pytest.mark.parametrize("workload", sorted(PLANS))
    def test_every_workload_runs_the_same_stages(self, workload):
        h = run_workload(
            RunConfig(
                txns=60,
                concurrency=4,
                workload=WorkloadConfig(workload=workload, active_keys=3),
                seed=1,
            )
        )
        profile = Profile()
        analysis = analyze(h, workload=workload, profile=profile)
        assert analysis.workload == workload
        stages = [s for s in profile.stages if s.startswith("analyze/")]
        assert stages[:2] == ["analyze/index", "analyze/plan"]
        assert stages[-2:] == ["analyze/merge", "analyze/orders"]

    def test_plan_rejects_foreign_micro_ops(self):
        h = History.of(("ok", 0, [w("x", 1)]))
        with pytest.raises(WorkloadError, match="cannot interpret"):
            PLANS["list-append"](h)

    def test_add_orders_adds_only_the_enabled_families(self):
        h = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 0, [append("x", 2)]),
        )
        for flags, expected in (
            ((False, False, False), 0),
            ((True, False, False), PROCESS),
            ((False, True, False), REALTIME),
            ((True, True, False), PROCESS | REALTIME),
        ):
            analysis = Analysis(history=h, workload="list-append")
            add_orders(analysis, *flags)
            labels = 0
            for _u, _v, label in analysis.graph.edges():
                labels |= label
            assert labels == expected, flags


class TestAnalysisContainer:
    def make(self):
        h = History.of(("ok", 0, [append("x", 1)]), ("ok", 1, [r("x", [1])]))
        return Analysis(history=h, workload="list-append")

    def test_first_evidence_wins(self):
        a = self.make()
        plan = PLANS["list-append"](a.history)

        def source(*fragments):
            # One source whose runs are the fragments, in precedence order.
            return ColumnEvidence.merge([as_source(plan, f) for f in fragments])

        first = Evidence(kind=WR, key="x", value=1)
        second = first._replace(value=2)
        a.log_evidence(source({(0, 2, WR): first}, {(0, 2, WR): second}))
        a.log_evidence(source({(0, 2, WR): second}))
        assert a.edge_evidence(0, 2, WR) == first
        assert a.evidence == {(0, 2, WR): first}
        # A source logged after the first read still yields to it.
        overwrite = Evidence(kind=WW, key="x", value=2, prev_value=1)
        a.log_evidence(source({(0, 2, WR): second, (2, 0, WW): overwrite}))
        assert a.edge_evidence(0, 2, WR) == first
        assert a.edge_evidence(2, 0, WW) == overwrite
        assert a.evidence == {(0, 2, WR): first, (2, 0, WW): overwrite}

    def test_missing_evidence_is_none(self):
        a = self.make()
        assert a.edge_evidence(0, 2, WW) is None

    def test_txn_lookup(self):
        a = self.make()
        assert a.txn(0).committed


class TestCheckResult:
    def test_valid_report_succinct(self):
        result = check(History.of(("ok", 0, [append("x", 1)])))
        report = result.report()
        assert report.startswith("VALID")
        assert "Not:" not in report

    def test_counts_via_anomalies_of(self):
        result = check(
            History.of(
                ("fail", 0, [append("x", 1)]),
                ("ok", 1, [r("x", [1])]),
            ),
            consistency_model="read-committed",
        )
        assert len(result.anomalies_of("G1a")) == 1

    def test_report_lists_every_anomaly(self):
        result = check(
            History.of(
                ("fail", 0, [append("x", 1)]),
                ("ok", 1, [r("x", [1, 7])]),
            ),
            consistency_model="read-committed",
        )
        report = result.report()
        assert "[G1a]" in report
        assert "[garbage-read]" in report


class TestReprs:
    def test_op_and_txn_reprs_render(self):
        h = History.of(("ok", 3, [append("x", 1), r("y", [2])]))
        txn = h.transactions[0]
        assert "T0" in repr(txn)
        assert ":append" in repr(txn)
        assert "History(" in repr(h)

    def test_graph_repr(self):
        from repro.graph import EdgeLogGraph

        g = EdgeLogGraph()
        g.add_edge_columns([1], [2], [1])
        assert "1 emissions" in repr(g)
        assert "nodes=2" in repr(g.freeze())
