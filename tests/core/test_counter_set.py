"""Tests for the grow-set and counter analyzers."""

import pytest

from repro.core import RW, WR, Evidence, analyze
from repro.core.counter_set import GrowSetPlan
from repro.db import Isolation, TiDBRetry
from repro.errors import WorkloadError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, add, inc, r
from repro.scenarios import figure4_history
from tests import counter_set_reference as reference


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


def precedence_history():
    """Edge bits several records justify, plus a garbage element."""
    return History.of(
        ("ok", 0, [add("x", 1), add("y", 2)]),  # id 0
        ("ok", 1, [add("z", 4), add("z", 3)]),  # id 2
        # id 4: y is read first, so y precedes x in key order.
        ("ok", 2, [r("y", {2}), r("x", {1}), r("z", set())]),
        ("ok", 3, [r("z", {3, 4})]),  # id 6
        ("ok", 4, [r("z", {3, 99})]),  # id 8
    )


def faulty_set_history():
    """Read-uncommitted with aborts and tidb-retry: reads of aborted adds."""
    return run_workload(
        RunConfig(
            txns=400,
            concurrency=8,
            isolation=Isolation.READ_UNCOMMITTED,
            workload=WorkloadConfig(workload="grow-set", active_keys=6),
            seed=3,
            crash_probability=0.02,
            abort_probability=0.2,
            faults=lambda rng: TiDBRetry(rng),
        )
    )


class TestOnePath:
    """One columnar pass serves batch checks and streams alike."""

    def test_the_first_record_of_a_bit_wins(self, monkeypatch):
        # wr 0 -> 4: keys y and x both justify it; y comes first in key
        # order.  rw 4 -> 2: the empty read misses 4 and 3; 4 was added
        # first.  wr 2 -> 6: the read holds 3 and 4; 3 sorts first.
        expected = {
            (0, 4, WR): Evidence(kind=WR, key="y", value=2),
            (4, 2, RW): Evidence(kind=RW, key="z", value=4),
            (2, 6, WR): Evidence(kind=WR, key="z", value=3),
        }
        looked_up = analyze(precedence_history(), workload="grow-set")
        for (u, v, bit), record in expected.items():
            assert looked_up.edge_evidence(u, v, bit) == record
        shipped = analyze(precedence_history(), workload="grow-set").evidence
        for edge, record in expected.items():
            assert shipped[edge] == record
        reference.use_reference(monkeypatch)
        assert analyze(precedence_history(), workload="grow-set").evidence == shipped

    @pytest.mark.parametrize(
        "histories,expected",
        [
            (lambda: [figure4_history(300, 8, workload="grow-set")], set()),
            (
                lambda: [faulty_set_history(), precedence_history()],
                {"G1a", "garbage-read"},
            ),
        ],
        ids=["clean", "faulty"],
    )
    def test_a_grow_set_batch_depends_on_its_key_alone(self, histories, expected):
        # The stream's per-key cache relies on it: a key's batch is the
        # same whichever key list it was analyzed in, and equals the
        # per-key reference's, anomalies and records in order.
        seen = set()
        most = 0
        for history in histories():
            plan = GrowSetPlan(history)
            keys = list(plan.keys())
            together = plan.analyze_keys(keys)
            for key, (anomalies, fragment) in zip(keys, together):
                (alone,) = plan.analyze_keys([key])
                for batch in (alone, reference.grow_set_key(plan, key)):
                    got = [a.__dict__ for a in batch[0]]
                    assert got == [a.__dict__ for a in anomalies]
                    assert list(batch[1].items()) == list(fragment.items())
                seen.update(a.name for a in anomalies)
                most = max(most, len(anomalies))
        assert seen == expected
        assert most > 1 or not expected
