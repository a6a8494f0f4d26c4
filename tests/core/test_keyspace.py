"""Keyspace execution engine: merge determinism, plans, shared read checks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WW, analyze
from repro.core.analysis import Analysis, ColumnEvidence, EdgeColumns, Evidence
from repro.core.anomalies import (
    ALL_ANOMALIES,
    G1A,
    GARBAGE_READ,
    Anomaly,
    sort_anomalies,
)
from repro.core.keyspace import (
    PLANS,
    ReadCheckStyle,
    _merge,
    check_recoverable_read,
)
from repro.db import FaunaInternal, Isolation, TiDBRetry
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, append, r, w


def history(workload="list-append", seed=17, txns=150):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=5,
            workload=WorkloadConfig(workload=workload, active_keys=4),
            seed=seed,
        )
    )


class TestMergeDeterminism:
    def test_batch_order_is_irrelevant(self):
        # Anomalies and the graph are canonical for any batch order;
        # evidence precedence is key order, which in-order ranges keep.
        h = history()
        plan = PLANS["list-append"](h)
        keys = list(plan.keys())
        cuts = [0, len(keys) // 3, 2 * len(keys) // 3, len(keys)]
        ranges = [plan.analyze_keys(keys[a:b]) for a, b in zip(cuts, cuts[1:])]
        shuffled = list(ranges)
        random.Random(0).shuffle(shuffled)

        def merged(batch_lists):
            analysis = Analysis(history=h, workload="list-append")
            batches = [batch for batches in batch_lists for batch in batches]
            _merge(
                analysis,
                [anomaly for anomalies, _s in batches for anomaly in anomalies],
                [source for _a, source in batches],
            )
            return analysis

        merged_whole = merged([plan.analyze_keys(keys)])
        merged_pieces = merged(ranges)
        merged_shuffled = merged(shuffled)

        for merged in (merged_pieces, merged_shuffled):
            assert merged.anomalies == merged_whole.anomalies
            assert list(merged.graph.nodes()) == list(merged_whole.graph.nodes())
            assert sorted(merged.graph.edges()) == sorted(
                merged_whole.graph.edges()
            )
        assert merged_pieces.evidence == merged_whole.evidence
        # The batch check's column source holds the same records.
        assert analyze(h).evidence == merged_whole.evidence

    def test_evidence_precedence_follows_key_order(self):
        # Two sources justify one edge bit; the earlier source's record
        # wins whatever the ranks, in a full read and a one-bit lookup.
        h = History.of(("ok", 0, [append("x", 1)]))

        def source(value, rank):
            column = EdgeColumns(
                WW,
                np.array([0]),
                np.array([1]),
                np.array([0]),
                None,
                None,
                np.array([rank]),
            )
            return ColumnEvidence.of(
                [column], [0, 2], ["x"], lambda: [value], np.array([0])
            )

        first = Evidence(kind=WW, key="x", value=1)
        second = Evidence(kind=WW, key="x", value=99)
        for sources, winner in (
            ([source(1, 5), source(99, 0)], first),
            ([source(99, 5), source(1, 0)], second),
        ):
            analysis = Analysis(history=h, workload="list-append")
            _merge(analysis, [], sources)
            assert analysis.edge_evidence(0, 2, WW) == winner
            assert analysis.evidence[(0, 2, WW)] == winner
            assert sorted(analysis.graph.edges()) == [(0, 2, WW)]


#: Anomalies whose (name, txns) tie: only the message can order them.
TIED = [
    Anomaly(G1A, (1, 2), "c"),
    Anomaly(GARBAGE_READ, (3,), "z"),
    Anomaly(G1A, (1, 2), "a"),
    Anomaly(G1A, (0, 5), "q"),
    Anomaly(GARBAGE_READ, (3,), "y"),
    Anomaly(G1A, (1, 2), "b"),
]


class TestCanonicalOrder:
    @given(st.permutations(TIED))
    @settings(max_examples=50, deadline=None)
    def test_ties_on_name_and_txns_sort_by_message(self, anomalies):
        ordered = sort_anomalies(anomalies)
        assert [(a.name, a.txns, a.message) for a in ordered] == [
            (G1A, (0, 5), "q"),
            (G1A, (1, 2), "a"),
            (G1A, (1, 2), "b"),
            (G1A, (1, 2), "c"),
            (GARBAGE_READ, (3,), "y"),
            (GARBAGE_READ, (3,), "z"),
        ]

    @pytest.mark.parametrize(
        "workload, faults, isolation, seed",
        [
            ("list-append", TiDBRetry, Isolation.SNAPSHOT_ISOLATION, 5),
            ("rw-register", FaunaInternal, Isolation.READ_COMMITTED, 2),
            ("counter", FaunaInternal, Isolation.READ_COMMITTED, 3),
        ],
    )
    def test_sharded_analysis_lists_the_same_canonical_anomalies(
        self, workload, faults, isolation, seed
    ):
        h = run_workload(
            RunConfig(
                txns=200,
                concurrency=6,
                isolation=isolation,
                workload=WorkloadConfig(workload=workload, active_keys=4),
                seed=seed,
                crash_probability=0.05,
                faults=faults,
            )
        )
        sequential = analyze(h, workload=workload)
        # The same plan's keyspace in two shards (key ranges), last
        # shard first, merged as a stream merges them.
        plan = PLANS[workload](h)
        keys = list(plan.keys())
        half = len(keys) // 2
        batches = plan.analyze_keys(keys[half:]) + plan.analyze_keys(keys[:half])
        ranged = Analysis(history=h, workload=workload)
        anomalies = plan.internal_anomalies()
        for key_anomalies, _source in batches:
            anomalies.extend(key_anomalies)
        _merge(ranged, anomalies, [source for _a, source in batches])

        def listed(anomalies):
            return [
                (a.name, a.txns, a.message, sorted(a.data.items(), key=repr))
                for a in anomalies
            ]

        assert len(sequential.anomalies) > 1
        assert listed(ranged.anomalies) == listed(sequential.anomalies)
        rank = {name: i for i, name in enumerate(ALL_ANOMALIES)}
        assert listed(sequential.anomalies) == sorted(
            listed(sequential.anomalies), key=lambda a: (rank[a[0]], a[1], a[2])
        )


class TestPlanRegistry:
    def test_all_workloads_registered(self):
        assert set(PLANS) == {
            "list-append",
            "rw-register",
            "grow-set",
            "counter",
        }


class TestSharedReadChecks:
    def style(self, **overrides):
        def garbage(reader, key, element, elements):
            return Anomaly(GARBAGE_READ, (reader.id,), f"garbage {element}")

        def g1a(reader, key, element, writer):
            return Anomaly(G1A, (reader.id, writer.id), f"aborted {element}")

        def g1b(reader, key, last, final, elements, writer):
            return Anomaly("G1b", (reader.id, writer.id), f"mid {last}->{final}")

        base = dict(garbage=garbage, g1a=g1a, g1b=g1b, intermediate=True)
        base.update(overrides)
        return ReadCheckStyle(**base)

    def fixture(self):
        h = History.of(
            ("ok", 0, [w("k", 1), w("k", 2)]),   # 1 is an intermediate write
            ("fail", 1, [w("k", 3)]),
            ("ok", 2, [r("k", 1)]),
        )
        index = h.index()
        write_map = index.view(["k"]).write_map(0, index.transactions)
        reader = h.transactions[2]
        return reader, write_map

    def test_garbage(self):
        reader, write_map = self.fixture()
        found = check_recoverable_read(reader, "k", (99,), write_map, self.style())
        assert [a.name for a in found] == [GARBAGE_READ]

    def test_aborted_suppresses_g1b_when_configured(self):
        reader, write_map = self.fixture()
        aborted_nonfinal = check_recoverable_read(
            reader,
            "k",
            (3,),
            write_map,
            self.style(intermediate_after_aborted=False),
        )
        assert [a.name for a in aborted_nonfinal] == [G1A]

    def test_intermediate_read(self):
        reader, write_map = self.fixture()
        found = check_recoverable_read(reader, "k", (1,), write_map, self.style())
        assert [a.name for a in found] == ["G1b"]

    def test_clean_read(self):
        reader, write_map = self.fixture()
        assert check_recoverable_read(
            reader, "k", (2,), write_map, self.style()
        ) == []

