"""Keyspace execution engine: merge determinism, plans, shared read checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WW, analyze
from repro.core.analysis import Analysis, Evidence
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
    _analyze_chunk,
    _chunk_bounds,
    _merge,
    _run_chunk,
    _spawn_init,
    check_recoverable_read,
)
from repro.core import keyspace
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
        # Anomalies and the graph are canonical for any chunk order;
        # evidence precedence is key order, which in-order chunks keep.
        h = history()
        plan = PLANS["list-append"](h)
        n_txns = len(plan.index.transactions)
        n_keys = len(plan.keys())
        whole = [_analyze_chunk(plan, 0, n_txns, 0, n_keys)]
        pieces = [
            _analyze_chunk(plan, *bounds) for bounds in _chunk_bounds(plan, 3)
        ]
        shuffled = list(pieces)
        random.Random(0).shuffle(shuffled)

        merged_whole = Analysis(history=h, workload="list-append")
        _merge(merged_whole, whole)
        merged_pieces = Analysis(history=h, workload="list-append")
        _merge(merged_pieces, pieces)
        merged_shuffled = Analysis(history=h, workload="list-append")
        _merge(merged_shuffled, shuffled)

        for merged in (merged_pieces, merged_shuffled):
            assert merged.anomalies == merged_whole.anomalies
            assert list(merged.graph.nodes()) == list(merged_whole.graph.nodes())
            assert sorted(merged.graph.edges()) == sorted(
                merged_whole.graph.edges()
            )
        assert merged_pieces.evidence == merged_whole.evidence

    def test_evidence_precedence_follows_key_order(self):
        h = History.of(("ok", 0, [append("x", 1)]))
        first = Evidence(kind=WW, key="x", value=1)
        second = Evidence(kind=WW, key="x", value=99)
        chunks = [
            ([], [{(0, 2, WW): first}]),
            ([], [{(0, 2, WW): second}]),
        ]
        analysis = Analysis(history=h, workload="list-append")
        _merge(analysis, chunks)
        assert analysis.evidence[(0, 2, WW)] == first


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
        sharded = analyze(h, workload=workload, shards=2)

        def listed(anomalies):
            return [
                (a.name, a.txns, a.message, sorted(a.data.items(), key=repr))
                for a in anomalies
            ]

        assert len(sequential.anomalies) > 1
        assert listed(sharded.anomalies) == listed(sequential.anomalies)
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

    def test_spawn_init_rebuilds_equivalent_plan(self):
        h = history(seed=23)
        parent = PLANS["list-append"](h)
        bounds = _chunk_bounds(parent, 2)

        _spawn_init((h, "list-append", parent.plan_options))
        try:
            rebuilt = [_run_chunk(b) for b in bounds]
        finally:
            keyspace._WORKER_PLAN = None
        direct = [_analyze_chunk(parent, *b) for b in bounds]
        assert rebuilt == direct

    def test_plan_options_survive_for_rw_register(self):
        h = history("rw-register", seed=2)
        plan = PLANS["rw-register"](
            h, sources=("initial-state", "write-follows-read", "process")
        )
        assert plan.plan_options == {
            "sources": ("initial-state", "write-follows-read", "process")
        }


class TestChunkBounds:
    def test_bounds_cover_everything_once(self):
        h = history(seed=31)
        plan = PLANS["list-append"](h)
        bounds = _chunk_bounds(plan, 4)
        txn_spans = [(lo, hi) for lo, hi, _kl, _kh in bounds]
        key_spans = [(kl, kh) for _lo, _hi, kl, kh in bounds]
        assert txn_spans[0][0] == 0
        assert txn_spans[-1][1] == len(plan.index.transactions)
        assert key_spans[-1][1] == len(plan.keys())
        for (a, b), (c, _d) in zip(txn_spans, txn_spans[1:]):
            assert b == c
        for (a, b), (c, _d) in zip(key_spans, key_spans[1:]):
            assert b == c


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
        write_map = index.write_map(index.slices["k"])
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


class TestAnalyzeForwarding:
    def test_shards_reach_builtin_analyzers(self):
        h = history(seed=41)
        sequential = analyze(h, shards=1)
        sharded = analyze(h, shards=2)
        assert sorted(sequential.graph.edges()) == sorted(sharded.graph.edges())
