"""Unit tests for the streaming incremental checker.

The byte-identity oracle lives in
``tests/properties/test_streaming_equivalence.py``; these tests pin the
surrounding behavior — error semantics, stream poisoning, update contents,
and the workload contracts a chunk can trip.
"""

import pytest

from repro import History, WorkloadError, append, check, check_stream, r, w
from repro.core.deps import WR
from repro.core.incremental import StreamingChecker
from repro.errors import HistoryError
from repro.history.ops import Op, OpType
from repro.service.protocol import record_summary, update_record


def ops_of(*txns):
    return list(History.of(*txns).ops)


class TestCheckStream:
    def test_returns_final_verdict(self):
        chunks = [
            ops_of(("ok", 0, [append("x", 1)])),
            ops_of(("ok", 1, [r("x", [1])])),
        ]
        # Indices collide across History.of chunks; renumber sequentially.
        renumbered = []
        idx = 0
        for chunk in chunks:
            out = []
            for op in chunk:
                out.append(Op(idx, op.type, op.process, op.value, op.ts))
                idx += 1
            renumbered.append(out)
        result = check_stream(renumbered)
        assert result.valid
        assert len(result.analysis.history) == 2

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            check_stream([], workload="linked-list")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            check_stream([], consistency_model="acid")

    def test_plan_options_flow_through(self):
        history = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [r("x", 1)]),
        )
        result = check_stream(
            [list(history.ops)],
            workload="rw-register",
            sources=("initial-state",),
        )
        assert result.valid
        with pytest.raises(ValueError, match="unknown version-order sources"):
            check_stream(
                [list(history.ops)],
                workload="rw-register",
                sources=("vibes",),
            )


class TestErrorSemantics:
    def test_workload_contract_raises_like_batch(self):
        duplicate = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 1)]),
        )
        with pytest.raises(WorkloadError) as batch_err:
            check(duplicate)
        checker = StreamingChecker()
        ops = list(duplicate.ops)
        checker.extend(ops[:2])
        with pytest.raises(WorkloadError) as stream_err:
            checker.extend(ops[2:])
        assert str(stream_err.value) == str(batch_err.value)

    def test_poisoned_stream_re_raises(self):
        checker = StreamingChecker()
        with pytest.raises(HistoryError):
            checker.extend(
                [Op(0, OpType.OK, 0, (append("x", 1),))]  # orphan completion
            )
        with pytest.raises(HistoryError):
            checker.extend(ops_of(("ok", 0, [append("x", 1)])))

    def test_foreign_micro_ops_rejected_per_chunk(self):
        checker = StreamingChecker(workload="list-append")
        checker.extend(ops_of(("ok", 0, [append("x", 1)])))
        with pytest.raises(WorkloadError, match="cannot interpret"):
            checker.extend(
                [
                    Op(2, OpType.INVOKE, 1, (w("x", 2),)),
                    Op(3, OpType.OK, 1, (w("x", 2),)),
                ]
            )


class TestServiceAbusePaths:
    """The call shapes a multiplexing daemon hits: empty chunks, reads
    interleaved with extends, and extends against a poisoned stream."""

    def test_empty_chunk_extend_is_a_cheap_recheck(self):
        txns = (
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", [1])]),
        )
        checker = StreamingChecker()
        first = checker.extend(ops_of(*txns))
        update = checker.extend([])
        # A no-op chunk still produces a full (batch-identical) verdict...
        assert update.chunk == 2
        assert update.ops == 0
        assert update.txns == first.txns
        assert update.new_anomalies == ()
        assert update.resolved == 0
        batch = check(History(ops_of(*txns)))
        assert update.result.valid == batch.valid
        assert [a.message for a in update.result.anomalies] == [
            a.message for a in batch.anomalies
        ]
        # ...and every per-key plan comes from cache: nothing was dirtied.
        assert update.reanalyzed_keys == 0
        assert update.reused_keys >= 1

    def test_empty_first_chunk_is_the_empty_observation(self):
        checker = StreamingChecker()
        update = checker.extend([])
        assert update.result.valid
        assert (update.chunk, update.ops, update.txns) == (1, 0, 0)

    def test_extend_after_verdict_reads_stays_batch_identical(self):
        """Reading (and rendering) a verdict must not perturb later
        chunks — the daemon interleaves verdict frames with appends."""
        ops = ops_of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 2), r("x", [1, 2])]),
            ("ok", 0, [r("x", [1])]),
        )
        # Renumber the compact transactions into one op stream.
        ops = [
            Op(i, op.type, op.process, op.value, op.ts)
            for i, op in enumerate(ops)
        ]
        checker = StreamingChecker()
        mid = checker.extend(ops[:3])
        # Consume the verdict the way the service does: render the
        # report, walk the anomalies, serialize the summary.
        mid.result.report()
        record_summary(update_record(mid))
        list(mid.result.anomalies)
        final = checker.extend(ops[3:])
        batch = check(History(ops))
        assert final.result.valid == batch.valid
        assert final.result.anomaly_types == batch.anomaly_types
        assert [a.message for a in final.result.anomalies] == [
            a.message for a in batch.anomalies
        ]

    def test_poisoned_stream_replays_the_same_exception(self):
        checker = StreamingChecker()
        with pytest.raises(HistoryError) as first:
            checker.extend(
                [Op(0, OpType.OK, 0, (append("x", 1),))]  # orphan completion
            )
        # Every later extend -- even an empty one -- re-raises the very
        # same exception object; nothing new is ingested.
        with pytest.raises(HistoryError) as again:
            checker.extend([])
        assert again.value is first.value
        with pytest.raises(HistoryError) as still:
            checker.extend(ops_of(("ok", 0, [append("y", 1)])))
        assert still.value is first.value
        assert len(checker.history) == 0

    def test_poisoned_result_keeps_last_good_verdict(self):
        checker = StreamingChecker()
        good = checker.extend(ops_of(("ok", 0, [append("x", 1)])))
        with pytest.raises(HistoryError):
            checker.extend([Op(99, OpType.OK, 5, (append("x", 2),))])
        # The last successful verdict is still readable.
        assert checker.result is good.result


class TestStreamUpdate:
    def test_summary_mentions_new_anomalies(self):
        checker = StreamingChecker()
        checker.extend(ops_of(("ok", 0, [append("x", 1)])))
        update = checker.extend(
            [
                Op(2, OpType.INVOKE, 1, (r("x", None),)),
                Op(3, OpType.OK, 1, (r("x", (99,)),)),
            ]
        )
        assert not update.result.valid
        assert update.new_anomalies
        assert "garbage-read" in record_summary(update_record(update))
        assert update.chunk == 2
        assert update.ops == 2

    def test_counts_accumulate(self):
        checker = StreamingChecker()
        first = checker.extend(ops_of(("ok", 0, [append("x", 1)])))
        assert (first.chunk, first.txns) == (1, 1)
        second = checker.extend(
            [
                Op(2, OpType.INVOKE, 1, (append("x", 2),)),
                Op(3, OpType.OK, 1, (append("x", 2),)),
            ]
        )
        assert (second.chunk, second.txns) == (2, 2)
        assert checker.result is second.result


class TestSliceRecreation:
    """A key deleted by an upgrade and later recreated must not serve a
    stale cached batch (the slice version clock never repeats)."""

    OPS = [
        Op(0, OpType.INVOKE, 0, (w("a", 1),)),
        Op(1, OpType.OK, 0, (w("a", 1),)),
        Op(2, OpType.INVOKE, 1, (w("x", 1),)),  # provisional: touches x
        Op(3, OpType.OK, 1, (w("a", 2),)),      # completion drops key x
        Op(4, OpType.INVOKE, 2, (r("x", None),)),
        Op(5, OpType.OK, 2, (r("x", 5),)),      # garbage read of x
    ]

    def test_streamed_verdict_matches_batch(self):
        batch = check(History(self.OPS), workload="rw-register")
        checker = StreamingChecker(workload="rw-register")
        checker.extend(self.OPS[:3])
        checker.extend(self.OPS[3:4])
        update = checker.extend(self.OPS[4:])
        assert update.result.valid == batch.valid
        assert update.result.anomaly_types == batch.anomaly_types
        assert [a.message for a in update.result.anomalies] == [
            a.message for a in batch.anomalies
        ]

    def test_dropped_key_vanishes_from_index(self):
        history = History(())
        history.index()
        history.extend(self.OPS[:3])
        assert "x" in history.index()
        delta = history.extend(self.OPS[3:4])
        assert "x" in delta.dirty_keys
        assert "x" not in history.index()

    def test_delta_reports_dirty_keys(self):
        history = History(())
        history.index()
        first = history.extend(self.OPS[:2])
        assert first.dirty_keys == frozenset({"a"})
        # No cached-index extension before the index is built:
        fresh = History(())
        assert fresh.extend(self.OPS[:2]).dirty_keys is None


class TestCrossPassEvidencePrecedence:
    """Keys x and y both justify the wr edge T2 -> T4.  x ranks first
    (T0 reads it first), but a later chunk re-analyzes x alone, so x's
    batch comes from a later pass than y's: key rank, not pass order,
    must pick x's record, before and after retirement."""

    def op(self, index, kind, process, mops):
        return Op(index, kind, process, tuple(mops))

    def chunks(self):
        ok, invoke = OpType.OK, OpType.INVOKE
        read_x = [r("x", None)]
        both = [append("x", 1), append("y", 1)]
        reader = [r("x", None), r("y", None), append("w", 1)]
        seen = [r("x", [1]), r("y", [1]), append("w", 1)]
        return [
            [
                self.op(0, invoke, 2, read_x),
                self.op(1, ok, 2, [r("x", [])]),
                self.op(2, invoke, 0, both),
                self.op(3, ok, 0, both),
                self.op(4, invoke, 1, reader),
                self.op(5, ok, 1, seen),
            ],
            [
                self.op(6, invoke, 0, [append("x", 2)]),
                self.op(7, ok, 0, [append("x", 2)]),
            ],
            [
                self.op(8, invoke, 0, [append("z", 1)]),
                self.op(9, ok, 0, [append("z", 1)]),
            ],
        ]

    def assert_x_wins(self, result, ops):
        edge = (2, 4, WR)
        batch = check(History(ops)).analysis
        expected = batch.edge_evidence(*edge)
        assert expected.key == "x"
        assert batch.evidence[edge] == expected
        assert result.analysis.edge_evidence(*edge) == expected
        assert result.analysis.evidence[edge] == expected

    def test_key_rank_picks_the_record_across_passes(self):
        chunks = self.chunks()
        checker = StreamingChecker()
        checker.extend(chunks[0])
        update = checker.extend(chunks[1])
        assert update.reanalyzed_keys == 1  # x alone; y is cached
        self.assert_x_wins(update.result, chunks[0] + chunks[1])
        summary = checker.retire(allowed_keys={"x", "y"})
        assert summary["retired_keys"] == 2
        update = checker.extend(chunks[2])
        self.assert_x_wins(update.result, [op for c in chunks for op in c])


class TestRetireTwiceWithoutExtend:
    """Two retirements on one verdict (the service's idle retirement,
    then its memory-pressure one): the second must not bring back the
    edges the first froze.  Key x's rw edge T0 -> T1 retires first; its
    wr edge T1 -> T2 stays resident until y freezes and T2 retires."""

    def op(self, index, kind, process, mops):
        return Op(index, kind, process, tuple(mops))

    def chunks(self):
        ok, invoke = OpType.OK, OpType.INVOKE
        both = [r("x", None), append("y", 1)]
        return [
            [
                self.op(0, invoke, 0, [r("x", None)]),
                self.op(1, ok, 0, [r("x", [])]),
                self.op(2, invoke, 1, [append("x", 1)]),
                self.op(3, ok, 1, [append("x", 1)]),
                self.op(4, invoke, 2, both),
                self.op(5, ok, 2, [r("x", [1]), append("y", 1)]),
            ],
            [
                self.op(6, invoke, 3, [append("z", 1)]),
                self.op(7, ok, 3, [append("z", 1)]),
            ],
        ]

    def resident_targets(self, checker):
        from repro.core.analysis import V

        return {
            int(p)
            for _rank, _key, source in checker._residual.values()
            for p in source.block[V]
        }

    def test_second_retire_keeps_only_live_targets(self):
        chunks = self.chunks()
        checker = StreamingChecker()
        checker.extend(chunks[0])
        first = checker.retire(allowed_keys={"x"})
        assert first["retired_txns"] == 2  # T0 and T1; T2 touches y
        assert self.resident_targets(checker) == {2}
        second = checker.retire(allowed_keys={"x", "y"})
        assert second["retired_txns"] == 1
        assert self.resident_targets(checker) == set()
        ops = [op for chunk in chunks for op in chunk]
        update = checker.extend(chunks[1])
        batch = check(History(ops))
        assert update.result.valid == batch.valid
        assert update.result.anomalies == batch.anomalies
        assert update.result.analysis.evidence == batch.analysis.evidence
        assert sorted(update.result.analysis.graph.edges()) == sorted(
            batch.analysis.graph.edges()
        )


def rotating_waves(waves, txns=150, seed=1):
    """One tidb-retry list-append wave, re-based ``waves`` times.

    Every copy settles the same way, so a retiring stream's live window
    is periodic.
    """
    from repro.service.client import rotating_stream, session_workload

    wave = session_workload(
        fault="tidb-retry", seed=seed, txns=txns, max_writes_per_key=4
    )
    return rotating_stream([wave] * waves)


class TestRetiringStreamCostsItsWindow:
    """A retiring stream's per-chunk graph is its live window, not its age."""

    @staticmethod
    def graph_sizes(waves):
        from repro.core.profiling import Profile

        checker = StreamingChecker()
        sizes = []
        ops = rotating_waves(waves)
        for start in range(0, len(ops), 100):
            profile = Profile()
            checker.extend(ops[start : start + 100], profile=profile)
            checker.retire(min_idle_txns=50)
            counters = profile.counters
            sizes.append((counters["graph.nodes"], counters["graph.edges"]))
        return sizes, checker

    def test_graph_does_not_grow_with_the_stream(self):
        short, _ = self.graph_sizes(4)
        long, checker = self.graph_sizes(16)
        tail = long[len(long) * 4 // 5 :]
        assert checker.retired_txns > 0.8 * len(checker.history)
        for column in (0, 1):
            assert max(s[column] for s in tail) <= max(s[column] for s in short)
        # The frozen block holds what the live graph no longer does.
        assert checker.frozen_edges > max(s[1] for s in long)


class TestFrozenEvidenceIsLookedUp:
    """A streamed verdict reads one frozen edge's record from its segment:
    nothing is replayed, and the segments hold one column per frozen edge
    bit."""

    def test_frozen_edge_evidence_without_replay(self):
        ops = rotating_waves(4)
        chunks = [ops[start : start + 100] for start in range(0, len(ops), 100)]
        checker = StreamingChecker()
        for chunk in chunks[:-1]:
            checker.extend(chunk)
            checker.retire(min_idle_txns=50)
        update = checker.extend(chunks[-1])
        batch = check(History(ops)).analysis.evidence

        ids = checker.history.index().txn_ids
        retired = set(ids) - {ids[p] for p in checker._live}
        into_retired = {edge for edge in batch if edge[1] in retired}
        assert checker.retired_txns and into_retired
        frozen = [
            edge
            for segment in checker._frozen
            for edge in zip(*(column.tolist() for column in segment.edges()))
        ]
        assert len(frozen) == checker.frozen_edges == len(into_retired)
        assert set(frozen) == into_retired

        analysis = update.result.analysis
        for edge in sorted(into_retired)[:: max(1, len(into_retired) // 20)]:
            assert analysis.edge_evidence(*edge) == batch[edge]
        assert analysis._pending  # nothing was replayed
        assert analysis.evidence == batch
