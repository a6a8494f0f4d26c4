"""The single-pass HistoryIndex versus brute-force regroupings."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History, HistoryBuilder, append, r, w
from repro.history.index import check_unique_writes
from repro.history.ops import READ
from tests.index_reference import index_signature, row_slices
from tests.rw_register_reference import (
    committed_stream,
    interacting_positions,
    interacting_positions_by_process,
)


def generated(workload="list-append", seed=21, txns=200):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=6,
            workload=WorkloadConfig(workload=workload, active_keys=5),
            seed=seed,
            crash_probability=0.05,
        )
    )


class TestIndexContents:
    def test_cached_on_history(self):
        history = History.of(("ok", 0, [append("x", 1)]))
        assert history.index() is history.index()

    def test_key_order_is_first_appearance(self):
        history = History.of(
            ("ok", 0, [append("b", 1), append("a", 2)]),
            ("ok", 1, [append("c", 3), r("a", [2])]),
        )
        assert history.index().key_order == ["b", "a", "c"]

    def test_read_key_order_requires_committed_valued_read(self):
        history = History.of(
            ("ok", 0, [append("x", 1)]),
            ("fail", 1, [r("y", [9])]),        # aborted read doesn't count
            ("ok", 2, [r("z", None)]),          # unknown value doesn't count
            ("ok", 3, [r("y", []), r("x", [1])]),
        )
        assert history.index().read_key_order == ["y", "x"]

    def test_slices_partition_every_mop(self):
        history = generated()
        index = history.index()
        slices = row_slices(index)
        total = sum(len(s.op_txn) for s in slices.values())
        assert total == sum(len(t.mops) for t in history.transactions)
        for key, slice_ in slices.items():
            assert slice_.op_txn == [
                pos
                for pos, t in enumerate(history.transactions)
                for m in t.mops
                if m.key == key
            ]

    def test_writes_and_committed_reads_match_brute_force(self):
        history = generated(seed=3)
        index = history.index()
        for key, slice_ in row_slices(index).items():
            expected_writes = [
                (pos, seq, m.value)
                for pos, t in enumerate(history.transactions)
                for seq, m in enumerate(t.mops)
                if m.key == key and m.is_write
            ]
            writes = list(zip(slice_.w_txn, slice_.w_seq, slice_.w_val))
            assert writes == expected_writes
            # Read values are normalized to tuples at build time.
            expected_reads = [
                (pos, seq, tuple(m.value) if isinstance(m.value, list) else m.value)
                for pos, t in enumerate(history.transactions)
                if t.committed
                for seq, m in enumerate(t.mops)
                if m.key == key and m.fn == READ
            ]
            reads = list(zip(slice_.r_txn, slice_.r_seq, slice_.r_val))
            assert reads == expected_reads

    def test_interacting_matches_brute_force(self):
        history = generated(seed=8)
        index = history.index()
        for key, slice_ in row_slices(index).items():
            expected = [
                pos
                for pos, t in enumerate(history.transactions)
                if t.committed and any(m.key == key for m in t.mops)
            ]
            assert interacting_positions(index, slice_) == expected

    def test_write_map_keeps_first_writer(self):
        history = History.of(
            ("ok", 0, [append("x", 1)]),
            ("fail", 1, [append("x", 2)]),
        )
        index = history.index()
        write_map = index.view(["x"]).write_map(0, index.transactions)
        assert write_map[1].id == 0
        assert write_map[2].aborted

    def test_by_process_in_invocation_order(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.invoke(1, [append("x", 2)])
        b.ok(1, [append("x", 2)])
        b.ok(0, [append("x", 1)])
        b.invoke(0, [append("x", 3)])
        b.ok(0, [append("x", 3)])
        index = b.build().index()
        # Each position's nearest earlier committed one on its process.
        assert index.txn_prev == [-1, -1, 0]
        assert [index.txn_ids[p] for p in (index.txn_prev[2], 2)] == [0, 4]

    def test_intervals_exclude_indeterminate(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.ok(0, [append("x", 1)])
        b.invoke(1, [append("x", 2)])  # never completes
        history = b.build()
        # the indeterminate transaction is not committed, so it is not
        # interacting at all
        index = history.index()
        assert interacting_positions(index, row_slices(index)["x"]) == [0]


class TestUniquenessContracts:
    def test_duplicate_across_transactions_detected(self):
        history = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [append("x", 1)]),
        )
        index = history.index()
        assert index.first_violations()[0] is not None
        with pytest.raises(WorkloadError, match="globally unique appends"):
            check_unique_writes(index, "list-append")
        with pytest.raises(WorkloadError, match="unique writes per key"):
            check_unique_writes(index, "rw-register")

    def test_same_transaction_rewrite_allowed(self):
        history = History.of(("ok", 0, [append("x", 1), append("x", 1)]))
        index = history.index()
        assert index.first_violations()[0] is None
        check_unique_writes(index, "list-append")

    def test_none_write_rejected_for_registers_only(self):
        history = History.of(("ok", 0, [w("x", None)]))
        index = history.index()
        with pytest.raises(WorkloadError, match="initial version"):
            check_unique_writes(index, "rw-register")

    def test_earlier_violation_wins(self):
        history = History.of(
            ("ok", 0, [w("x", None)]),
            ("ok", 1, [w("y", 1)]),
            ("ok", 2, [w("y", 1)]),
        )
        with pytest.raises(WorkloadError, match="initial version"):
            check_unique_writes(history.index(), "rw-register")

    def test_clean_histories_pass(self):
        history = generated(seed=4)
        check_unique_writes(history.index(), "list-append")


class TestIncrementalExtension:
    """History.extend keeps the cached index identical to a fresh build."""

    def extended(self, ops, cuts):
        history = History(())
        history.index()  # force the index so every extend goes incremental
        bounds = [0] + list(cuts) + [len(ops)]
        for a, b in zip(bounds, bounds[1:]):
            history.extend(ops[a:b])
        return history

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    def test_matches_fresh_build(self, workload):
        history = generated(workload=workload, seed=5)
        ops = list(history.ops)
        for cuts in ([97], [31, 64, 300], list(range(50, len(ops), 50))):
            incremental = self.extended(ops, cuts)
            assert index_signature(incremental.index()) == index_signature(
                History(ops).index()
            )

    def test_upgrade_rebuilds_touched_slices(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1), r("y", None)])
        b.invoke(1, [r("x", None)])
        history = History(())
        index = history.index()
        history.extend(b.build().ops)
        # Both transactions are provisionally indeterminate: no committed
        # reads anywhere yet.
        assert row_slices(index)["x"].r_txn == []
        assert history.transactions[0].indeterminate
        versions = {k: index.key_version[i] for k, i in index.key_ids.items()}
        # Completions arrive: the provisional transactions upgrade in place.
        from repro.history.ops import Op, OpType
        history.extend([
            Op(2, OpType.OK, 0, (append("x", 1), r("y", []))),
            Op(3, OpType.OK, 1, (r("x", (1,)),)),
        ])
        assert history.transactions[0].committed
        slices = row_slices(index)
        assert [index.txn_ids[p] for p in slices["x"].r_txn] == [1]
        assert slices["y"].r_txn != []
        for key in ("x", "y"):
            assert index.key_version[index.key_ids[key]] > versions[key]

    def test_upgrade_can_shift_read_key_order(self):
        from repro.history.ops import Op, OpType
        ops = [
            Op(0, OpType.INVOKE, 0, (r("a", None),)),
            Op(1, OpType.INVOKE, 1, (r("b", (0,)),)),
            Op(2, OpType.OK, 1, (r("b", ()),)),
        ]
        history = History(())
        history.index()
        history.extend(ops)
        assert history.index().read_key_order == ["b"]
        # T0's completion reveals a committed read of "a" at position 0,
        # before "b" in observation order.
        history.extend([Op(3, OpType.OK, 0, (r("a", ()),))])
        assert history.index().read_key_order == ["a", "b"]
        assert index_signature(history.index()) == index_signature(
            History(ops + [Op(3, OpType.OK, 0, (r("a", ()),))]).index()
        )

    def test_extend_without_cached_index(self):
        history = generated(seed=12)
        ops = list(history.ops)
        incremental = History(ops[:100])  # no index yet
        incremental.extend(ops[100:])
        assert index_signature(incremental.index()) == index_signature(
            History(ops).index()
        )

    def test_duplicate_write_detected_across_chunks(self):
        history = History(())
        history.index()
        history.extend(History.of(("ok", 0, [append("x", 1)])).ops)
        assert history.index().first_violations()[0] is None
        from repro.history.ops import Op, OpType
        history.extend([
            Op(2, OpType.INVOKE, 1, (append("x", 1),)),
            Op(3, OpType.OK, 1, (append("x", 1),)),
        ])
        with pytest.raises(WorkloadError, match="globally unique appends"):
            check_unique_writes(history.index(), "list-append")


    def test_duplicate_write_by_an_upgrade(self):
        # T2's completion moves its append to key x, where T0 already
        # appended 1 (no appended transaction touches x in that chunk),
        # and adds key w, which nothing else touches.
        from repro.history.ops import Op, OpType
        ops = [
            Op(0, OpType.INVOKE, 0, (append("x", 1),)),
            Op(1, OpType.OK, 0, (append("x", 1),)),
            Op(2, OpType.INVOKE, 1, (append("y", 5),)),
            Op(3, OpType.OK, 1, (append("x", 1), append("w", 9))),
            Op(4, OpType.INVOKE, 2, (append("z", 7),)),
        ]
        history = History(())
        history.index()
        history.extend(ops[:3])
        check_unique_writes(history.index(), "list-append")
        history.extend(ops[3:])
        assert "y" not in history.index()
        assert index_signature(history.index()) == index_signature(
            History(ops).index()
        )
        with pytest.raises(WorkloadError, match="by both T0 and T2"):
            check_unique_writes(history.index(), "list-append")


class TestColumnarDerivedViews:
    """Derived views (the rw-register reference's too) and their columns."""

    def test_interacting_by_process_groups_committed_txns(self):
        history = History.of(
            ("ok", 0, [w("x", 1)]),
            ("ok", 1, [w("x", 2)]),
            ("fail", 0, [w("x", 3)]),
            ("ok", 0, [r("x", 2)]),
        )
        index = history.index()
        grouped = interacting_positions_by_process(index, row_slices(index)["x"])
        assert grouped == {0: [0, 3], 1: [1]}
        assert [index.txn_ids[p] for p in grouped[0]] == [0, 6]

    def test_intervals_cover_committed_interactions_only(self):
        builder = HistoryBuilder()
        builder.invoke(0, [w("x", 1)])
        builder.invoke(1, [w("x", 2)])
        builder.ok(0, [w("x", 1)])
        builder.info(1)  # indeterminate: excluded from intervals
        index = builder.build().index()
        intervals = [
            (index.txn_ids[p], index.txn_invoke[p], index.txn_complete[p])
            for p in interacting_positions(index, row_slices(index)["x"])
            if index.txn_complete[p] >= 0
        ]
        assert intervals == [(0, 0, 2)]

    def test_op_txn_keeps_uncommitted_read_slots(self):
        history = History.of(
            ("ok", 0, [append("x", 1), r("x", [1])]),
            ("info", 1, [r("x", None), append("x", 2)]),
        )
        slice_ = row_slices(history.index())["x"]
        assert slice_.op_txn == [0, 0, 1, 1]
        assert (slice_.r_txn, slice_.r_seq) == ([0], [1])
        assert (slice_.w_txn, slice_.w_seq) == ([0, 1], [0, 1])

    def test_committed_stream_merges_reads_and_writes_in_order(self):
        history = History.of(
            ("ok", 0, [r("x", None), w("x", 1), r("x", 1)]),
            ("fail", 1, [w("x", 9)]),  # uncommitted write excluded
            ("ok", 0, [w("x", 2)]),
        )
        index = history.index()
        positions, flags, values = committed_stream(index, row_slices(index)["x"])
        assert positions == [0, 0, 0, 2]
        assert flags == [1, 0, 1, 0]
        assert values == [None, 1, 1, 2]

    def test_write_map_resolves_positions_to_transactions(self):
        history = History.of(
            ("ok", 0, [w("x", 1)]),
            ("fail", 1, [w("x", 2)]),
        )
        index = history.index()
        write_map = index.view(["x"]).write_map(0, index.transactions)
        assert write_map[1].id == 0
        assert write_map[2].aborted

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    def test_view_head_equals_view_of_the_prefix(self, workload):
        from repro.history.index import RowView

        index = generated(workload=workload, seed=9).index()
        keys = list(index.key_order)
        for m in (0, 1, len(keys) // 2, len(keys)):
            index.view(keys)  # cached: a prefix of its keys reads its head
            head, prefix = index.view(keys[:m]), RowView(index, keys[:m])
            for name in RowView.__slots__:
                got, want = getattr(head, name), getattr(prefix, name)
                if isinstance(want, np.ndarray):
                    assert got.tolist() == want.tolist(), name
                else:
                    assert got == want, name

    def test_mop_fn_census_grows_with_the_history(self):
        from repro.history.ops import Op, OpType

        history = History.of(("ok", 0, [append("x", 1)]))
        index = history.index()
        assert index.mop_fns == {"append"}
        mops = (r("x", (1,)),)
        history.extend(
            [
                Op(2, OpType.INVOKE, 0, mops),
                Op(3, OpType.OK, 0, mops),
            ]
        )
        assert index.mop_fns == {"append", "r"}


class TestOneTransactionTable:
    """The index reads the history's transaction table; it never copies it."""

    def assert_shared(self, history):
        index = history.index()
        assert index.transactions is history.transactions
        assert index.pos_by_id is history._pos_by_id

    def rotating(self, seed=41):
        """A rotating keyspace, so a prefix settles and can retire."""
        return run_workload(
            RunConfig(
                txns=250,
                concurrency=8,
                workload=WorkloadConfig(
                    workload="list-append", active_keys=4, max_writes_per_key=4
                ),
                seed=seed,
                crash_probability=0.02,
            )
        )

    def test_fresh_build_shares_the_table(self):
        history = generated(seed=3)
        self.assert_shared(history)
        index = history.index()
        assert len(index.txn_ids) == len(history.transactions)

    def test_extend_with_upgrade_shares_the_table(self):
        from repro.history.ops import Op, OpType

        history = History(())
        history.index()
        history.extend([Op(0, OpType.INVOKE, 0, (append("x", 1),))])
        delta = history.extend([Op(1, OpType.OK, 0, (append("x", 1),))])
        assert delta.upgraded
        self.assert_shared(history)
        assert history[0].committed
        assert history.index().txn_committed[0] == 1

    def test_retire_shares_the_table(self):
        from repro.core.incremental import StreamingChecker

        ops = list(self.rotating().ops)
        cut = len(ops) // 2
        future = {m.key for op in ops[cut:] for m in op.value or ()}
        checker = StreamingChecker()
        checker.extend(ops[:cut])
        history = checker.history
        allowed = [k for k in history.index().key_ids if k not in future]
        summary = checker.retire(allowed_keys=allowed)
        assert summary["retired_txns"] > 0
        self.assert_shared(history)
        index = history.index()
        retired = [p for p, t in enumerate(index.transactions) if t is None]
        assert len(retired) == summary["retired_txns"]
        for pos in retired:
            assert index.txn_ids[pos] not in index.pos_by_id

    def test_pickled_checker_shares_the_table(self):
        import copy
        import pickle

        from repro import check
        from repro.core.incremental import StreamingChecker

        ops = list(self.rotating().ops)
        cut = len(ops) // 3
        checker = StreamingChecker()
        checker.extend(ops[:cut])
        clone = copy.copy(checker)
        clone.result = None
        restored = pickle.loads(pickle.dumps(clone))
        self.assert_shared(restored.history)
        seen = cut
        for size in (97, 211, len(ops)):
            chunk = ops[seen : seen + size]
            seen += len(chunk)
            update = restored.extend(chunk)
            self.assert_shared(restored.history)
            batch = check(History(ops[:seen]))
            assert update.result.report() == batch.report()
            assert update.result.anomaly_types == batch.anomaly_types
        assert seen == len(ops)
