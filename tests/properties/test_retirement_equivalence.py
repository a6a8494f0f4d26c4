"""The retirement oracle: retiring the settled prefix changes nothing.

Settled-prefix retirement (:meth:`StreamingChecker.retire`) promises that
dropping the per-op storage of the settled prefix is purely a *memory*
strategy: the verdict stream after any mix of extends and retires must be
byte-identical to the unretired checker's — same anomalies in the same
order with the same messages and evidence, same graph interning order,
same verdict — and must stay byte-identical through a checkpoint-style
pickle round-trip.  The one contract change is loud, not silent: touching
a retired key raises :class:`~repro.errors.RetiredKeyError` and poisons
the stream.

These tests pin all of that across the four workloads, the fault
injectors, and hypothesis-chosen chunk boundaries and retirement points.
Retirement candidates are derived from *future knowledge*: after each
chunk the test computes which keys never recur in the remaining
operations and passes exactly those as ``allowed_keys`` — the strongest
adversarial placement, since every retirement opportunity is taken as
early as it exists.
"""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.core.analysis import V
from repro.core.incremental import StreamingChecker
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.errors import RetiredKeyError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History
from repro.history.ops import APPEND, MicroOp, Op, OpType

WORKLOADS = ["list-append", "rw-register", "grow-set", "counter"]

FAULTS = {
    "none": None,
    "tidb-retry": lambda rng: TiDBRetry(rng),
    "yugabyte-stale-read": lambda rng: YugaByteStaleRead(
        rng, probability=0.4, staleness=3
    ),
    "fauna-internal": lambda rng: FaunaInternal(rng, probability=0.4, staleness=2),
}


def make_history(workload, fault, seed, txns=250, crash_probability=0.02):
    """A rotating-keyspace run: keys retire, so prefixes actually settle."""
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=8,
            isolation=Isolation.SNAPSHOT_ISOLATION,
            workload=WorkloadConfig(
                workload=workload, active_keys=4, max_writes_per_key=4
            ),
            seed=seed,
            crash_probability=crash_probability,
            faults=FAULTS[fault],
        )
    )


def analysis_signature(analysis):
    return (
        [(a.name, a.txns, a.message, tuple(sorted(a.data.items(), key=repr)))
         for a in analysis.anomalies],
        list(analysis.graph.nodes()),          # interning order matters
        sorted(analysis.graph.edges()),
        sorted(analysis.evidence.items()),
    )


def result_signature(result):
    return (
        result.valid,
        result.consistency_model,
        result.anomaly_types,
        tuple((a.name, a.txns, a.message) for a in result.anomalies),
        frozenset(result.impossible),
        frozenset(result.not_),
        frozenset(result.but_possibly),
    ) + analysis_signature(result.analysis)


def check_options(workload):
    if workload == "rw-register":
        return {
            "sources": (
                "initial-state",
                "write-follows-read",
                "process",
                "realtime",
            )
        }
    return {}


def chunked(ops, cut_points):
    cuts = [0] + sorted({c % (len(ops) + 1) for c in cut_points}) + [len(ops)]
    return [ops[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def op_keys(op):
    if op.value is None:
        return ()
    return tuple(m.key for m in op.value)


def settled_keys(checker, future_ops):
    """Keys that can never recur: everything absent from the remaining ops."""
    future = set()
    for op in future_ops:
        future.update(op_keys(op))
    return {k for k in checker.history.index().key_ids if k not in future}


def stream_with_retirement(ops, chunks, kwargs, retire_after=None):
    """Extend chunk by chunk, retiring at the chosen boundaries.

    Asserts prefix equivalence after every chunk and returns the checker
    with the total number of transactions it retired along the way.
    """
    checker = StreamingChecker(**kwargs)
    seen = 0
    retired = 0
    for i, chunk in enumerate(chunks):
        update = checker.extend(chunk)
        seen += len(chunk)
        prefix = check(History(ops[:seen]), **kwargs)
        assert result_signature(update.result) == result_signature(prefix)
        if retire_after is None or i in retire_after:
            summary = checker.retire(
                allowed_keys=settled_keys(checker, ops[seen:])
            )
            retired += summary["retired_txns"]
    return checker, retired


class TestRetirementEquivalence:
    """Retire at every boundary; every verdict must match batch exactly."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("fault", ["none", "tidb-retry"])
    def test_verdict_stream_is_byte_identical(self, workload, fault):
        history = make_history(workload, fault, seed=29)
        ops = list(history.ops)
        kwargs = dict(workload=workload, **check_options(workload))
        batch = check(history, **kwargs)
        chunks = chunked(ops, (199, 401, 809, 1201))
        checker, retired = stream_with_retirement(ops, chunks, kwargs)
        final = checker.extend(())
        assert result_signature(final.result) == result_signature(batch)
        # Non-vacuous: the rotating keyspace makes most of the prefix
        # settle, so retirement must actually have dropped storage.
        assert retired > len(ops) // 8
        assert checker.resident_ops < len(ops) // 2
        assert checker.resident_ops + checker.retired_ops == len(ops)
        assert checker.history.op_count == len(ops)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_two_retirements_per_verdict(self, workload):
        # A session's idle retirement followed by a memory-pressure one:
        # the second retires from the same verdict, with half the settled
        # keys frozen by the first.
        history = make_history(workload, "tidb-retry", seed=29)
        ops = list(history.ops)
        kwargs = dict(workload=workload, **check_options(workload))
        checker = StreamingChecker(**kwargs)
        seen = 0
        retired = 0
        for chunk in chunked(ops, (199, 401, 809, 1201)):
            update = checker.extend(chunk)
            seen += len(chunk)
            prefix = check(History(ops[:seen]), **kwargs)
            assert result_signature(update.result) == result_signature(prefix)
            settled = sorted(settled_keys(checker, ops[seen:]), key=repr)
            for keys in (settled[: len(settled) // 2], settled):
                retired += checker.retire(allowed_keys=keys)["retired_txns"]
            live = checker.history.transactions
            for _rank, _key, source in checker._residual.values():
                assert all(live[p] is not None for p in source.block[V].tolist())
        final = checker.extend(())
        assert result_signature(final.result) == result_signature(
            check(history, **kwargs)
        )
        assert retired > len(ops) // 8

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_faulty_histories_freeze_their_cycles(self, fault):
        # Anomalous histories exercise the frozen-cycle splice: cycles whose
        # members all retired must reappear in every later verdict with
        # their original rendering.
        history = make_history("list-append", fault, seed=41)
        ops = list(history.ops)
        batch = check(history)
        chunks = chunked(ops, (299, 601, 1103))
        checker, _retired = stream_with_retirement(ops, chunks, {})
        final = checker.extend(())
        assert result_signature(final.result) == result_signature(batch)

    def test_verdicts_read_after_the_stream_moved_on(self):
        # A verdict's graph and evidence join the frozen block only when
        # read; read after later chunks and retirements, each must still
        # be its own prefix's batch analysis.
        history = make_history("list-append", "tidb-retry", seed=41)
        ops = list(history.ops)
        checker = StreamingChecker()
        seen = 0
        verdicts = []
        for chunk in chunked(ops, (299, 601, 1103)):
            seen += len(chunk)
            verdicts.append((seen, checker.extend(chunk).result))
            checker.retire(allowed_keys=settled_keys(checker, ops[seen:]))
        assert checker.retired_txns > 0
        for seen, result in verdicts:
            prefix = check(History(ops[:seen]))
            assert result_signature(result) == result_signature(prefix)

    def test_retire_composes_with_checkpoint_restore(self):
        # The durable-session path: a retired checker pickles (minus its
        # result, exactly as service checkpoints do) and the restored
        # checker's next verdict is byte-identical to batch.
        history = make_history("list-append", "tidb-retry", seed=41)
        ops = list(history.ops)
        batch = check(history)
        checker = StreamingChecker()
        cut = len(ops) // 2
        checker.extend(ops[:cut])
        summary = checker.retire(
            allowed_keys=settled_keys(checker, ops[cut:])
        )
        assert summary["retired_txns"] > 0

        clone = copy.copy(checker)
        clone.result = None
        restored = pickle.loads(pickle.dumps(clone))
        for resumed in (checker, restored):
            resumed.extend(ops[cut:])
            final = resumed.extend(())
            assert result_signature(final.result) == result_signature(batch)
        # The restored checker is still retired, not silently rehydrated.
        assert restored.retired_txns == checker.retired_txns
        assert restored.resident_ops == checker.resident_ops


class TestRandomizedRetirement:
    """Hypothesis sweep: boundaries and retirement points anywhere."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(WORKLOADS),
        fault=st.sampled_from(sorted(FAULTS)),
        seed=st.integers(min_value=0, max_value=2**16),
        cut_points=st.lists(
            st.integers(min_value=1, max_value=2**16), max_size=6
        ),
        retire_points=st.sets(
            st.integers(min_value=0, max_value=7), max_size=4
        ),
    )
    def test_random_runs(self, workload, fault, seed, cut_points, retire_points):
        history = make_history(workload, fault, seed=seed, txns=120)
        ops = list(history.ops)
        kwargs = dict(workload=workload, **check_options(workload))
        batch = check(history, **kwargs)
        chunks = chunked(ops, cut_points)
        checker, _retired = stream_with_retirement(
            ops, chunks, kwargs, retire_after=retire_points
        )
        final = checker.extend(())
        assert result_signature(final.result) == result_signature(batch)


class TestRetiredKeyContract:
    """The one behavioral difference is loud: retired keys cannot recur."""

    def _retired_checker(self):
        history = make_history("list-append", "none", seed=29)
        ops = list(history.ops)
        checker = StreamingChecker()
        cut = len(ops) // 2
        checker.extend(ops[:cut])
        summary = checker.retire(
            allowed_keys=settled_keys(checker, ops[cut:])
        )
        assert summary["retired_keys"] > 0
        return checker

    def test_recurrence_raises_and_poisons(self):
        checker = self._retired_checker()
        key = next(iter(checker.history.index().retired_keys))
        base = checker.history.max_index + 1
        mops = (MicroOp(APPEND, key, 10**9),)
        bad = [
            Op(base, OpType.INVOKE, 999, mops),
            Op(base + 1, OpType.OK, 999, mops),
        ]
        with pytest.raises(RetiredKeyError) as excinfo:
            checker.extend(bad)
        assert excinfo.value.code == "retired-key"
        # Poisoned: every later call re-raises the same error.
        with pytest.raises(RetiredKeyError):
            checker.extend(())
        with pytest.raises(RetiredKeyError):
            checker.retire()

    def test_retire_refuses_timestamp_edges(self):
        checker = StreamingChecker(timestamp_edges=True)
        checker.extend(())
        summary = checker.retire()
        assert summary["retired_txns"] == 0
        assert summary["reason"] == "timestamp-edges"

    def test_retire_before_any_chunk_is_a_no_op(self):
        checker = StreamingChecker()
        summary = checker.retire()
        assert summary["retired_txns"] == 0
        assert summary["reason"] == "no-verdict"

    def test_unsettled_stream_retires_nothing(self):
        # No allowed keys -> no frozen keys -> nothing retired, loudly
        # reported rather than wrongly dropped.
        history = make_history("list-append", "none", seed=29)
        ops = list(history.ops)
        checker = StreamingChecker()
        checker.extend(ops[: len(ops) // 2])
        summary = checker.retire(allowed_keys=())
        assert summary["retired_txns"] == 0
        assert summary["retired_keys"] == 0


class TestHungInvoke:
    """A never-completed invoke pins only what it could still change."""

    @staticmethod
    def stream(ops, chunk=300, idle=100):
        checker = StreamingChecker()
        retired_keys = 0
        for start in range(0, len(ops), chunk):
            checker.extend(ops[start : start + chunk])
            retired_keys += checker.retire(min_idle_txns=idle)["retired_keys"]
        return checker, retired_keys

    def test_hung_invoke_on_a_fresh_key_does_not_pin_retirement(self):
        history = make_history(
            "list-append", "none", seed=7, txns=1500, crash_probability=0.0
        )
        ops = list(history.ops)
        spare = max(op.process for op in ops) + 1
        hung = Op(0, OpType.INVOKE, spare, (MicroOp(APPEND, 10**9, 1),))
        cut = len(ops) // 10
        with_hung = [
            replace(op, index=i)
            for i, op in enumerate(ops[:cut] + [hung] + ops[cut:])
        ]

        _clean, clean_keys = self.stream(ops)
        checker, hung_keys = self.stream(with_hung)
        assert clean_keys > 0
        assert hung_keys == clean_keys
        final = checker.extend(())
        batch = check(History(with_hung))
        assert result_signature(final.result) == result_signature(batch)
