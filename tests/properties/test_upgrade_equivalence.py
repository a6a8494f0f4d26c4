"""Upgrades whose completion differs from its invocation.

A transaction invoked in one chunk and completed in a later one is first
indexed in its provisional form and then *upgraded*: the index rewrites
that transaction's rows in place.  A completion may differ from its
invocation in every way the format allows — it may name another key,
carry fewer or more micro-ops, write a different value, or commit reads
the invocation left unknown — so these properties feed the incremental
paths random chunkings of generated histories whose completions were
edited by hand, and assert after every chunk that:

* the extended index's per-key view equals a fresh build of the prefix
  and the reference fold (``tests/index_reference.py``);
* the streaming checker's verdict, anomalies and evidence equal a batch
  ``check()`` of the prefix, or both refuse the prefix with the same
  input error.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.core.incremental import StreamingChecker
from repro.db import Isolation
from repro.errors import WorkloadError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import History
from repro.history.ops import READ, MicroOp, Op, OpType
from tests.index_reference import index_signature

WORKLOADS = ["list-append", "rw-register", "grow-set", "counter"]

#: The hand edits a completion can carry; ``invocation-repeat`` gives an
#: invocation a duplicate write that its completion takes back.
EDITS = [
    "other-key",
    "fewer",
    "more",
    "other-value",
    "repeat-value",
    "commit",
    "invocation-repeat",
]


def generated(workload, seed):
    return run_workload(
        RunConfig(
            txns=40,
            concurrency=6,
            isolation=Isolation.SNAPSHOT_ISOLATION,
            workload=WorkloadConfig(workload=workload, active_keys=4),
            seed=seed,
            crash_probability=0.1,
        )
    )


def edit(op, kind, n, keys, written):
    """``op`` (a completion) with one hand edit applied.

    ``other-key`` moves a micro-op to one of the history's ``keys``;
    ``other-value`` writes a value nothing else writes, and
    ``repeat-value`` one of the history's ``written`` ``(key, value)``
    pairs (a duplicate write, unless the value is the transaction's own).
    """
    mops = list(op.value or ())
    op_type = op.type
    writes = [i for i, m in enumerate(mops) if m.fn != READ]
    if kind == "other-key" and mops:
        m = mops[n % len(mops)]
        mops[n % len(mops)] = MicroOp(m.fn, keys[n % len(keys)], m.value)
    elif kind == "fewer" and mops:
        del mops[n % len(mops)]
    elif kind == "more":
        key = keys[n % len(keys)]
        mops.insert(n % (len(mops) + 1), MicroOp(READ, key, None))
    elif kind == "other-value" and writes:
        i = writes[n % len(writes)]
        mops[i] = MicroOp(mops[i].fn, mops[i].key, 10_000 + n)
    elif kind in ("repeat-value", "invocation-repeat") and writes and written:
        i = writes[n % len(writes)]
        key, value = written[n % len(written)]
        mops[i] = MicroOp(mops[i].fn, key, value)
    elif kind == "commit":
        op_type = OpType.OK
    return Op(op.index, op_type, op.process, tuple(mops), op.ts)


def edited_ops(workload, seed, edits):
    ops = list(generated(workload, seed).ops)
    mops = [m for op in ops for m in op.value or ()]
    keys = sorted({m.key for m in mops}, key=repr)
    written = sorted({(m.key, m.value) for m in mops if m.fn != READ}, key=repr)
    completions = [i for i, op in enumerate(ops) if op.type is not OpType.INVOKE]
    for n, (pick, kind) in enumerate(edits):
        i = completions[pick % len(completions)]
        if kind == "invocation-repeat":
            # The completion spells out the invocation's original micro-ops.
            j = max(j for j in range(i) if ops[j].process == ops[i].process)
            done = ops[i]
            if done.value is None:
                ops[i] = Op(done.index, done.type, done.process, ops[j].value, done.ts)
            i = j
        ops[i] = edit(ops[i], kind, n, keys, written)
    return ops


def chunked(ops, cut_points):
    cuts = [0] + sorted({c % (len(ops) + 1) for c in cut_points}) + [len(ops)]
    return [ops[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def verdict(result):
    """The verdict, anomalies and evidence of a check."""
    analysis = result.analysis
    return (
        result.valid,
        result.anomaly_types,
        [(a.name, a.txns, a.message) for a in result.anomalies],
        sorted(analysis.graph.edges()),
        sorted(analysis.evidence.items()),
    )


def batch_verdict(ops, workload):
    try:
        return verdict(check(History(ops), workload=workload))
    except WorkloadError as exc:
        return str(exc)


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HISTORIES = dict(
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**16), st.sampled_from(EDITS)),
        max_size=6,
    ),
    cut_points=st.lists(st.integers(min_value=1, max_value=2**16), max_size=8),
)


@SETTINGS
@given(**HISTORIES)
def test_extended_index_matches_fresh_build_and_fold(workload, seed, edits, cut_points):
    ops = edited_ops(workload, seed, edits)
    history = History(())
    history.index()  # every chunk extends the cached index
    seen = 0
    for chunk in chunked(ops, cut_points):
        history.extend(chunk)
        seen += len(chunk)
        assert index_signature(history.index()) == index_signature(
            History(ops[:seen]).index()
        )


@SETTINGS
@given(**HISTORIES)
def test_stream_matches_batch_of_every_prefix(workload, seed, edits, cut_points):
    ops = edited_ops(workload, seed, edits)
    checker = StreamingChecker(workload=workload)
    seen = 0
    for chunk in chunked(ops, cut_points):
        seen += len(chunk)
        expected = batch_verdict(ops[:seen], workload)
        try:
            streamed = verdict(checker.extend(chunk).result)
        except WorkloadError as exc:
            # A refused prefix poisons the stream; later prefixes are not
            # comparable.
            assert str(exc) == expected
            return
        assert streamed == expected
