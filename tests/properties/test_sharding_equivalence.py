"""The sharding oracle: key-range shards are byte-identical to one pass.

A plan's keyspace splits into contiguous key ranges ("shards"), each
run through :meth:`~repro.core.keyspace.KeyspacePlan.analyze_keys` and
merged with :func:`~repro.core.keyspace._merge`, exactly as the
streaming checker merges its stale keys.  Every batch merge is
deterministic, so a sharded analysis must reproduce the whole-index
pass of :func:`~repro.core.analyze` *exactly*: same anomalies in the
same order with the same messages, same graph (including node interning
order, which cycle-witness selection depends on), same evidence, same
verdict.  ``check(shards=N)`` accepts and ignores the keyword, so it
must give the one-process verdict too.  These tests pin both across all
four workloads, multiple fault injectors, and randomized generator
configurations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.core import analyze
from repro.core.analysis import Analysis
from repro.core.checker import finish_analysis
from repro.core.keyspace import PLANS, _merge
from repro.core.orders import add_orders
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.generator import RunConfig, WorkloadConfig, run_workload

WORKLOADS = ["list-append", "rw-register", "grow-set", "counter"]

FAULTS = {
    "none": None,
    "tidb-retry": lambda rng: TiDBRetry(rng),
    "yugabyte-stale-read": lambda rng: YugaByteStaleRead(
        rng, probability=0.4, staleness=3
    ),
    "fauna-internal": lambda rng: FaunaInternal(rng, probability=0.4, staleness=2),
}


def make_history(workload, fault, seed, txns=250):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=8,
            isolation=Isolation.SNAPSHOT_ISOLATION,
            workload=WorkloadConfig(workload=workload, active_keys=6),
            seed=seed,
            crash_probability=0.02,
            faults=FAULTS[fault],
        )
    )


def analysis_signature(analysis):
    """Everything inference produced, in order."""
    return (
        [(a.name, a.txns, a.message, tuple(sorted(a.data.items(), key=repr)))
         for a in analysis.anomalies],
        list(analysis.graph.nodes()),          # interning order matters
        sorted(analysis.graph.edges()),
        sorted(analysis.evidence.items()),
    )


def result_signature(result):
    """The full verdict, including rendered cycle witnesses."""
    return (
        result.valid,
        result.consistency_model,
        result.anomaly_types,
        tuple((a.name, a.txns, a.message) for a in result.anomalies),
        frozenset(result.impossible),
        frozenset(result.not_),
        frozenset(result.but_possibly),
    ) + analysis_signature(result.analysis)


def key_ranges(keys, shards):
    """``keys`` cut into ``shards`` contiguous ranges (some empty when
    there are more shards than keys)."""
    cuts = [len(keys) * i // shards for i in range(shards + 1)]
    return [keys[a:b] for a, b in zip(cuts, cuts[1:])]


def sharded_analyze(history, workload, shards, **options):
    """The analysis merged from the plan's key ranges, one pass each."""
    plan = PLANS[workload](history, **options)
    anomalies = plan.internal_anomalies()
    fragments = []
    for keys in key_ranges(list(plan.keys()), shards):
        for key_anomalies, fragment in plan.analyze_keys(keys):
            anomalies.extend(key_anomalies)
            fragments.append(fragment)
    analysis = Analysis(history=history, workload=workload)
    _merge(analysis, anomalies, fragments)
    add_orders(analysis, True, True, False)
    return analysis


def sharded_check(history, shards, workload="list-append",
                  consistency_model="serializable", **options):
    """Check verdicts over key-range shards, and ``check(shards=)``'s."""
    merged = finish_analysis(
        sharded_analyze(history, workload, shards, **options),
        consistency_model,
    )
    ignored = check(
        history,
        workload=workload,
        consistency_model=consistency_model,
        shards=shards,
        **options,
    )
    return merged, ignored


def assert_same_check(history, shards, **kwargs):
    sequential = result_signature(check(history, **kwargs))
    for sharded in sharded_check(history, shards, **kwargs):
        assert result_signature(sharded) == sequential


def check_options(workload):
    if workload == "rw-register":
        # Exercise every version-order source, including the per-key
        # process/realtime streams.
        return {
            "sources": (
                "initial-state",
                "write-follows-read",
                "process",
                "realtime",
            )
        }
    return {}


class TestShardedCheckEquivalence:
    """Key-range shards and check(shards=N) == one pass, everywhere."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("fault", ["tidb-retry", "fauna-internal"])
    def test_faulty_histories(self, workload, fault):
        history = make_history(workload, fault, seed=11)
        kwargs = dict(
            workload=workload,
            consistency_model="serializable",
            **check_options(workload),
        )
        for shards in (2, 3):
            assert_same_check(history, shards, **kwargs)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_clean_histories(self, workload):
        history = make_history(workload, "none", seed=5)
        assert_same_check(history, 2, workload=workload)

    def test_yugabyte_stale_read_list_append(self):
        history = make_history("list-append", "yugabyte-stale-read", seed=3)
        assert_same_check(history, 4)

    def test_more_shards_than_keys(self):
        history = make_history("list-append", "none", seed=2, txns=40)
        assert_same_check(history, 64)


class TestShardedAnalyzeEquivalence:
    """The raw Analysis (pre-cycle-search) is identical too."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_analysis_identical(self, workload):
        history = make_history(workload, "tidb-retry", seed=29)
        sequential = analyze(history, workload=workload)
        sharded = sharded_analyze(history, workload, 2)
        assert analysis_signature(sharded) == analysis_signature(sequential)


class TestRandomizedEquivalence:
    """Hypothesis-driven sweep over generator configurations."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(WORKLOADS),
        fault=st.sampled_from(sorted(FAULTS)),
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=2, max_value=4),
        isolation=st.sampled_from(
            [
                Isolation.SERIALIZABLE,
                Isolation.SNAPSHOT_ISOLATION,
                Isolation.READ_COMMITTED,
            ]
        ),
    )
    def test_random_runs(self, workload, fault, seed, shards, isolation):
        history = run_workload(
            RunConfig(
                txns=120,
                concurrency=5,
                isolation=isolation,
                workload=WorkloadConfig(workload=workload, active_keys=4),
                seed=seed,
                crash_probability=0.05,
                faults=FAULTS[fault],
            )
        )
        assert_same_check(
            history, shards, workload=workload, **check_options(workload)
        )
