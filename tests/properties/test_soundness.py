"""Property-based soundness: Elle's verdicts versus an exhaustive oracle.

The paper's Theorem 1: anomalies Elle reports exist in *every*
interpretation of the observation.  For value-edge cycle anomalies that
implies the observation has no serializable explanation at all; for
realtime-variant cycles, no strictly serializable one.  We check this
against the NP-complete search baseline on randomly generated runs spanning
every isolation level and every fault injector.  rw-register runs are
checked too, with all four version-order sources: the inferred-order
sources (``process``, ``realtime``) are where an unsound version edge
would hide.

The generators here produce *real* observations — histories from the MVCC
simulator under randomized workloads, faults, crashes, and aborts — so the
property exercises the same code paths as production use, not synthetic
graphs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.baselines import check_serializable, check_strict_serializable
from repro.db import (
    DgraphShardMigration,
    FaunaInternal,
    Isolation,
    TiDBRetry,
    YugaByteStaleRead,
)
from repro.generator import RunConfig, WorkloadConfig, run_workload

#: Cycle anomalies over value edges only: these imply unserializability.
VALUE_CYCLES = {"G0", "G1c", "G-single", "G2-item"}
#: Including session/realtime variants: these imply strict-unserializability.
ANY_CYCLES = VALUE_CYCLES | {
    f"{base}-{suffix}"
    for base in ("G0", "G1c", "G-single", "G2-item")
    for suffix in ("process", "realtime")
}
#: Non-cycle anomalies that also contradict serializability outright.
HARD_ANOMALIES = {"G1a", "garbage-read", "duplicate-elements"}
#: Every rw-register version-order source; ``process`` and ``realtime``
#: assume per-key sequential consistency / linearizability, which strict
#: serializability implies.
ALL_SOURCES = ("initial-state", "write-follows-read", "process", "realtime")

FAULT_FACTORIES = [
    None,
    lambda rng: TiDBRetry(rng),
    lambda rng: YugaByteStaleRead(rng, probability=0.4, staleness=3),
    lambda rng: FaunaInternal(rng, probability=0.4, staleness=2),
    lambda rng: DgraphShardMigration(rng, probability=0.2),
]


@st.composite
def run_configs(draw, workload="list-append"):
    isolation = draw(st.sampled_from(list(Isolation)))
    fault = draw(st.sampled_from(FAULT_FACTORIES))
    return RunConfig(
        txns=draw(st.integers(min_value=2, max_value=22)),
        concurrency=draw(st.integers(min_value=1, max_value=4)),
        isolation=isolation,
        workload=WorkloadConfig(
            workload=workload,
            active_keys=draw(st.integers(min_value=1, max_value=2)),
            max_writes_per_key=draw(st.integers(min_value=2, max_value=20)),
            min_txn_len=1,
            max_txn_len=draw(st.integers(min_value=1, max_value=4)),
            read_fraction=draw(st.floats(min_value=0.2, max_value=0.8)),
        ),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        crash_probability=draw(st.sampled_from([0.0, 0.1])),
        abort_probability=draw(st.sampled_from([0.0, 0.1])),
        faults=fault,
    )


def oracle(history, real_time):
    checker = check_strict_serializable if real_time else check_serializable
    return checker(history, timeout_s=5.0, max_states=400_000)


@given(run_configs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_value_cycles_imply_unserializability(config):
    history = run_workload(config)
    result = check(history, consistency_model="serializable")
    types = set(result.anomaly_types)
    if types & (VALUE_CYCLES | HARD_ANOMALIES):
        verdict = oracle(history, real_time=False)
        if verdict.valid is None:
            return  # oracle capped: no evidence either way
        assert verdict.valid is False, (
            f"Elle reported {types & (VALUE_CYCLES | HARD_ANOMALIES)} but the "
            f"oracle found a serialization for seed={config.seed}"
        )


@given(run_configs())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_cycles_imply_strict_unserializability(config):
    history = run_workload(config)
    result = check(history, consistency_model="strict-serializable")
    types = set(result.anomaly_types)
    if types & (ANY_CYCLES | HARD_ANOMALIES):
        verdict = oracle(history, real_time=True)
        if verdict.valid is None:
            return
        assert verdict.valid is False, (
            f"Elle reported {types & (ANY_CYCLES | HARD_ANOMALIES)} but the "
            f"oracle found a strict serialization for seed={config.seed}"
        )


@given(run_configs("rw-register"))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_register_findings_imply_strict_unserializability(config):
    history = run_workload(config)
    result = check(
        history,
        workload="rw-register",
        consistency_model="strict-serializable",
        sources=ALL_SOURCES,
    )
    found = set(result.anomaly_types) & (ANY_CYCLES | {"cyclic-versions", "G1a"})
    if found:
        verdict = oracle(history, real_time=True)
        if verdict.valid is None:
            return
        assert verdict.valid is False, (
            f"Elle reported {found} with every version-order source but the "
            f"oracle found a strict serialization for seed={config.seed}"
        )


@given(run_configs("rw-register"))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_register_value_cycles_imply_unserializability(config):
    history = run_workload(config)
    result = check(history, workload="rw-register", consistency_model="serializable")
    found = set(result.anomaly_types) & (VALUE_CYCLES | {"G1a"})
    if found:
        verdict = oracle(history, real_time=False)
        if verdict.valid is None:
            return
        assert verdict.valid is False, (
            f"Elle reported {found} but the oracle found a serialization "
            f"for seed={config.seed}"
        )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=5, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_serializable_runs_are_clean(seed, concurrency, txns):
    """No false positives on an honestly serializable database."""
    config = RunConfig(
        txns=txns,
        concurrency=concurrency,
        isolation=Isolation.SERIALIZABLE,
        workload=WorkloadConfig(active_keys=2, max_writes_per_key=10),
        seed=seed,
        crash_probability=0.05,
        abort_probability=0.05,
    )
    history = run_workload(config)
    result = check(history, consistency_model="strict-serializable")
    assert result.valid, result.anomaly_types
    assert result.anomaly_types == ()


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["rw-register", "grow-set", "counter"]),
)
@settings(max_examples=30, deadline=None)
def test_serializable_runs_clean_across_workloads(seed, workload):
    config = RunConfig(
        txns=25,
        concurrency=4,
        isolation=Isolation.SERIALIZABLE,
        workload=WorkloadConfig(
            workload=workload, active_keys=2, max_writes_per_key=10
        ),
        seed=seed,
    )
    history = run_workload(config)
    result = check(
        history, workload=workload, consistency_model="strict-serializable"
    )
    assert result.valid, (workload, result.anomaly_types)
