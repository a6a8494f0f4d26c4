"""The pure-Python twins: every vectorized pass has a numpy-free double.

The analyzer's hot paths — whole-index columnar screens, bulk edge-array
ingestion, the closed-form interval reduction, process-chain scatter — are
numpy passes, but numpy is an *optional* accelerator: each pass keeps a
pure-Python twin selected by the same ``_np is None`` machinery as the
graph layer's CSR fallback.  These tests force the twins two ways and pin
byte-identity both times:

* ``_np = None`` across every accelerated module (simulating an
  environment without numpy, as the CI ``no-numpy`` job runs for real);
* ``COLUMNAR_MIN_TXNS = 0`` (forcing the columnar screens on histories
  small enough that they normally take the per-key path) against the
  screens disabled outright.

Identity is the full analysis signature — anomalies in order, node
interning order, edges, evidence — the same oracle the sharding and
streaming equivalence suites use.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.generator import RunConfig, WorkloadConfig, run_workload

import repro.core.internal as internal_mod
import repro.core.keyspace as keyspace_mod
import repro.core.list_append as list_append_mod
import repro.core.orders as orders_mod
import repro.graph.csr as csr_mod
import repro.graph.edgelog as edgelog_mod
import repro.graph.intervals as intervals_mod
import repro.history.index as index_mod

#: Every module holding a guarded ``_np`` with a pure-Python twin.
ACCELERATED_MODULES = [
    csr_mod,
    edgelog_mod,
    index_mod,
    internal_mod,
    intervals_mod,
    keyspace_mod,
    list_append_mod,
    orders_mod,
]

FAULTS = {
    "none": None,
    "tidb-retry": lambda rng: TiDBRetry(rng),
    "yugabyte-stale-read": lambda rng: YugaByteStaleRead(
        rng, probability=0.4, staleness=3
    ),
    "fauna-internal": lambda rng: FaunaInternal(
        rng, probability=0.4, staleness=2
    ),
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


def check_options(workload):
    if workload == "rw-register":
        # All four version-order sources: the per-key register path then
        # exercises the CSR, process-order and realtime-interval twins.
        return {
            "sources": (
                "initial-state",
                "write-follows-read",
                "process",
                "realtime",
            )
        }
    return {}


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
    return (
        result.valid,
        result.anomaly_types,
        tuple((a.name, a.txns, a.message) for a in result.anomalies),
    ) + analysis_signature(result.analysis)


def _signed_check(history, workload):
    result = check(history, workload=workload, **check_options(workload))
    return result_signature(result)


@pytest.fixture
def no_numpy(monkeypatch):
    """Null out ``_np`` everywhere, as an import failure would."""
    for mod in ACCELERATED_MODULES:
        monkeypatch.setattr(mod, "_np", None)


@pytest.fixture
def forced_columnar(monkeypatch):
    """Run the whole-index screens on histories of any size."""
    if keyspace_mod._np is None:
        pytest.skip("columnar screens require numpy")
    monkeypatch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 0)


class TestNoNumpyTwins:
    """``_np = None`` must reproduce the accelerated output exactly."""

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_check_is_identical_without_numpy(
        self, monkeypatch, workload, fault
    ):
        # 600 transactions cross COLUMNAR_MIN_TXNS (512) and the interval
        # and process-chain vectorization thresholds, so the reference
        # run takes every accelerated path the twins must match.
        history = make_history(workload, fault, seed=11, txns=600)
        reference = _signed_check(history, workload)
        history._index = None  # the index itself has twinned builders
        with monkeypatch.context() as patch:
            for mod in ACCELERATED_MODULES:
                patch.setattr(mod, "_np", None)
            assert _signed_check(history, workload) == reference

    @pytest.mark.parametrize("workload", ["grow-set", "counter"])
    def test_other_workloads_are_identical_without_numpy(
        self, monkeypatch, workload
    ):
        history = make_history(workload, "tidb-retry", seed=5, txns=600)
        reference = _signed_check(history, workload)
        history._index = None
        with monkeypatch.context() as patch:
            for mod in ACCELERATED_MODULES:
                patch.setattr(mod, "_np", None)
            assert _signed_check(history, workload) == reference

    def test_columnar_screens_decline_without_numpy(self, no_numpy):
        from repro.core import Profile

        history = make_history("list-append", "none", seed=3, txns=600)
        profile = Profile()
        check(history, profile=profile)
        assert "analyze/columnar-screen" not in profile.stages
        assert "analyze/keys" in profile.stages


class TestForcedColumnarScreens:
    """Screens forced on small histories == screens disabled outright."""

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_forced_screen_matches_per_key_path(
        self, monkeypatch, forced_columnar, workload, fault
    ):
        history = make_history(workload, fault, seed=29)
        forced = _signed_check(history, workload)
        with monkeypatch.context() as patch:
            # Larger than any test history: the screen never engages.
            patch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 10**9)
            assert _signed_check(history, workload) == forced


class TestHypothesisSweep:
    """Randomized configurations: twins and screens agree everywhere."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        workload=st.sampled_from(["list-append", "rw-register"]),
        fault=st.sampled_from(sorted(FAULTS)),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_all_three_paths_agree(self, workload, fault, seed):
        history = make_history(workload, fault, seed, txns=120)
        reference = _signed_check(history, workload)
        patch = pytest.MonkeyPatch()
        try:
            patch.setattr(keyspace_mod, "COLUMNAR_MIN_TXNS", 0)
            if keyspace_mod._np is not None:
                assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
        history._index = None
        try:
            for mod in ACCELERATED_MODULES:
                patch.setattr(mod, "_np", None)
            assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
