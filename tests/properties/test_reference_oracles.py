"""Reference oracles: every vectorized pass against the loop it replaced.

Each vectorized pass in the analyzer has exactly one implementation in
``src/``, used at every input size.  The plain loops they replaced live
here as references, and a full check with them patched in must be
byte-identical to the shipped one:

* the O(n·p) interval frontier sweep, which
  ``interval_precedence_pairs`` evaluates in closed form;
* the process-chain walk (``add_process_edges``) and the realtime
  interval preparation (``add_realtime_edges``);
* the internal-consistency candidate comprehension
  (``internal_candidate_positions``);
* the canonical dict build (``graph_reference.canonical_csr``) in place
  of the vectorized ``CSRGraph.from_edge_log``.

The columnar passes of list-append and rw-register have a per-key walk
as their reference.  Each workload has one analyzer in ``src/``, its
pass; the walks live in ``tests/list_append_reference.py`` and
``tests/rw_register_reference.py``, and ``per_key_only`` makes batch
checks and streams run them for every key.

Identity is the full analysis signature — anomalies in order, node
order, edges, evidence — the same oracle the sharding and
streaming equivalence suites use.
"""

import sys
from typing import Hashable, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.keyspace as keyspace_mod
import repro.core.orders as orders_mod
import repro.core.rw_register as rw_register_mod
from repro import check
from repro.core.deps import PROCESS, REALTIME
from repro.core.internal import internal_candidate_positions
from repro.core.orders import add_process_edges, add_realtime_edges
from repro.db import FaunaInternal, Isolation, TiDBRetry, YugaByteStaleRead
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.graph import CSRGraph, interval_precedence_pairs
from tests.graph_reference import canonical_csr
from tests import list_append_reference, rw_register_reference

REFERENCE = "tests.rw_register_reference"

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


# ---------------------------------------------------------------------------
# The loop references


def sweep_pairs(
    ids: List[Hashable], invokes: List[int], completes: List[int]
) -> Tuple[List[Hashable], List[Hashable]]:
    """The frontier sweep, event by event (§5.1's O(n·p) reduction).

    Events run in time order, invocations before completions at the same
    timestamp, input position breaking remaining ties.  The frontier is
    the antichain of maximal completed transactions: a completion evicts
    every member that completed before its own invocation, and an
    invocation gains an edge from every live member.
    """
    m = len(ids)
    for i in range(m):
        if invokes[i] >= completes[i]:
            raise ValueError(
                f"interval for {ids[i]!r} must have invoke < complete, "
                f"got [{invokes[i]}, {completes[i]}]"
            )
    # ``j < m`` encodes the invocation of interval ``j``, ``j - m`` the
    # completion of interval ``j - m``.
    events = []
    for i in range(m):
        events.append((invokes[i], 0, i))
        events.append((completes[i], 1, m + i))
    events.sort()
    sources: List[Hashable] = []
    targets: List[Hashable] = []
    fr_ids: List[Hashable] = []
    fr_completes: List[int] = []
    head = 0
    for _time, _kind, j in events:
        if j < m:
            count = len(fr_ids) - head
            if count:
                sources.extend(fr_ids[head:])
                targets.extend([ids[j]] * count)
        else:
            i = j - m
            while head < len(fr_ids) and fr_completes[head] < invokes[i]:
                head += 1
            fr_ids.append(ids[i])
            fr_completes.append(completes[i])
    return sources, targets


def ref_add_process_edges(analysis, targets=None) -> None:
    """Each process's chain, walked transaction by transaction.

    ``targets`` keeps only the edges into those positions.
    """
    index = analysis.history.index()
    committed = index.txn_committed
    aborted = index.txn_aborted
    ids = index.txn_ids
    chains = {}
    for pos, process in enumerate(index.txn_process):
        chains.setdefault(process, []).append(pos)
    wanted = range(len(ids)) if targets is None else set(targets)
    for positions in chains.values():
        sources: List[int] = []
        targets_: List[int] = []
        last_committed = -1
        for pos in positions:
            if aborted[pos]:
                continue
            if last_committed >= 0 and pos in wanted:
                sources.append(ids[last_committed])
                targets_.append(ids[pos])
            if committed[pos]:
                last_committed = pos
        analysis.graph.add_edge_arrays(sources, targets_, PROCESS)


def ref_add_realtime_edges(analysis, targets=None) -> None:
    """Realtime intervals prepared one transaction at a time, then swept.

    ``targets`` keeps only the edges into those positions.
    """
    history = analysis.history
    index = history.index()
    committed = index.txn_committed
    complete = index.txn_complete
    sentinel = history.max_index + 1
    iv_ids: List[int] = []
    iv_invoke: List[int] = []
    iv_complete: List[int] = []
    for pos in range(len(index.txn_ids)):
        if index.txn_aborted[pos]:
            continue
        iv_ids.append(index.txn_ids[pos])
        iv_invoke.append(index.txn_invoke[pos])
        if committed[pos] and complete[pos] >= 0:
            iv_complete.append(complete[pos])
        else:
            # Indeterminate: the true completion is unobserved.
            sentinel += 1
            iv_complete.append(sentinel)
    sources, sinks = sweep_pairs(iv_ids, iv_invoke, iv_complete)
    if targets is not None:
        wanted = {index.txn_ids[pos] for pos in targets}
        kept = [(u, v) for u, v in zip(sources, sinks) if v in wanted]
        sources = [u for u, _v in kept]
        sinks = [v for _u, v in kept]
    analysis.graph.add_edge_arrays(sources, sinks, REALTIME)


def ref_internal_candidate_positions(index, lo: int, hi: int) -> List[int]:
    committed = index.txn_committed
    candidates = index.internal_candidates
    return [pos for pos in range(lo, hi) if committed[pos] and candidates[pos]]


#: (shipped function, loop reference) pairs, rebound wherever imported.
REFERENCES = [
    (interval_precedence_pairs, sweep_pairs),
    (add_process_edges, ref_add_process_edges),
    (add_realtime_edges, ref_add_realtime_edges),
    (internal_candidate_positions, ref_internal_candidate_positions),
]


def per_key_only(patch) -> None:
    """Force the per-key walk for every key of both columnar plans."""
    list_append_reference.use_reference(patch)
    rw_register_reference.use_reference(patch)


def install_references(patch) -> None:
    """Swap every vectorized pass for its loop reference.

    Each shipped function is rebound in every ``repro`` module that holds
    it (callers import them by name), and in the rw-register reference,
    so no call site is missed.
    """
    for shipped, reference in REFERENCES:
        hits = 0
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith(("repro.", REFERENCE)):
                continue
            for attr, value in list(vars(module).items()):
                if value is shipped:
                    patch.setattr(module, attr, reference)
                    hits += 1
        assert hits, shipped
    patch.setattr(CSRGraph, "from_edge_log", canonical_csr)
    per_key_only(patch)


# ---------------------------------------------------------------------------
# Histories and signatures


def make_history(
    workload,
    fault,
    seed,
    txns=250,
    isolation=Isolation.SNAPSHOT_ISOLATION,
    abort_probability=0.0,
):
    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=8,
            isolation=isolation,
            workload=WorkloadConfig(workload=workload, active_keys=6),
            seed=seed,
            crash_probability=0.02,
            abort_probability=abort_probability,
            faults=FAULTS[fault],
        )
    )


def check_options(workload):
    if workload == "rw-register":
        # All four version-order sources: the per-key register path then
        # runs the interval reduction and the CSR cyclic-version graph.
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
        list(analysis.graph.nodes()),
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


# ---------------------------------------------------------------------------
# Oracles


class TestLoopReferences:
    """The loop references must reproduce the vectorized output exactly."""

    @pytest.mark.parametrize("workload", ["list-append", "rw-register"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_check_matches_loop_references(self, monkeypatch, workload, fault):
        history = make_history(workload, fault, seed=11, txns=600)
        reference = _signed_check(history, workload)
        history._index = None
        with monkeypatch.context() as patch:
            install_references(patch)
            assert _signed_check(history, workload) == reference

    @pytest.mark.parametrize("workload", ["grow-set", "counter"])
    def test_other_workloads_match_loop_references(
        self, monkeypatch, workload
    ):
        history = make_history(workload, "tidb-retry", seed=5, txns=600)
        reference = _signed_check(history, workload)
        history._index = None
        with monkeypatch.context() as patch:
            install_references(patch)
            assert _signed_check(history, workload) == reference

    def test_references_reach_every_call_site(self, monkeypatch):
        install_references(monkeypatch)
        assert orders_mod.interval_precedence_pairs is sweep_pairs
        assert rw_register_mod.interval_precedence_pairs is sweep_pairs
        assert sys.modules[REFERENCE].interval_precedence_pairs is sweep_pairs
        # ``orders.add_orders`` is the one caller of the order-edge passes
        # (batch and streaming alike), and it resolves them in ``orders``.
        assert orders_mod.add_process_edges is ref_add_process_edges
        assert orders_mod.add_realtime_edges is ref_add_realtime_edges
        assert (
            keyspace_mod.internal_candidate_positions
            is ref_internal_candidate_positions
        )
        assert CSRGraph.from_edge_log is canonical_csr

    def test_closed_form_matches_the_sweep_under_heavy_ties(self):
        # Heavy (time, kind) ties stress the stable tie-breaking.
        intervals = [(i, i % 97, i % 97 + 1 + i % 5) for i in range(1500)]
        ids = [i for i, _a, _b in intervals]
        invokes = [a for _i, a, _b in intervals]
        completes = [b for _i, _a, b in intervals]
        closed = interval_precedence_pairs(ids, invokes, completes)
        # Integer ids come back as int64 arrays; compare as lists.
        assert [side.tolist() for side in closed] == list(
            sweep_pairs(ids, invokes, completes)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=60,
        )
    )
    def test_closed_form_matches_the_sweep_at_every_size(self, spans):
        ids = list(range(len(spans)))
        invokes = [start for start, _length in spans]
        completes = [start + length for start, length in spans]
        closed = interval_precedence_pairs(ids, invokes, completes)
        swept = sweep_pairs(ids, invokes, completes)
        assert [list(side) for side in closed] == [list(side) for side in swept]


#: (workload, fault, isolation, abort probability) for the screen oracle.
#: The weak-isolation register runs with aborts witness G1a and G1b.
SCREEN_CASES = [
    (workload, fault, Isolation.SNAPSHOT_ISOLATION, 0.0)
    for workload in ("list-append", "rw-register")
    for fault in sorted(FAULTS)
] + [
    ("rw-register", fault, isolation, 0.2)
    for isolation in (Isolation.READ_UNCOMMITTED, Isolation.READ_COMMITTED)
    for fault in ("none", "tidb-retry")
]


class TestScreenAgainstPerKeyPath:
    """The whole-index passes == the per-key path on every key."""

    @pytest.mark.parametrize(
        "workload,fault,isolation,aborts",
        SCREEN_CASES,
        ids=["-".join((c[0], c[1], c[2].value, str(c[3]))) for c in SCREEN_CASES],
    )
    def test_screen_matches_per_key_path(
        self, monkeypatch, workload, fault, isolation, aborts
    ):
        history = make_history(
            workload, fault, 29, isolation=isolation, abort_probability=aborts
        )
        screened = _signed_check(history, workload)
        with monkeypatch.context() as patch:
            per_key_only(patch)
            assert _signed_check(history, workload) == screened

    def test_register_cases_reach_every_register_finding(self):
        # The oracle above is only as strong as what its register cases
        # produce: together they must reach every register-specific path.
        seen = set()
        for workload, fault, isolation, aborts in SCREEN_CASES:
            if workload == "rw-register":
                history = make_history(
                    workload, fault, 29, isolation=isolation, abort_probability=aborts
                )
                result = check(history, workload=workload, **check_options(workload))
                seen.update(result.anomaly_types)
        assert "cyclic-versions" in seen
        assert "lost-update" in seen
        assert seen & {"G1a", "G1b"}
        assert any(name.startswith("G2-item") for name in seen)


class TestHypothesisSweep:
    """Randomized configurations: every path agrees everywhere."""

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
            per_key_only(patch)
            assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
        history._index = None
        try:
            install_references(patch)
            assert _signed_check(history, workload) == reference
        finally:
            patch.undo()
