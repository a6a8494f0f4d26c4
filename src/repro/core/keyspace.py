"""Keyspace-partitioned analysis: per-key plans, deterministic merge, shards.

Elle's dependency inference is separable by key (§4–§5): version orders,
write indexes, and ww/wr/rw edges are all derived from one key's micro-op
stream at a time.  This module is the execution engine that exploits that
separability.  Each analyzer contributes a :class:`KeyspacePlan` — a recipe
that turns a list of keys into one *batch* per key of anomalies and
evidence-carrying edges (:meth:`KeyspacePlan.analyze_keys`), a batch
depending on its key alone — and :func:`execute_plan` runs the plan over
every key, in one whole-index pass or in key ranges, inline or across a
``multiprocessing`` pool, then merges the batches into the
:class:`~repro.core.analysis.Analysis`.  A :class:`ColumnarPlan`
(list-append, rw-register) has one analyzer, a columnar pass over a key
list: a batch check merges the pass over every key whole, and the
streaming checker splits the pass over a chunk's stale keys by key.

**Determinism.**  Nothing in the result depends on emission order.  A
key's batch is its anomalies plus one evidence fragment.  The merge puts
the anomalies in the canonical order of
:func:`~repro.core.anomalies.sort_anomalies` (taxonomy rank, txns,
message), and the dependency graph's frozen snapshot depends on the edge
set alone.  Evidence follows one rule: when several keys justify the same
edge bit, the first key in the plan's :meth:`KeyspacePlan.keys` order
wins.  The merge does not build evidence: it logs the fragments, in key
order, as one source on the analysis
(:meth:`~repro.core.analysis.Analysis.log_evidence`), which replays them
only if something reads evidence.  So the analysis is byte-identical
whether the plan ran on one shard or many, inline or streamed.

**Sharding.**  ``execute_plan(..., shards=N)`` runs a plan's whole-index
pass first; only a plan that declines it (grow-set, counter) partitions
keys (and the transaction list, for internal-consistency checks) into
contiguous ranges across a worker pool.  Workers are forked after the
plan is built, so they inherit the parent's
:class:`~repro.history.index.HistoryIndex` by copy-on-write and ship back
only compact batch payloads.  On platforms without ``fork`` the pool
falls back to ``spawn`` and rebuilds the plan from the pickled history.

The shared read checks (garbage reads, aborted reads / G1a, intermediate
reads / G1b, dirty updates) live here too, parameterized by a per-workload
:class:`ReadCheckStyle` so each analyzer keeps its own message phrasing
while the logic exists once.
"""

from __future__ import annotations

import multiprocessing
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..history import History, Transaction
from ..history.index import HistoryIndex, take
from .analysis import Analysis, ColumnEvidence, EdgeKey, Evidence
from .anomalies import Anomaly, sort_anomalies
from .internal import INTERNAL_CHECKERS, internal_candidate_positions
from .profiling import Profile, stage
from .validate import validate_workload_indexed

#: One key's analysis: its anomalies and its evidence fragment, the
#: ``(u, v, bit) -> Evidence`` records of the value edges it justifies (the
#: first record of an edge wins).  The fragment's keys are exactly the
#: ``(u, v, label)`` triples the graph bulk-insert path consumes.
Batch = Tuple[List[Anomaly], Dict[EdgeKey, Evidence]]


# ---------------------------------------------------------------------------
# Shared read checks

_MISSING = object()


def final_write_value(txn: Transaction, key: Any) -> Any:
    """The value of ``txn``'s final write to ``key`` (sentinel if none)."""
    for mop in reversed(txn.mops):
        if mop.is_write and mop.key == key:
            return mop.value
    return _MISSING


class ReadCheckStyle(NamedTuple):
    """Per-workload parameterization of :func:`check_recoverable_read`.

    The booleans select which checks the datatype supports; the callables
    build the workload's anomaly records (each analyzer keeps its own
    phrasing).  ``intermediate_after_aborted`` controls whether an aborted
    final element is *also* checked for G1b (lists report both facts;
    registers treat G1a as subsuming it).
    """

    garbage: Callable[[Transaction, Any, Any, Tuple], Anomaly]
    g1a: Callable[[Transaction, Any, Any, Transaction], Anomaly]
    g1b: Optional[
        Callable[[Transaction, Any, Any, Any, Tuple, Transaction], Anomaly]
    ] = None
    dirty: Optional[Callable[..., Anomaly]] = None
    duplicate: Optional[Callable[..., Anomaly]] = None
    duplicates: bool = False
    dirty_updates: bool = False
    intermediate: bool = False
    intermediate_after_aborted: bool = True


def check_recoverable_read(
    reader: Transaction,
    key: Any,
    elements: Tuple,
    write_map: Dict[Any, Transaction],
    style: ReadCheckStyle,
) -> List[Anomaly]:
    """Non-cycle anomalies witnessed by one committed read (§4.1, §6.1).

    ``elements`` is the read's observation as an ordered element sequence
    (one element for registers); ``write_map`` maps the key's written
    values to their writers.  Recoverability turns each element into a
    verdict: unknown writer — garbage; aborted writer — G1a; a non-aborted
    write over an aborted element — dirty update; a final element that was
    not its writer's final write — intermediate read (G1b).
    """
    anomalies: List[Anomaly] = []

    if style.duplicates:
        seen: Dict[Any, int] = {}
        for pos, element in enumerate(elements):
            if element in seen:
                anomalies.append(
                    style.duplicate(reader, key, element, seen[element], pos, elements)
                )
            else:
                seen[element] = pos

    first_aborted = None
    for pos, element in enumerate(elements):
        writer = write_map.get(element)
        if writer is None:
            anomalies.append(style.garbage(reader, key, element, elements))
            continue
        if writer.aborted:
            anomalies.append(style.g1a(reader, key, element, writer))
            if first_aborted is None:
                first_aborted = (pos, element, writer)
        elif first_aborted is not None and style.dirty_updates:
            _apos, aelement, awriter = first_aborted
            anomalies.append(
                style.dirty(reader, key, element, aelement, awriter, writer)
            )
            first_aborted = None  # one report per aborted segment

    if style.intermediate and elements:
        last = elements[-1]
        writer = write_map.get(last)
        if (
            writer is not None
            and writer.id != reader.id
            and (style.intermediate_after_aborted or not writer.aborted)
        ):
            final = final_write_value(writer, key)
            if final is not _MISSING and final != last:
                anomalies.append(
                    style.g1b(reader, key, last, final, elements, writer)
                )
    return anomalies


# ---------------------------------------------------------------------------
# Plans

class KeyspacePlan:
    """One workload's per-key analysis recipe.

    Subclasses set :attr:`workload`, validate the observation's
    recoverability contract in ``__init__`` (raising
    :class:`~repro.errors.WorkloadError` in the parent, deterministically),
    and implement :meth:`analyze_key` or :meth:`analyze_keys` (a
    :class:`ColumnarPlan` implements its pass instead).  The base
    constructor first rejects micro-ops foreign to the workload, so that
    error outranks every contract check a subclass runs after it.
    ``plan_options`` must capture the constructor keywords so a
    ``spawn``-based worker can rebuild the plan from the pickled history.
    """

    workload: str = ""
    #: The :class:`~repro.history.index.KeySlice` field :meth:`keys` is
    #: sorted by (first committed read; rw-register: first appearance).
    key_rank: str = "first_read_seq"

    def __init__(self, history: History, **options: Any) -> None:
        validate_workload_indexed(history, self.workload)
        self.history = history
        self.index: HistoryIndex = history.index()
        self.plan_options: Dict[str, Any] = dict(options)
        self._keys: Sequence[Any] = ()

    def keys(self) -> Sequence[Any]:
        """Keys to analyze, in evidence-precedence order."""
        return self._keys

    def analyze_key(self, key: Any) -> Batch:
        """The anomalies and evidence fragment derived from one key."""
        raise NotImplementedError

    def analyze_keys(self, keys: Sequence[Any]) -> List[Batch]:
        """The batches of ``keys``, in order; each depends on its key alone.

        The unit of work of the streaming checker (a chunk's stale keys)
        and of the worker pool (a key range).  The default runs
        :meth:`analyze_key` per key; a :class:`ColumnarPlan` runs one
        pass over the key list and splits it by key.
        """
        return list(map(self.analyze_key, keys))

    def analyze_index(
        self, analysis: Analysis, profile: Optional[Profile] = None
    ) -> bool:
        """Whole-index fast path: analyze every key in one vectorized pass.

        Returns ``True`` when the plan fully handled the analysis
        (including the merge into ``analysis`` and its evidence source);
        ``False`` to fall back to the chunk path over
        :meth:`analyze_keys`.  A :class:`ColumnarPlan` merges its pass
        over every key; grow-set and counter always run the chunk path.
        """
        return False

    def check_internal(self, txn: Transaction) -> List[Anomaly]:
        """Internal-consistency anomalies for one committed transaction."""
        return INTERNAL_CHECKERS[self.workload](txn)

    def internal_anomalies(self, txn_lo: int, txn_hi: int) -> List[Anomaly]:
        """The internal-consistency sweep over a transaction range.

        Reads the index's columnar transaction status arrays and skips
        every transaction whose ``internal_candidates`` bit is clear — a
        transaction with no read-after-same-key micro-op can never witness
        an internal anomaly, so the per-transaction checker only runs
        where it could possibly report something.
        """
        index = self.index
        transactions = index.transactions
        check_internal = self.check_internal
        found: List[Anomaly] = []
        for pos in internal_candidate_positions(index, txn_lo, txn_hi):
            found.extend(check_internal(transactions[pos]))
        return found


class Findings(NamedTuple):
    """One columnar pass over a key list, before a merge or a split."""

    #: Key by key, each key's anomalies in the order it reports them.
    anomalies: List[Anomaly]
    anomaly_keys: List[int]  # each anomaly's index in the pass's key list
    evidence: ColumnEvidence  # the edge columns and their records


class ColumnarPlan(KeyspacePlan):
    """A plan whose unit of work is one columnar pass over a key list.

    Subclasses implement :meth:`_pass`.  A batch check runs it over every
    key and merges the result whole: the anomalies in canonical order,
    the edges as one block of columns, and the pass's
    :class:`~repro.core.analysis.ColumnEvidence` as the evidence source.
    The streaming checker runs it over a chunk's stale keys and splits
    it by key.  A key's findings never mix with another key's, so its
    batch is the same in whatever key list it comes.
    """

    def _pass(
        self, keys: Sequence[Any], profile: Optional[Profile] = None
    ) -> Findings:
        """The anomalies and edge columns of ``keys``, in one pass."""
        raise NotImplementedError

    def analyze_index(
        self, analysis: Analysis, profile: Optional[Profile] = None
    ) -> bool:
        """Merge the pass over every key, with the internal sweep's
        anomalies, into ``analysis``."""
        keys = self._keys
        if not keys:
            return False
        index = self.index
        found = self._pass(keys, profile)
        with stage(profile, "analyze/merge"):
            anomalies = self.internal_anomalies(0, len(index.transactions))
            anomalies.extend(found.anomalies)
            analysis.anomalies.extend(sort_anomalies(anomalies))
            columns = found.evidence.columns
            # One gather of transaction ids for both endpoint columns.
            ends = take(
                index.txn_ids,
                np.concatenate([c.u for c in columns] + [c.v for c in columns]),
            )
            out_u, out_v = np.split(ends, 2)
            out_l = np.repeat(
                np.array([c.bit for c in columns], dtype=np.int64),
                [len(c.u) for c in columns],
            )
            analysis.graph.add_edge_columns(out_u, out_v, out_l)
            analysis.log_evidence(found.evidence)
        return True

    def analyze_keys(self, keys: Sequence[Any]) -> List[Batch]:
        """Each key's batch, from one pass over ``keys``: its anomalies,
        and a fragment holding, for every edge bit the key justifies, its
        lowest-rank record."""
        if not keys:
            return []
        found = self._pass(keys)
        batches: List[Batch] = [
            ([], fragment) for fragment in found.evidence.by_key(len(keys))
        ]
        for k, anomaly in zip(found.anomaly_keys, found.anomalies):
            batches[k][0].append(anomaly)
        return batches


#: Registered plans: workload name -> plan class (populated by analyzers).
PLANS: Dict[str, type] = {}


def register_plan(cls: type) -> type:
    """Class decorator: register a :class:`KeyspacePlan` by its workload."""
    PLANS[cls.workload] = cls
    return cls


# ---------------------------------------------------------------------------
# Execution

def _chunk_bounds(plan: KeyspacePlan, shards: int) -> List[Tuple[int, int, int, int]]:
    """Contiguous ``(txn_lo, txn_hi, key_lo, key_hi)`` ranges per shard.

    Contiguous rather than strided: transactions and keys are laid out in
    memory roughly in creation order, so range chunks keep each forked
    worker's page faults (copy-on-write from the inherited index) local to
    its own share instead of touching every page.
    """
    n_txns = len(plan.index.transactions)
    n_keys = len(plan.keys())
    return [
        (
            i * n_txns // shards,
            (i + 1) * n_txns // shards,
            i * n_keys // shards,
            (i + 1) * n_keys // shards,
        )
        for i in range(shards)
    ]


#: One worker's share: anomalies plus the non-empty fragments, in key order.
Chunk = Tuple[List[Anomaly], List[Dict[EdgeKey, Evidence]]]


def _analyze_chunk(
    plan: KeyspacePlan, txn_lo: int, txn_hi: int, key_lo: int, key_hi: int
) -> Chunk:
    """One worker's share: a transaction range and a key range."""
    anomalies = plan.internal_anomalies(txn_lo, txn_hi)
    fragments: List[Dict[EdgeKey, Evidence]] = []
    for key_anomalies, fragment in plan.analyze_keys(plan.keys()[key_lo:key_hi]):
        anomalies.extend(key_anomalies)
        if fragment:
            fragments.append(fragment)
    return anomalies, fragments


def _merge(analysis: Analysis, chunks: Sequence[Chunk]) -> None:
    """Apply chunks, given in key order: the deterministic heart of the design.

    Anomalies go in the canonical order; each fragment's keys are the
    exact (u, v, bit) triples, so whole fragments land in the graph's edge
    log without per-edge dispatch.  The fragments, in key order, become
    one evidence source, replayed only if something reads evidence.
    """
    anomalies: List[Anomaly] = []
    fragments: List[Dict[EdgeKey, Evidence]] = []
    for chunk_anomalies, chunk_fragments in chunks:
        anomalies.extend(chunk_anomalies)
        fragments.extend(chunk_fragments)
    analysis.anomalies.extend(sort_anomalies(anomalies))
    graph_add = analysis.graph.add_edge_keys
    for fragment in fragments:
        graph_add(fragment)
    analysis.log_evidence(lambda: fragments)


# Worker-side state.  Under the ``fork`` start method the parent sets
# ``_WORKER_PLAN`` before creating the pool and children inherit it (and the
# whole HistoryIndex) by copy-on-write; under ``spawn`` the initializer
# rebuilds the plan from the pickled history.
_WORKER_PLAN: Optional[KeyspacePlan] = None


def _spawn_init(payload: Tuple[History, str, Dict[str, Any]]) -> None:
    global _WORKER_PLAN
    history, workload, options = payload
    _WORKER_PLAN = PLANS[workload](history, **options)


def _run_chunk(args: Tuple[int, int, int, int]) -> Chunk:
    return _analyze_chunk(_WORKER_PLAN, *args)


def _make_pool(plan: KeyspacePlan, processes: int):
    global _WORKER_PLAN
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        ctx = multiprocessing.get_context("fork")
        _WORKER_PLAN = plan
        return ctx.Pool(processes)
    ctx = multiprocessing.get_context("spawn")
    payload = (plan.history, plan.workload, plan.plan_options)
    return ctx.Pool(processes, _spawn_init, (payload,))


def execute_plan(
    plan: KeyspacePlan,
    analysis: Analysis,
    shards: int = 1,
    profile: Optional[Profile] = None,
) -> None:
    """Run a plan over its keyspace and merge the batches into ``analysis``.

    The plan's whole-index pass runs first, whatever ``shards`` says; a
    plan without one declines, and its per-key work runs inline
    (``shards=1``) or fans out, with the internal-consistency sweep,
    across ``N`` worker processes.  The merged result is identical to the
    sequential run by construction.  The ``keyspace.shards`` counter
    records the pool's size, so only a run that started a pool has it.
    """
    global _WORKER_PLAN
    shards = max(1, int(shards))
    work_units = max(len(plan.keys()), 1)
    shards = min(shards, work_units)
    if profile is not None:
        profile.count("keyspace.keys", len(plan.keys()))

    if plan.analyze_index(analysis, profile):
        return
    if shards == 1:
        n_txns = len(plan.index.transactions)
        n_keys = len(plan.keys())
        with stage(profile, "analyze/keys"):
            chunks = [_analyze_chunk(plan, 0, n_txns, 0, n_keys)]
    else:
        if profile is not None:
            profile.count("keyspace.shards", shards)
        pool = _make_pool(plan, shards)
        bounds = _chunk_bounds(plan, shards)
        try:
            # Ordered: the key ranges are contiguous, so chunk order is
            # key order.
            with pool, stage(profile, "analyze/keys"):
                chunks = list(pool.imap(_run_chunk, bounds))
        finally:
            _WORKER_PLAN = None

    with stage(profile, "analyze/merge"):
        _merge(analysis, chunks)
