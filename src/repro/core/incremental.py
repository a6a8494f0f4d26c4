"""Streaming incremental checking: verdicts that keep pace with the stream.

Elle's pitch is that anomaly inference is cheap enough to run continuously
against a live system (§7.5), but :func:`~repro.core.checker.check` is
batch-shaped: every call re-derives the history index, re-runs every per-key
plan, and re-searches the graph.  This module adds the online mode.  A
:class:`StreamingChecker` ingests a history as successive chunks of
operations and emits, after each chunk, the verdict for the prefix observed
so far — with the expensive half of the work made incremental:

* the history and its :class:`~repro.history.index.HistoryIndex` are
  extended in place (:meth:`~repro.history.history.History.extend`), never
  re-scanned;
* per-key analysis batches are cached and recomputed only for *dirty* keys
  — those whose slice changed, detected by the slice ``version`` counter
  (a batch depends on its key alone, never on the key's rank);
* internal-consistency results are cached per transaction and refreshed
  only for transactions the chunk added or upgraded;
* the dependency graph is reassembled from the cached batches through the
  deterministic merge of :mod:`repro.core.keyspace`, and the cycle search
  runs through the same SCC refinement tree as batch checking — on a clean
  prefix a single full-graph Tarjan resolves all sixteen passes.

**Equivalence.**  After each chunk the emitted :class:`CheckResult` is
byte-identical to ``check()`` of the same prefix — same anomalies in the
same order with the same messages and evidence, same dependency graph,
same verdict.  ``tests/properties/test_streaming_equivalence.py`` pins this
for every workload, fault injector, and hypothesis-chosen chunk boundaries.

**Chunk-boundary semantics.**  A chunk may split a transaction: its
invocation arrives now, its completion later (or never).  Until the
completion arrives the transaction is *provisionally indeterminate* —
exactly how a batch check of the same prefix would treat it: it can receive
dependency edges but never emits process or real-time edges, so no verdict
claims are retracted when the completion lands.  When it does land, the
transaction is *upgraded* in place and every key it touched is re-analyzed.
Anomaly sets are therefore not monotone across chunks — a read that looked
incompatible against a short version order can become a clean prefix of a
longer one — and :class:`StreamUpdate` reports both the newly appeared and
the newly resolved anomalies.

An error (malformed operation, broken recoverability contract) poisons the
stream: the failing :meth:`StreamingChecker.extend` raises, and every later
call re-raises the same error, because the half-extended history can no
longer be trusted.

**Settled-prefix retirement.**  A forever-stream grows without bound; for a
daemon serving sessions for weeks the binding constraint is *memory*, not
compute.  :meth:`StreamingChecker.retire` folds the settled part of the
prefix — transactions whose outcome can no longer change and whose every
analysis contribution is final — into a compact frozen summary (each
settled key's batch, plus the pre-rendered cycle anomalies among retired
transactions) and drops the per-op storage: the ops tuple entries, the
Transaction views, and the per-key slice streams.  What stays resident is
O(active window): live ops, live slices, and the per-transaction integer
columns the order edges re-derive from.  The verdict stream after any mix
of extends and retires is byte-identical to the unretired checker's —
``tests/properties/test_retirement_equivalence.py`` pins this across
workloads, fault injectors, and hypothesis-chosen retirement points,
including through a checkpoint/restore cycle.  The one contract change: a
retired key can never be touched again (the slice cannot be re-derived), so
a recurrence raises :class:`~repro.errors.RetiredKeyError` and poisons the
stream — streams that retire must rotate their keyspace.  A transaction
whose completion never arrives pins only what it could still change: the
keys it touched and the transactions reachable from it in the dependency
graph.  Every other key freezes, because a frozen batch re-merges wherever
the key sits in the current key order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..history import History
from ..history.ops import Op
from .analysis import Analysis
from .anomalies import Anomaly, CycleAnomaly
from .checker import CheckResult, finish_analysis
from .consistency import SERIALIZABLE, _validate as _validate_model
from .gcpause import paused_gc
from .keyspace import PLANS, Batch, _merge
from .orders import add_orders
from .profiling import Profile, stage
from .validate import validate_workload


@dataclass(frozen=True)
class StreamUpdate:
    """One chunk's outcome: the prefix verdict plus what changed.

    ``result`` is the full batch-equivalent :class:`CheckResult` for the
    prefix observed so far.  ``new_anomalies`` lists anomalies absent from
    the previous chunk's verdict; ``resolved`` counts anomalies that
    disappeared (a longer prefix can retroactively legitimize a read).
    ``reanalyzed_keys`` / ``reused_keys`` expose the incremental economics:
    how many per-key plans actually re-ran versus came from cache.
    """

    chunk: int
    ops: int
    txns: int
    result: CheckResult
    new_anomalies: Tuple[Anomaly, ...]
    resolved: int
    reanalyzed_keys: int
    reused_keys: int


#: Cached per-key analysis: (slice version, batch).
_CacheEntry = Tuple[int, Batch]


class StreamingChecker:
    """Check an unbounded operation stream one chunk at a time.

    Construction mirrors :func:`~repro.core.checker.check`'s keywords;
    extra options (e.g. ``sources`` for rw-register) pass through to the
    workload's :class:`~repro.core.keyspace.KeyspacePlan`.  Feed chunks with
    :meth:`extend`; each call returns a :class:`StreamUpdate` whose
    ``result`` is byte-identical to a batch check of the prefix.
    """

    def __init__(
        self,
        workload: str = "list-append",
        consistency_model: str = SERIALIZABLE,
        process_edges: bool = True,
        realtime_edges: bool = True,
        timestamp_edges: bool = False,
        profile: Optional[Profile] = None,
        **plan_options: Any,
    ) -> None:
        if workload not in PLANS:
            raise ValueError(
                f"unknown workload {workload!r}; known: {sorted(PLANS)}"
            )
        _validate_model(consistency_model)
        self.workload = workload
        self.consistency_model = consistency_model
        self.history = History(())
        self.chunks = 0
        self.result: Optional[CheckResult] = None
        self._process_edges = process_edges
        self._realtime_edges = realtime_edges
        self._timestamp_edges = timestamp_edges
        self._profile = profile
        self._plan_options = plan_options
        self._key_cache: Dict[Any, _CacheEntry] = {}
        #: Cached internal-consistency anomalies, per transaction id (only
        #: transactions that actually have anomalies are stored; a retired
        #: transaction's entry never changes again).
        self._internal: Dict[int, List[Anomaly]] = {}
        self._prev_counts: Counter = Counter()
        self._error: Optional[BaseException] = None
        #: Frozen summary of the retired prefix: each retired key's batch
        #: (re-merged on every extension wherever the key sits in the key
        #: order, exactly as a batch check places it), the pre-rendered
        #: cycle anomalies among retired transactions, and the retired
        #: transaction ids (components to skip in the cycle search).
        self._frozen: Dict[Any, Batch] = {}
        self._frozen_cycles: List[CycleAnomaly] = []
        self._frozen_cycle_keys: Set[Tuple[Any, ...]] = set()
        self._retired_ids: Set[int] = set()

    # ------------------------------------------------------------------

    def extend(
        self, ops: Sequence[Op], profile: Optional[Profile] = None
    ) -> StreamUpdate:
        """Ingest one chunk and return the refreshed prefix verdict.

        ``profile`` overrides the checker's long-lived profile for this
        one chunk — the service's per-chunk tracer threads a fresh
        :class:`~repro.obs.tracing.SpanProfile` through each slice
        without touching checker state (checkpoints never carry it).
        """
        if self._error is not None:
            raise self._error
        try:
            with paused_gc():
                return self._extend(ops, profile)
        except BaseException as exc:
            self._error = exc
            raise

    def _extend(
        self, ops: Sequence[Op], profile: Optional[Profile] = None
    ) -> StreamUpdate:
        if profile is None:
            profile = self._profile
        ops_before = len(self.history.ops)
        with stage(profile, "stream/ingest"):
            delta = self.history.extend(ops)
            changed = delta.changed
            # Only the chunk's transactions need the per-mop scan; once
            # they pass, the plan's own check below is satisfied by the
            # index's function census and never walks the full history
            # (whose retired slots are ``None``).
            validate_workload(changed, self.workload)
        # Plan construction is cheap (the index is extended, not rebuilt)
        # and re-applies the workload's recoverability contract exactly as
        # a batch check of this prefix would.
        with stage(profile, "stream/plan"):
            plan = PLANS[self.workload](self.history, **self._plan_options)
            for txn in changed:
                if txn.committed:
                    found = plan.check_internal(txn)
                    if found:
                        self._internal[txn.id] = found
                    else:
                        self._internal.pop(txn.id, None)
        with stage(profile, "stream/keys"):
            anomalies: List[Anomaly] = []
            for found in self._internal.values():
                anomalies.extend(found)
            fragments = []
            index = plan.index
            cache = self._key_cache
            # Evict every dirty key up front.  The version clock alone
            # already prevents stale hits (versions never repeat, even for
            # a deleted-and-recreated slice), but eviction also drops
            # entries for keys an upgrade removed from the history, which
            # would otherwise linger in the cache forever.
            for key in delta.dirty_keys or ():
                cache.pop(key, None)
            reused = reanalyzed = 0
            frozen = self._frozen
            for key in plan.keys():
                slice_ = index.slices[key]
                if slice_.retired:
                    batch = frozen[key]
                else:
                    entry = cache.get(key)
                    if entry is not None and entry[0] == slice_.version:
                        batch = entry[1]
                        reused += 1
                    else:
                        batch = plan.analyze_key(key)
                        cache[key] = (slice_.version, batch)
                        reanalyzed += 1
                key_anomalies, fragment = batch
                anomalies.extend(key_anomalies)
                if fragment:
                    fragments.append(fragment)
        with stage(profile, "stream/merge"):
            analysis = Analysis(history=self.history, workload=self.workload)
            _merge(analysis, [(anomalies, fragments)])
        with stage(profile, "stream/orders"):
            add_orders(
                analysis,
                self._process_edges,
                self._realtime_edges,
                self._timestamp_edges,
            )
        result = finish_analysis(
            analysis,
            self.consistency_model,
            profile,
            retired=self._retired_ids or None,
            frozen_cycles=self._frozen_cycles,
        )
        if profile is not None:
            profile.count("stream.keys_reused", reused)
            profile.count("stream.keys_reanalyzed", reanalyzed)

        self.chunks += 1
        self.result = result
        counts = Counter(
            (a.name, a.txns, a.message) for a in result.anomalies
        )
        fresh = counts - self._prev_counts
        resolved = sum((self._prev_counts - counts).values())
        new_anomalies = []
        budget = Counter(fresh)
        for anomaly in result.anomalies:
            ident = (anomaly.name, anomaly.txns, anomaly.message)
            if budget[ident] > 0:
                budget[ident] -= 1
                new_anomalies.append(anomaly)
        self._prev_counts = counts
        return StreamUpdate(
            chunk=self.chunks,
            ops=len(self.history.ops) - ops_before,
            txns=len(self.history),
            result=result,
            new_anomalies=tuple(new_anomalies),
            resolved=resolved,
            reanalyzed_keys=reanalyzed,
            reused_keys=reused,
        )

    # ------------------------------------------------------------------
    # Settled-prefix retirement

    @property
    def resident_ops(self) -> int:
        """Ops still held in memory (total minus retired)."""
        return self.history.resident_ops

    @property
    def retired_ops(self) -> int:
        """Ops dropped by retirement (still counted in totals)."""
        return self.history.retired_ops

    @property
    def retired_txns(self) -> int:
        return len(self._retired_ids)

    def estimated_bytes(self) -> int:
        """A coarse resident-footprint estimate for governance accounting.

        Deliberately a model, not a measurement: op records and their
        micro-op tuples dominate a live window (~400 bytes each), the
        per-transaction integer columns are the retained floor (~100 bytes
        per transaction position, placeholders included), and each frozen
        edge keeps its evidence record (~200 bytes).  Deterministic, so
        watermark behavior is unit-testable without touching the RSS.
        """
        frozen_edges = sum(len(frag) for _found, frag in self._frozen.values())
        return (
            len(self.history.ops) * 400
            + len(self.history.transactions) * 100
            + frozen_edges * 200
        )

    def retire(
        self,
        allowed_keys: Optional[Iterable[Any]] = None,
        min_idle_txns: int = 0,
    ) -> Dict[str, Any]:
        """Fold the settled prefix into the frozen summary and drop it.

        A key *freezes* when every transaction that touched it is final
        (its completion was observed, so no upgrade can ever rebuild the
        slice): its analysis batch can never change, so the batch is frozen
        and the slice's streams are released.  A transaction *retires* when
        it is final, every key it touched is frozen, and no live
        transaction can reach it through the dependency graph — the
        in-closure that makes retirement safe for the cycle search: a
        retired transaction's in-edges are fixed (value edges come from
        frozen keys, order edges from transactions that precede it), so any
        cycle through it walks backwards without ever leaving the retired
        set — meaning every such cycle exists *now* and is frozen
        pre-rendered.  Out-edges toward live transactions are harmless and
        expected (process chains cross every retirement boundary): order
        edges re-derive from the per-transaction columns, which retirement
        keeps.

        ``allowed_keys`` restricts which keys may freeze (callers that know
        the future of the stream — tests, clients with rotating keyspaces —
        pass the keys that will never recur); ``min_idle_txns`` is the
        service's heuristic variant: only keys untouched by the last N
        transactions freeze.  Touching a retired key later raises
        :class:`~repro.errors.RetiredKeyError` and poisons the stream.

        Returns a summary dict (``retired_txns``, ``retired_keys``,
        ``retired_ops``, ``resident_ops``, ...); all-zero when nothing is
        eligible, when no chunk was analyzed yet, or — because timestamp
        edges derive from transaction views that retirement destroys — when
        ``timestamp_edges`` is enabled (``reason`` says why).
        """
        if self._error is not None:
            raise self._error
        try:
            return self._retire(allowed_keys, min_idle_txns)
        except BaseException as exc:
            self._error = exc
            raise

    def _summary(self, **overrides: Any) -> Dict[str, Any]:
        summary = {
            "retired_txns": 0,
            "retired_keys": 0,
            "retired_ops": 0,
            "total_retired_txns": len(self._retired_ids),
            "total_retired_ops": self.history.retired_ops,
            "resident_ops": self.history.resident_ops,
        }
        summary.update(overrides)
        return summary

    def _retire(
        self, allowed_keys: Optional[Iterable[Any]], min_idle_txns: int
    ) -> Dict[str, Any]:
        if self._timestamp_edges:
            # add_timestamp_edges walks the Transaction views themselves;
            # no dominance argument exists for database timestamps anyway.
            return self._summary(reason="timestamp-edges")
        if self.result is None:
            return self._summary(reason="no-verdict")
        index = self.history._index
        if index is None:  # pragma: no cover - result implies a built index
            return self._summary(reason="no-index")
        if allowed_keys is not None and not isinstance(allowed_keys, set):
            allowed_keys = set(allowed_keys)

        transactions = self.history.transactions
        n = len(transactions)
        complete = index.txn_complete
        ids = index.txn_ids
        cache = self._key_cache

        # -- candidate keys: live, permitted, idle, and freezable --------
        # A key freezes either from its fresh cached batch (analyzed last
        # extension) or as a no-batch key: one the plan never analyzes
        # because nobody read it (read-ordered workloads only — the
        # rw-register plan analyzes every key).
        read_ordered = self.workload != "rw-register"
        candidates: Dict[Any, Tuple[Any, Optional[_CacheEntry]]] = {}
        for key, slice_ in index.slices.items():
            if slice_.retired:
                continue
            if allowed_keys is not None and key not in allowed_keys:
                continue
            if (
                min_idle_txns
                and slice_.op_txn
                and slice_.op_txn[-1] >= n - min_idle_txns
            ):
                continue
            entry = cache.get(key)
            if entry is not None and entry[0] == slice_.version:
                candidates[key] = (slice_, entry)
            elif (
                entry is None
                and read_ordered
                and slice_.first_read_seq is None
            ):
                candidates[key] = (slice_, None)

        # -- frozen keys: every toucher final ----------------------------
        # A provisional toucher blocks the freeze: its completion would
        # upgrade the transaction and rebuild the slice, which a stub
        # cannot do.  Final touchers (committed, aborted, or indeterminate
        # with the completion observed) never change again.
        frozen = {
            key: value
            for key, value in candidates.items()
            if all(complete[p] >= 0 for p in value[0].op_txn)
        }

        # -- retirable transactions: final, every key frozen -------------
        slices = index.slices
        retirable: List[int] = []
        for p in range(n):
            txn = transactions[p]
            if txn is None or complete[p] < 0:
                continue
            for mop in txn.mops:
                s = slices.get(mop.key)
                if s is None or (not s.retired and mop.key not in frozen):
                    break
            else:
                retirable.append(p)

        if not retirable and not frozen:
            return self._summary(reason="nothing-settled")

        # -- in-closure: nothing retired is reachable from live ----------
        # Walk the frozen graph's CSR rows forward from every live transaction;
        # any retirement candidate it reaches stays resident.  Survivors'
        # in-edges all come from survivors or earlier-retired transactions
        # (both fixed forever), so no future cycle can include them without
        # lying entirely inside the retired set — where every cycle already
        # exists and is frozen below.
        new_ids = {ids[p] for p in retirable}
        if new_ids:
            csr = self.result.analysis.graph.freeze()
            nodes = csr.nodes
            indptr = csr.indptr
            indices = csr.indices
            sealed = new_ids | self._retired_ids
            stack = [i for i, u in enumerate(nodes) if u not in sealed]
            visited = bytearray(len(nodes))
            for i in stack:
                visited[i] = 1
            while stack:
                i = stack.pop()
                for j in indices[indptr[i]:indptr[i + 1]]:
                    if not visited[j]:
                        visited[j] = 1
                        stack.append(j)
            reached = set(compress(nodes, visited))
            if reached & new_ids:
                new_ids -= reached
                retirable = [p for p in retirable if ids[p] in new_ids]

        if not retirable and not frozen:
            return self._summary(reason="nothing-settled")

        # -- freeze, then drop -------------------------------------------
        total_retired = self._retired_ids | new_ids
        for anomaly in self.result.anomalies:
            if (
                isinstance(anomaly, CycleAnomaly)
                and anomaly.steps
                and set(anomaly.txns) <= total_retired
            ):
                cycle_key = (anomaly.name, anomaly.txns)
                if cycle_key not in self._frozen_cycle_keys:
                    self._frozen_cycle_keys.add(cycle_key)
                    self._frozen_cycles.append(anomaly)
        for key, (_slice, entry) in frozen.items():
            cache.pop(key, None)
            if entry is not None:
                self._frozen[key] = entry[1]
        index.retire(frozen.keys())
        dropped = self.history.retire_transactions(retirable)
        self._retired_ids = total_retired
        return self._summary(
            retired_txns=len(retirable),
            retired_keys=len(frozen),
            retired_ops=dropped,
            total_retired_txns=len(total_retired),
            total_retired_ops=self.history.retired_ops,
            resident_ops=self.history.resident_ops,
        )


def check_stream(
    chunks: Iterable[Sequence[Op]],
    workload: str = "list-append",
    consistency_model: str = SERIALIZABLE,
    process_edges: bool = True,
    realtime_edges: bool = True,
    timestamp_edges: bool = False,
    profile: Optional[Profile] = None,
    **options: Any,
) -> CheckResult:
    """Check a chunked operation stream; returns the final prefix verdict.

    The streaming analogue of :func:`~repro.core.checker.check`: consumes an
    iterable of operation chunks (e.g. from
    :func:`~repro.history.io.iter_op_chunks`), re-checks the growing prefix
    incrementally after each one, and returns the last verdict — which is
    byte-identical to ``check()`` over the concatenated operations.  Use
    :class:`StreamingChecker` directly for per-chunk updates.
    """
    checker = StreamingChecker(
        workload=workload,
        consistency_model=consistency_model,
        process_edges=process_edges,
        realtime_edges=realtime_edges,
        timestamp_edges=timestamp_edges,
        profile=profile,
        **options,
    )
    update: Optional[StreamUpdate] = None
    for chunk in chunks:
        update = checker.extend(chunk)
    if update is None:  # empty stream: the verdict on the empty observation
        update = checker.extend(())
    return update.result
