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
  — those whose rows changed, detected by the key's ``version`` stamp.
  A batch depends on its key alone, never on the key's rank or on the
  keys analyzed with it, so each chunk re-analyzes its stale keys in one
  :meth:`~repro.core.keyspace.KeyspacePlan.analyze_keys` call: one
  columnar pass over those keys, whose edges each key's batch views;
* internal-consistency results are cached per transaction and refreshed
  only for transactions the chunk added or upgraded;
* each chunk re-checks only the *live window* — the transactions not yet
  retired (below).  Its dependency graph holds every edge *into* a live
  transaction: the live keys' cached batches, the frozen keys' edges
  into live transactions, and the process and real-time in-edges of the
  live transactions (:func:`~repro.core.orders.add_orders` with
  ``targets``).  The key batches merge through the batch check's own
  :func:`~repro.core.keyspace._merge`, in key order: one concatenation
  of their edges.  The graph freeze and the SCC refinement tree of the
  cycle search run over that graph alone.

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

**Settled-prefix retirement.**  :meth:`StreamingChecker.retire` folds the
settled part of a forever-stream's prefix into a frozen summary and drops
its per-op storage.  Every value edge into a retired transaction moves to
the *frozen block* (one column segment per retirement, holding each edge
bit's winning column and only the values its record names); a frozen
key's edges into live transactions keep merging at its rank until their
targets retire too; and the settled anomalies and the cycles among
retired transactions stay pre-rendered.  Each chunk then pays for its
live window, not its history.  A verdict's
:attr:`CheckResult.analysis` joins the two halves lazily, when read.  The
verdict stream after any mix of extends and retires is byte-identical to
the unretired checker's (``tests/properties/test_retirement_equivalence.py``,
through a checkpoint/restore cycle too), except that a retired key can
never be touched again: a recurrence raises
:class:`~repro.errors.RetiredKeyError` and poisons the stream, so streams
that retire must rotate their keyspace.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import CSRGraph, EdgeLogGraph
from ..history import History
from ..history.ops import Op
from .analysis import V, Analysis, ColumnEvidence
from .anomalies import Anomaly, anomaly_order, sort_anomalies
from .checker import CheckResult, explained_cycles, verdict
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


#: Cached per-key analysis: (key version, batch).
_CacheEntry = Tuple[int, Batch]


class _Settled:
    """Anomalies of the retired prefix, kept in canonical order.

    Retirement adds to it; every verdict merges its few live anomalies in
    by binary search, so a chunk never re-sorts what settled before it.
    """

    __slots__ = ("items", "_keys")

    def __init__(self) -> None:
        self.items: List[Anomaly] = []
        self._keys: List[Any] = []

    def add(self, anomalies: Iterable[Anomaly]) -> None:
        for anomaly in anomalies:
            key = anomaly_order(anomaly)
            at = bisect_right(self._keys, key)
            self._keys.insert(at, key)
            self.items.insert(at, anomaly)

    def merged(self, live: Sequence[Anomaly]) -> List[Anomaly]:
        """The settled anomalies with ``live`` (canonical order) merged in."""
        items = self.items
        if not live:
            return list(items)
        out: List[Anomaly] = []
        start = 0
        keys = self._keys
        for anomaly in live:
            at = bisect_right(keys, anomaly_order(anomaly), start)
            out.extend(items[start:at])
            out.append(anomaly)
            start = at
        out.extend(items[start:])
        return out


class _UnionGraph(EdgeLogGraph):
    """The live graph plus the frozen block, joined on first read.

    A streamed verdict's :attr:`CheckResult.analysis` graph: cycle search
    never needs the frozen block, so ``join`` adds its edges to the log
    only when something reads the graph (``dot``, ``explain``, the
    oracles).
    """

    __slots__ = ("_join",)

    def __init__(self, join: Callable[[EdgeLogGraph], None]) -> None:
        super().__init__()
        self._join = join

    def freeze(self) -> CSRGraph:
        if self._join is not None:
            join, self._join = self._join, None
            join(self)
        return super().freeze()

    def __getstate__(self):
        self.freeze()
        return super().__getstate__()

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self._join = None


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
        **options: Any,
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
        self._options = options
        self._key_cache: Dict[Any, _CacheEntry] = {}
        #: Cached internal-consistency anomalies of live transactions, per
        #: transaction id (only transactions that have anomalies).
        self._internal: Dict[int, List[Anomaly]] = {}
        #: Identity counts of the last verdict's live anomalies.
        self._prev_counts: Counter = Counter()
        self._error: Optional[BaseException] = None
        #: Positions of the live (unretired) transactions, ascending.
        self._live: List[int] = []
        #: The last chunk's live analysis, cycles, ``(rank, key, source)``
        #: sources in merge order and merged source; never checkpointed.
        self._window: Optional[Tuple[Any, ...]] = None
        # -- the frozen summary of the retired prefix --------------------
        #: Each frozen key's ``(rank, key, edges into live transactions)``,
        #: which keep merging in key order until their targets retire too.
        self._residual: Dict[Any, Tuple[Any, Any, ColumnEvidence]] = {}
        #: The frozen block: each value edge bit into a retired
        #: transaction, in one evidence segment per retirement (which
        #: builds a new list).  Order edges into retired transactions need
        #: no storage: the index re-derives them (``add_orders``).
        self._frozen: List[ColumnEvidence] = []
        #: Settled anomalies: non-cycle ones, and those plus cycles.
        self._settled_found = _Settled()
        self._settled = _Settled()
        self._retired_txns = 0

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_window"] = None
        return state

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
        txns_before = len(self.history.transactions)
        with stage(profile, "stream/ingest"):
            delta = self.history.extend(ops)
            changed = delta.changed
            # Only the chunk's transactions need the per-mop scan; once
            # they pass, the plan's own check below is satisfied by the
            # index's function census and never walks the full history
            # (whose retired slots are ``None``).
            validate_workload(changed, self.workload)
            self._live.extend(
                range(txns_before, len(self.history.transactions))
            )
        # Plan construction is cheap (the index is extended, not rebuilt)
        # and re-applies the workload's recoverability contract exactly as
        # a batch check of this prefix would.
        with stage(profile, "stream/plan"):
            plan = PLANS[self.workload](self.history, **self._options)
            # The batch sweep's screen: a clear candidate bit rules out
            # any internal anomaly.
            screen = plan.index.internal_candidates
            pos_by_id = plan.index.pos_by_id
            for txn in changed:
                if txn.committed:
                    found = screen[pos_by_id[txn.id]] and plan.check_internal(txn)
                    if found:
                        self._internal[txn.id] = found
                    else:
                        self._internal.pop(txn.id, None)
        with stage(profile, "stream/keys"):
            anomalies: List[Anomaly] = []
            for found in self._internal.values():
                anomalies.extend(found)
            ranked = []
            index = plan.index
            cache = self._key_cache
            # Evict every dirty key up front.  The version clock alone
            # already prevents stale hits (versions never repeat, even for
            # a deleted-and-recreated key), but eviction also drops
            # entries for keys an upgrade removed from the history, which
            # would otherwise linger in the cache forever.
            for key in delta.dirty_keys or ():
                cache.pop(key, None)
            # One plan call re-analyzes every stale key.
            keys = plan.keys()
            ids = index.key_ids
            versions = index.key_version
            stale = [
                key for key in keys if cache.get(key, (None,))[0] != versions[ids[key]]
            ]
            for key, batch in zip(stale, plan.analyze_keys(stale)):
                cache[key] = (versions[ids[key]], batch)
            reanalyzed = len(stale)
            reused = len(keys) - reanalyzed
            ranks = getattr(index, plan.key_rank)
            for key in keys:
                key_anomalies, source = cache[key][1]
                anomalies.extend(key_anomalies)
                if len(source):
                    ranked.append((ranks[ids[key]], key, source))
            # Frozen keys' edges keep their place in key order.
            if self._residual:
                ranked.extend(self._residual.values())
                ranked.sort(key=itemgetter(0))
        with stage(profile, "stream/merge"):
            live = Analysis(history=self.history, workload=self.workload)
            merged = _merge(live, anomalies, [source for _r, _k, source in ranked])
        with stage(profile, "stream/orders"):
            add_orders(
                live,
                self._process_edges,
                self._realtime_edges,
                self._timestamp_edges,
                targets=self._live,
            )
        cycles = explained_cycles(live, profile)
        live_all = sort_anomalies(live.anomalies + cycles)
        result = verdict(
            self._settled.merged(live_all),
            self.consistency_model,
            self._whole(live, merged),
        )
        self._window = (live, cycles, ranked, merged)
        if profile is not None:
            profile.count("stream.keys_reused", reused)
            profile.count("stream.keys_reanalyzed", reanalyzed)
            profile.count("stream.live_txns", len(self._live))
            profile.count("stream.frozen_edges", self.frozen_edges)

        self.chunks += 1
        self.result = result
        counts = Counter((a.name, a.txns, a.message) for a in live_all)
        fresh = counts - self._prev_counts
        resolved = sum((self._prev_counts - counts).values())
        new_anomalies = []
        for anomaly in live_all:
            ident = (anomaly.name, anomaly.txns, anomaly.message)
            if fresh[ident] > 0:
                fresh[ident] -= 1
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

    def _whole(self, live: Analysis, merged: ColumnEvidence) -> Analysis:
        """The prefix's analysis: ``live`` (evidence ``merged``) and the frozen block.

        The graph and evidence join on first read.  Only a retirement
        replaces the frozen block, and the live-position list only grows
        until then, so the current block and width pin this verdict's
        share; the transactions retired by now are exactly the positions
        outside this verdict's live window.
        """
        history = self.history
        workload = self.workload
        frozen = self._frozen
        count = len(history.transactions)
        window = self._live
        width = len(window)
        flags = (self._process_edges, self._realtime_edges, False)

        def join(graph: EdgeLogGraph) -> None:
            for segment in frozen:
                graph.add_edge_columns(*segment.edges())
            graph.add_edge_columns(*live.graph.log())
            retired = np.setdiff1d(np.arange(count), window[:width])
            settled = Analysis(history=history, workload=workload, graph=graph)
            add_orders(settled, *flags, targets=retired)

        whole = Analysis(
            history=history,
            workload=workload,
            graph=_UnionGraph(join),
            anomalies=self._settled_found.merged(live.anomalies),
        )
        for source in (*frozen, merged):
            whole.log_evidence(source)
        return whole

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
        return self._retired_txns

    @property
    def live_txns(self) -> int:
        """Transactions in the live window (every chunk re-checks these)."""
        return len(self._live)

    @property
    def frozen_edges(self) -> int:
        """Value edge bits in the frozen block, a column each (never re-checked)."""
        return sum(map(len, self._frozen))

    def estimated_bytes(self) -> int:
        """A coarse resident-footprint estimate for governance accounting.

        Deliberately a model, not a measurement: op records and their
        micro-op tuples dominate a live window (~400 bytes each), the
        per-transaction integer columns are the retained floor (~100 bytes
        per transaction position, placeholders included), and each frozen
        edge bit its segment column (~200 bytes).  Deterministic, so
        watermark behavior is unit-testable without touching the RSS.
        """
        return (
            len(self.history.ops) * 400
            + len(self.history.transactions) * 100
            + self.frozen_edges * 200
        )

    def retire(
        self,
        allowed_keys: Optional[Iterable[Any]] = None,
        min_idle_txns: int = 0,
    ) -> Dict[str, Any]:
        """Fold the settled prefix into the frozen summary and drop it.

        A key *freezes* when every transaction that touched it is final
        (its completion was observed, so no upgrade can ever rewrite its
        rows): its analysis batch can never change, so its anomalies
        settle, its edges into live transactions keep merging at its rank,
        and its rows are released.  A transaction *retires* when it is
        final, every key it touched is frozen, and no live transaction can
        reach it through the dependency graph.  Then every edge into it is
        fixed — value edges come from frozen keys, order edges from
        transactions invoked before it — so they move from the live graph
        to the frozen block with their evidence, and any cycle through it
        lies wholly inside the retired set and is frozen pre-rendered.
        Edges out of retired transactions into live ones stay with their
        live targets (process chains cross every retirement boundary);
        the per-transaction columns they derive from are kept.  Both
        scans — for retirable transactions and for the in-closure — cover
        the live window and the live graph only.

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
            with paused_gc():
                return self._retire(allowed_keys, min_idle_txns)
        except BaseException as exc:
            self._error = exc
            raise

    def _summary(self, **overrides: Any) -> Dict[str, Any]:
        summary = {
            "retired_txns": 0,
            "retired_keys": 0,
            "retired_ops": 0,
            "total_retired_txns": self._retired_txns,
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
        if self._window is None:
            return self._summary(reason="no-verdict")
        live, cycles, ranked, merged = self._window
        index = self.history._index
        if index is None:  # pragma: no cover - a verdict implies an index
            return self._summary(reason="no-index")
        if allowed_keys is not None and not isinstance(allowed_keys, set):
            allowed_keys = set(allowed_keys)

        transactions = self.history.transactions
        n = len(transactions)
        complete = index.txn_complete
        ids = index.txn_ids
        cache = self._key_cache
        ranks = getattr(index, PLANS[self.workload].key_rank)
        versions = index.key_version
        last = index.key_last

        # -- candidate keys: live, permitted, idle, and freezable --------
        # A key freezes either from its fresh cached batch (analyzed last
        # extension) or as a no-batch key: one without a rank, which the
        # plan's keys() leaves out (read-ordered workloads: nobody read it).
        candidates: Dict[Any, Optional[_CacheEntry]] = {}
        for key, k in index.key_ids.items():
            if allowed_keys is not None and key not in allowed_keys:
                continue
            if min_idle_txns and last[k] >= n - min_idle_txns:
                continue
            entry = cache.get(key)
            if entry is not None and entry[0] == versions[k]:
                candidates[key] = entry
            elif entry is None and ranks[k] is None:
                candidates[key] = None

        # -- frozen keys: every toucher final ----------------------------
        # A provisional toucher blocks the freeze: its completion would
        # upgrade the transaction and rewrite the key's rows, which a
        # frozen key cannot take.  Final touchers (committed, aborted, or
        # indeterminate with the completion observed) never change again.
        blocked = index.keys_at(p for p in self._live if complete[p] < 0)
        frozen = {
            key: entry for key, entry in candidates.items() if key not in blocked
        }

        # -- retirable transactions: final, every key frozen -------------
        retired_keys = index.retired_keys
        retirable: List[int] = []
        for p in self._live:
            if complete[p] < 0:
                continue
            for mop in transactions[p].mops:
                if mop.key not in frozen and mop.key not in retired_keys:
                    break
            else:
                retirable.append(p)

        if not retirable and not frozen:
            return self._summary(reason="nothing-settled")

        # -- in-closure: nothing retired is reachable from live ----------
        # Walk the live graph's CSR rows forward from every transaction
        # that stays live; any retirement candidate it reaches stays
        # resident.  The live graph holds every edge into a live
        # transaction, and no path from live ever enters the retired
        # prefix, so this is the whole reachable set.  Survivors' in-edges
        # all come from survivors or retired transactions (both fixed
        # forever), so no future cycle can include them without lying
        # entirely inside the retired set — where every cycle already
        # exists and is frozen below.
        new_ids = {ids[p] for p in retirable}
        if new_ids:
            csr = live.graph.freeze()
            nodes = csr.nodes
            indptr = csr.indptr
            indices = csr.indices
            pos_by_id = index.pos_by_id
            stack = [
                i
                for i, u in enumerate(nodes)
                if u in pos_by_id and u not in new_ids
            ]
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
        # Every edge into a retired transaction is fixed: its value edges
        # come from frozen keys (their evidence moves to the frozen block)
        # and its order edges were fixed when it was invoked.  The segment
        # takes only the edges into this call's retirees: a window retired
        # twice still holds the edges into the first call's, already frozen.
        fresh = np.zeros(n, dtype=bool)
        fresh[retirable] = True
        segment = merged.segment(fresh)
        if len(segment):
            self._frozen = [*self._frozen, segment]
        dead = np.ones(n, dtype=bool)
        dead[self._live] = False
        dead[retirable] = True
        settled_found: List[Anomaly] = []
        for txn_id in new_ids:
            settled_found.extend(self._internal.pop(txn_id, ()))
        for key, entry in frozen.items():
            cache.pop(key, None)
            if entry is not None:
                settled_found.extend(entry[1][0])
        # Frozen keys keep their edges into live targets; run ``i`` of the
        # merged source is ``ranked[i]``.
        ends = merged.kept(~dead[merged.block[V]])
        residual = self._residual
        for entry, a, b in zip(ranked, ends, ends[1:]):
            rank, key, source = entry
            if key not in frozen and key not in residual:
                continue
            if b - a == len(source):
                residual[key] = entry
            elif b > a:
                residual[key] = (rank, key, source.select(~dead[source.block[V]]))
            else:
                residual.pop(key, None)
        settled_cycles = [
            cycle for cycle in cycles if new_ids.issuperset(cycle.txns)
        ]
        index.retire(frozen.keys())
        dropped = self.history.retire_transactions(retirable)
        if new_ids:
            self._live = [p for p in self._live if transactions[p] is not None]
        self._settled_found.add(settled_found)
        self._settled.add(settled_found + settled_cycles)
        self._prev_counts -= Counter(
            (a.name, a.txns, a.message) for a in settled_found + settled_cycles
        )
        self._retired_txns += len(retirable)
        return self._summary(
            retired_txns=len(retirable),
            retired_keys=len(frozen),
            retired_ops=dropped,
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
