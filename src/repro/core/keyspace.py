"""Keyspace-partitioned analysis: per-key plans and a deterministic merge.

Elle's dependency inference is separable by key (§4–§5): version orders,
write indexes, and ww/wr/rw edges are all derived from one key's micro-op
stream at a time.  This module is the execution engine that exploits that
separability.  Each analyzer contributes a :class:`KeyspacePlan` whose
one analyzer is a columnar pass over a key list
(:meth:`KeyspacePlan._pass`): a batch check merges the pass over every
key whole into the :class:`~repro.core.analysis.Analysis`
(:meth:`KeyspacePlan.analyze_index`), and the streaming checker splits
the pass over a chunk's stale keys into one *batch* per key of anomalies
and evidence-carrying edges (:meth:`KeyspacePlan.analyze_keys`), a batch
depending on its key alone.

**Determinism.**  Nothing in the result depends on emission order.  A
key's batch is its anomalies plus one evidence fragment.  The merge puts
the anomalies in the canonical order of
:func:`~repro.core.anomalies.sort_anomalies` (taxonomy rank, txns,
message), and the dependency graph's frozen snapshot depends on the edge
set alone.  Evidence follows one rule: when several keys justify the same
edge bit, the first key in the plan's :meth:`KeyspacePlan.keys` order
wins.  Neither merge builds evidence: a batch check logs the pass's
columns, and the stream's :func:`_merge` its fragments in key order, as
one source on the analysis
(:meth:`~repro.core.analysis.Analysis.log_evidence`), built only if
something reads evidence.  So the analysis is byte-identical whether it
was checked whole or streamed.

The shared read checks (garbage reads, aborted reads / G1a, intermediate
reads / G1b, dirty updates) live here too, parameterized by a per-workload
:class:`ReadCheckStyle` so each analyzer keeps its own message phrasing
while the logic exists once.
"""

from __future__ import annotations

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

class Findings(NamedTuple):
    """One columnar pass over a key list, before a merge or a split."""

    #: Key by key, each key's anomalies in the order it reports them.
    anomalies: List[Anomaly]
    anomaly_keys: List[int]  # each anomaly's index in the pass's key list
    evidence: ColumnEvidence  # the edge columns and their records


class KeyspacePlan:
    """One workload's analysis recipe: a columnar pass over a key list.

    Subclasses set :attr:`workload`, validate the observation's
    recoverability contract in ``__init__`` (raising
    :class:`~repro.errors.WorkloadError` deterministically), and implement
    :meth:`_pass`.  The base constructor first rejects micro-ops foreign
    to the workload, so that error outranks every contract check a
    subclass runs after it.  A batch check runs the pass over every key
    and merges the result whole (:meth:`analyze_index`): the anomalies in
    canonical order, the edges as one block of columns, and the pass's
    :class:`~repro.core.analysis.ColumnEvidence` as the evidence source.
    The streaming checker runs it over a chunk's stale keys and splits it
    by key (:meth:`analyze_keys`).  A key's findings never mix with
    another key's, so its batch is the same in whatever key list it
    comes.
    """

    workload: str = ""
    #: The :class:`~repro.history.index.KeySlice` field :meth:`keys` is
    #: sorted by (first committed read; rw-register: first appearance).
    key_rank: str = "first_read_seq"

    def __init__(self, history: History) -> None:
        validate_workload_indexed(history, self.workload)
        self.history = history
        self.index: HistoryIndex = history.index()
        self._keys: Sequence[Any] = ()

    def keys(self) -> Sequence[Any]:
        """Keys to analyze, in evidence-precedence order."""
        return self._keys

    def _pass(
        self, keys: Sequence[Any], profile: Optional[Profile] = None
    ) -> Findings:
        """The anomalies and edge columns of ``keys``, in one pass."""
        raise NotImplementedError

    def analyze_index(
        self, analysis: Analysis, profile: Optional[Profile] = None
    ) -> None:
        """Merge the pass over every key, with the internal sweep's
        anomalies, into ``analysis``."""
        index = self.index
        found = self._pass(self._keys, profile) if self._keys else None
        with stage(profile, "analyze/merge"):
            anomalies = self.internal_anomalies()
            if found is not None:
                anomalies.extend(found.anomalies)
            analysis.anomalies.extend(sort_anomalies(anomalies))
            if found is None or not found.evidence.columns:
                return
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
            found.evidence.narrow()
            analysis.log_evidence(found.evidence)

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

    def check_internal(self, txn: Transaction) -> List[Anomaly]:
        """Internal-consistency anomalies for one committed transaction."""
        return INTERNAL_CHECKERS[self.workload](txn)

    def internal_anomalies(self) -> List[Anomaly]:
        """The internal-consistency sweep over every transaction.

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
        for pos in internal_candidate_positions(index, 0, len(transactions)):
            found.extend(check_internal(transactions[pos]))
        return found


#: Registered plans: workload name -> plan class (populated by analyzers).
PLANS: Dict[str, type] = {}


def register_plan(cls: type) -> type:
    """Class decorator: register a :class:`KeyspacePlan` by its workload."""
    PLANS[cls.workload] = cls
    return cls


def _merge(
    analysis: Analysis,
    anomalies: List[Anomaly],
    fragments: Sequence[Dict[EdgeKey, Evidence]],
) -> None:
    """Apply per-key results, fragments in key order, to ``analysis``.

    Anomalies go in the canonical order; each fragment's keys are the
    exact (u, v, bit) triples, so whole fragments land in the graph's edge
    log without per-edge dispatch.  The fragments, in key order, become
    one evidence source, replayed only if something reads evidence.
    """
    analysis.anomalies.extend(sort_anomalies(anomalies))
    graph_add = analysis.graph.add_edge_keys
    for fragment in fragments:
        graph_add(fragment)
    analysis.log_evidence(lambda: fragments)
