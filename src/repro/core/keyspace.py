"""Keyspace-partitioned analysis: per-key plans and a deterministic merge.

Elle's dependency inference is separable by key (§4–§5): version orders,
write indexes, and ww/wr/rw edges are all derived from one key's micro-op
stream at a time.  This module is the execution engine that exploits that
separability.  Each analyzer contributes a :class:`KeyspacePlan` whose
one analyzer is a columnar pass over a key list
(:meth:`KeyspacePlan._pass`): a batch check merges the pass over every
key (:meth:`KeyspacePlan.analyze_index`), and the streaming checker
splits the pass over a chunk's stale keys into one *batch* per key, its
anomalies and a view of its edges (:meth:`KeyspacePlan.analyze_keys`),
which depends on its key alone.

**Determinism.**  Nothing in the result depends on emission order.  Both
paths apply their results through one merge, :func:`_merge`: anomalies
in the canonical order of :func:`~repro.core.anomalies.sort_anomalies`
(taxonomy rank, txns, message), edges into a graph whose frozen snapshot
depends on the edge set alone, and evidence sources in key order.  When
several keys justify the same edge bit, the first key in the plan's
:meth:`KeyspacePlan.keys` order wins: a pass ranks its edges key by key,
and a stream gives its cached key batches in key order.  The merge logs
the sources as one :class:`~repro.core.analysis.ColumnEvidence`, built
only if something reads evidence.  So the analysis is byte-identical
whether it was checked whole or streamed.

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

from ..errors import WorkloadError
from ..history import History, Transaction
from ..history.index import HistoryIndex, RowView
from .analysis import Analysis, ColumnEvidence
from .anomalies import Anomaly, sort_anomalies
from .internal import INTERNAL_CHECKERS, internal_candidate_positions
from .profiling import Profile, stage
from .validate import validate_workload_indexed

#: One key's analysis: its anomalies and its edges, a view of the pass's
#: block in rank order (:meth:`~repro.core.analysis.ColumnEvidence.split`).
Batch = Tuple[List[Anomaly], ColumnEvidence]


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


#: ``type(None)``, for the value-type rules of :func:`require_values`.
NONE = type(None)


def require_values(
    view: RowView, txn_ids: Sequence[int], side: str, allowed: set, rule: str
) -> None:
    """Refuse a view's read (``side`` ``"r"``) or write (``"w"``) values
    whose type is not in ``allowed``, naming the first offending row's
    transaction, key and value.  One C-level type census clears the
    common case."""
    values = getattr(view, side + "_val")
    if set(map(type, values)) <= allowed:
        return
    i = next(i for i, value in enumerate(values) if type(value) not in allowed)
    txn = txn_ids[getattr(view, side + "_txn")[i]]
    key = view.keys[getattr(view, side + "_key")[i]]
    verb = "read" if side == "r" else "wrote"
    raise WorkloadError(f"T{txn} {verb} {values[i]!r} at key {key!r}; {rule}")


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
    and merges the result whole (:meth:`analyze_index`), with the pass's
    :class:`~repro.core.analysis.ColumnEvidence` as the one source.  The
    streaming checker runs it over a chunk's stale keys and splits it by
    key (:meth:`analyze_keys`), then merges the cached key batches.  A
    key's findings never mix with another key's, so its batch is the
    same in whatever key list it comes.
    """

    workload: str = ""
    #: The per-key :class:`~repro.history.index.HistoryIndex` column
    #: :meth:`keys` is sorted by (first committed read; rw-register: first
    #: appearance).
    key_rank: str = "key_first_read"

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
        found = self._pass(self._keys, profile) if self._keys else None
        with stage(profile, "analyze/merge"):
            anomalies = self.internal_anomalies()
            if found is not None:
                anomalies.extend(found.anomalies)
            _merge(analysis, anomalies, [found.evidence] if found else [])

    def analyze_keys(self, keys: Sequence[Any]) -> List[Batch]:
        """Each key's batch, from one pass over ``keys``: its anomalies,
        and a view of its edges in the pass's block."""
        if not keys:
            return []
        found = self._pass(keys)
        batches: List[Batch] = [
            ([], source) for source in found.evidence.split(len(keys))
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
    sources: Sequence[ColumnEvidence],
) -> ColumnEvidence:
    """Apply anomalies and evidence sources (in precedence order) to
    ``analysis``: anomalies in canonical order, every edge in one block of
    the edge log, the sources as one logged source, which is returned."""
    analysis.anomalies.extend(sort_anomalies(anomalies))
    merged = ColumnEvidence.merge(sources)
    analysis.graph.add_edge_columns(*merged.edges())
    analysis.log_evidence(merged)
    return merged
