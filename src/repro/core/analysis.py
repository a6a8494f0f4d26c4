"""The result of dependency inference: graph, anomalies, and evidence.

An :class:`Analysis` bundles the inferred direct serialization graph with
the non-cycle anomalies found along the way, plus *evidence*: for every edge
bit, the observation that justifies it.  Evidence is what turns a cycle into
a human-readable counterexample (Figure 2 of the paper).

Evidence is built only when something reads it.  Value edges (ww/wr/rw)
carry one record per ``(from, to, bit)`` — the justifying key and values
genuinely differ per edge — but a valid history never explains a cycle,
so the analysis keeps an ordered *log* of evidence sources instead of a
dict: each source is a producer of per-key fragments in the plan's key
order (the keyspace merge's eager fragment list, list-append's
generator that re-runs the per-key analysis, or rw-register's builder
over its edge columns).  The first read of :attr:`Analysis.evidence`
replays the log once, in reverse, with ``dict.update``, so the first
key's record for every edge bit wins.  A cycle explanation needs a few
records, not all of them: :meth:`Analysis.edge_evidence` asks sources
that can look one bit up (rw-register's) instead of replaying.
Order edges (process/realtime/timestamp) would store hundreds of
thousands of identical records on a large history, so they are
*synthesized on demand* by :meth:`Analysis.edge_evidence`: the graph bit
plus the history already determine everything the record would say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..graph import EdgeLogGraph
from ..history import History, Transaction
from .anomalies import Anomaly
from .deps import ORDER_EDGES, PROCESS


class Evidence(NamedTuple):
    """Why an edge exists.

    ``kind`` is the dependency bit.  The remaining fields depend on the
    kind; for value edges ``key`` names the object and ``value`` the element
    or register value whose observation justified the edge.  ``via`` is the
    transaction whose read witnessed the relationship (for ww edges inferred
    from a third party's read).

    A ``NamedTuple`` rather than a dataclass: analyses carry one record per
    value edge, and sharded analysis ships them between processes, so cheap
    construction and fast pickling matter.
    """

    kind: int
    key: Any = None
    value: Any = None
    prev_value: Any = None
    via: Optional[int] = None
    process: Optional[int] = None


EdgeKey = Tuple[int, int, int]  # (from_txn, to_txn, dependency_bit)

#: One evidence source: a producer of ``(u, v, bit) -> Evidence`` fragments
#: in key order.  Called again on every replay attempt, so a replay
#: that raises leaves the log intact.  A source may also offer
#: ``find(edge) -> Optional[Evidence]``, the one record its replay would
#: give that bit, so :meth:`Analysis.edge_evidence` can answer without a
#: replay.
EvidenceSource = Callable[[], Iterable[Dict[EdgeKey, Evidence]]]


@dataclass
class Analysis:
    """Everything inferred from one observation.

    ``graph`` is the inferred direct serialization graph over transaction
    ids.  ``anomalies`` holds the *non-cycle* anomalies found during
    inference; cycle anomalies are found later by
    :mod:`repro.core.cycle_search` on this graph.  :attr:`evidence` maps
    ``(from, to, bit)`` to the :class:`Evidence` justifying that bit (value
    edges only; order-edge evidence is synthesized by
    :meth:`edge_evidence`).  A pickled analysis carries its evidence
    materialized.  Read (or pickle) it before extending the history in
    place: list-append's deferred source raises
    :class:`~repro.errors.HistoryError` once the history has changed.
    """

    history: History
    workload: str
    graph: EdgeLogGraph = field(default_factory=EdgeLogGraph)
    anomalies: List[Anomaly] = field(default_factory=list)
    _evidence: Dict[EdgeKey, Evidence] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _pending: List[EvidenceSource] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def txn(self, txn_id: int) -> Transaction:
        return self.history[txn_id]

    def log_evidence(self, source: EvidenceSource) -> None:
        """Append an evidence source; records logged earlier take precedence."""
        self._pending.append(source)

    @property
    def evidence(self) -> Dict[EdgeKey, Evidence]:
        """Every value edge's evidence, replaying pending sources on first read."""
        if self._pending:
            replayed: Dict[EdgeKey, Evidence] = {}
            for source in reversed(self._pending):
                for fragment in reversed(list(source())):
                    replayed.update(fragment)
            # Records materialized by an earlier read came from earlier sources.
            replayed.update(self._evidence)
            self._evidence = replayed
            self._pending = []
        return self._evidence

    def _find(self, edge: EdgeKey) -> Optional[Evidence]:
        """One bit's record, as :attr:`evidence` would hold it.

        When every pending source offers ``find``, the first one that
        knows the bit answers (records materialized earlier take
        precedence, as in a replay) and nothing is replayed; otherwise
        this reads :attr:`evidence`.
        """
        found = self._evidence.get(edge)
        if found is not None or not self._pending:
            return found
        finders = [getattr(source, "find", None) for source in self._pending]
        if None in finders:
            return self.evidence.get(edge)
        for find in finders:
            found = find(edge)
            if found is not None:
                return found
        return None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_evidence"] = self.evidence
        state["_pending"] = []
        return state

    def edge_evidence(self, u: int, v: int, bit: int) -> Optional[Evidence]:
        ev = self._find((u, v, bit))
        if ev is not None:
            return ev
        if bit & ORDER_EDGES and self.graph.has_edge(u, v, bit):
            if bit == PROCESS:
                return Evidence(kind=PROCESS, process=self.history[u].process)
            return Evidence(kind=bit)
        return None
