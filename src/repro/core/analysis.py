"""The result of dependency inference: graph, anomalies, and evidence.

An :class:`Analysis` bundles the inferred direct serialization graph with
the non-cycle anomalies found along the way, plus *evidence*: for every edge
bit, the observation that justifies it.  Evidence is what turns a cycle into
a human-readable counterexample (Figure 2 of the paper).

Evidence storage is tiered for scale.  Value edges (ww/wr/rw) store one
record per ``(from, to, bit)`` — the justifying key and values genuinely
differ per edge.  Order edges (process/realtime/timestamp) would store
hundreds of thousands of identical records on a large history, so they are
*synthesized on demand* by :meth:`Analysis.edge_evidence`: the graph bit
plus the history already determine everything the record would say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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


@dataclass
class Analysis:
    """Everything inferred from one observation.

    ``graph`` is the inferred direct serialization graph over transaction
    ids.  ``anomalies`` holds the *non-cycle* anomalies found during
    inference; cycle anomalies are found later by
    :mod:`repro.core.cycle_search` on this graph.  ``evidence`` maps
    ``(from, to, bit)`` to the :class:`Evidence` justifying that bit (value
    edges only; order-edge evidence is synthesized by
    :meth:`edge_evidence`).
    """

    history: History
    workload: str
    graph: EdgeLogGraph = field(default_factory=EdgeLogGraph)
    anomalies: List[Anomaly] = field(default_factory=list)
    evidence: Dict[EdgeKey, Evidence] = field(default_factory=dict)

    def txn(self, txn_id: int) -> Transaction:
        return self.history[txn_id]

    def add_edge(self, u: int, v: int, evidence: Evidence) -> None:
        """Record a dependency edge with its justification.

        Self-edges are dropped: serialization graphs relate distinct
        transactions (the paper keeps Adya's definitions but assumes
        ``Ti != Tj``).
        """
        if u == v:
            return
        self.graph.add_edge(u, v, evidence.kind)
        self.evidence.setdefault((u, v, evidence.kind), evidence)

    def edge_evidence(self, u: int, v: int, bit: int) -> Optional[Evidence]:
        ev = self.evidence.get((u, v, bit))
        if ev is not None:
            return ev
        if bit & ORDER_EDGES and self.graph.has_edge(u, v, bit):
            if bit == PROCESS:
                return Evidence(kind=PROCESS, process=self.history[u].process)
            return Evidence(kind=bit)
        return None
