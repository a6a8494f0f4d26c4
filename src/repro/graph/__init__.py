"""Graph substrate: one dependency-graph representation, interval orders.

This package is Elle's graph-theoretic machine room.  It knows nothing about
transactions or isolation levels — it deals in nodes and integer edge
bitmasks.  The :mod:`repro.core` package assigns meaning to the bits.

A graph is built as an :class:`EdgeLogGraph` (appends only) and frozen into
a :class:`CSRGraph`, whose integer-domain ``*_idx`` methods run Tarjan and
the BFS cycle searches of §6.
"""

from .csr import ALL_EDGES, CSRGraph
from .edgelog import EdgeLogGraph
from .dot import cycle_to_dot, graph_to_dot
from .intervals import interval_precedence_pairs

__all__ = [
    "ALL_EDGES",
    "CSRGraph",
    "EdgeLogGraph",
    "cycle_to_dot",
    "graph_to_dot",
    "interval_precedence_pairs",
]
