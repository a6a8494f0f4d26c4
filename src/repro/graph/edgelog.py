"""An append-only edge log that freezes into a CSR snapshot.

The analysis pipeline emits hundreds of thousands of dependency edges,
then freezes the graph once and only reads it afterwards.
:class:`EdgeLogGraph` embraces that shape — its two bulk appends (order
edges share a label, value edges carry one each) extend flat arrays, with
no per-edge dict probe or read-modify-write, and all the dedup work
happens in one vectorized bulk pass (:meth:`CSRGraph.from_edge_log`) at
freeze time.

Freezing ORs the labels of a repeated pair together, numbers the nodes in
ascending order and sorts each successor row by target, so the snapshot
is the same however the emissions were ordered or split across the
``add_*`` calls.  Read-side methods (``nodes``, ``edges``, ``edge_label``,
``has_edge``) delegate to the cached snapshot, so the class serves
everywhere the checker reads the inferred serialization graph.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence, Tuple

import numpy as np

from .csr import ALL_EDGES, CSRGraph


def _int64_bytes(column: Sequence[int]) -> memoryview:
    """``column`` as native int64 bytes (array('q')'s layout): a contiguous
    int64 column is not copied, any other is converted once."""
    return memoryview(np.ascontiguousarray(column, dtype=np.int64)).cast("B")


class EdgeLogGraph:
    """A mutable graph optimized for bulk emission then frozen traversal.

    The log lives in three ``array('q')`` columns (64-bit ints), so the
    bulk freeze converts to numpy through the buffer protocol instead of
    walking a list of boxed ints.
    """

    __slots__ = ("_u", "_v", "_l", "_csr")

    def __init__(self) -> None:
        self._u = array("q")
        self._v = array("q")
        self._l = array("q")
        self._csr = None

    def __getstate__(self):
        # The snapshot is derived from the log: pickles (daemon
        # checkpoints) carry the log alone and freeze() rebuilds on demand.
        return self._u, self._v, self._l

    def __setstate__(self, state) -> None:
        self._u, self._v, self._l = state
        self._csr = None

    # ------------------------------------------------------------------
    # Construction: every path is appends on flat parallel arrays.

    def add_edge_arrays(
        self, us: Sequence[int], vs: Sequence[int], label: int
    ) -> None:
        """Append parallel endpoint arrays sharing one label (order edges)."""
        if label == 0:
            raise ValueError("edge label must have at least one bit set")
        n = len(us)
        if n == 0:
            return
        self._csr = None
        self._u.frombytes(_int64_bytes(us))
        self._v.frombytes(_int64_bytes(vs))
        self._l.extend(array("q", [label]) * n)

    def add_edge_columns(
        self, us: Sequence[int], vs: Sequence[int], labels: Sequence[int]
    ) -> None:
        """Append parallel columns with per-edge labels in one memcpy each.

        Every value edge arrives here, one evidence source's block at a
        time (:meth:`~repro.core.analysis.ColumnEvidence.edges`); labels
        are dependency bits, non-zero by construction.
        """
        if len(us) == 0:
            return
        self._csr = None
        self._u.frombytes(_int64_bytes(us))
        self._v.frombytes(_int64_bytes(vs))
        self._l.frombytes(_int64_bytes(labels))

    def log(self) -> Tuple[array, array, array]:
        """The raw emission columns ``(us, vs, labels)``, repeats included.

        The live arrays, not copies: callers must not append to them.
        """
        return self._u, self._v, self._l

    # ------------------------------------------------------------------
    # Freezing and reads (all reads go through the cached snapshot).

    def freeze(self) -> CSRGraph:
        """The CSR snapshot of the log, cached until the next append."""
        csr = self._csr
        if csr is None:
            csr = self._csr = CSRGraph.from_edge_log(self._u, self._v, self._l)
        return csr

    @property
    def node_count(self) -> int:
        return self.freeze().node_count

    @property
    def edge_count(self) -> int:
        return self.freeze().edge_count

    def __len__(self) -> int:
        return self.node_count

    def __contains__(self, node: int) -> bool:
        return node in self.freeze().index_of

    def nodes(self) -> Iterator[int]:
        """Nodes in ascending order."""
        return iter(self.freeze().nodes)

    def edges(self, mask: int = ALL_EDGES) -> Iterator[Tuple[int, int, int]]:
        """All ``(u, v, label)`` triples visible under ``mask``, by ``(u, v)``."""
        csr = self.freeze()
        nodes = csr.nodes
        indptr = csr.indptr
        indices = csr.indices
        labels = csr.labels
        for i, node in enumerate(nodes):
            for pos in range(indptr[i], indptr[i + 1]):
                label = labels[pos]
                if label & mask:
                    yield node, nodes[indices[pos]], label

    def edge_label(self, u: int, v: int) -> int:
        return self.freeze().edge_label(u, v)

    def has_edge(self, u: int, v: int, mask: int = ALL_EDGES) -> bool:
        return bool(self.edge_label(u, v) & mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeLogGraph({len(self._u)} emissions)"
