"""The result of dependency inference: graph, anomalies, and evidence.

An :class:`Analysis` bundles the inferred direct serialization graph with
the non-cycle anomalies found along the way, plus *evidence*: for every edge
bit, the observation that justifies it.  Evidence is what turns a cycle into
a human-readable counterexample (Figure 2 of the paper).

Evidence is built only when something reads it.  Value edges (ww/wr/rw)
carry one record per ``(from, to, bit)``, but a valid history never
explains a cycle, so the analysis keeps an ordered *log* of evidence
sources instead of a dict, each a :class:`ColumnEvidence`: a keyspace
merge logs every edge it added, naming its key and values by index, with
a precedence that picks each edge bit's record, after a stream's frozen
segments (:meth:`ColumnEvidence.segment`).  The first read of
:attr:`Analysis.evidence` replays the log once, in reverse, with
``dict.update``, so earlier sources win; a cycle explanation instead asks
each source to look one bit up (:meth:`Analysis.edge_evidence`).  A
column source holds its passes' own columns and values, never the live
index, so it reads the same after the history grows.  Order edges
(process/realtime/timestamp) would store hundreds of thousands of
identical records on a large history, so they are *synthesized on
demand* by :meth:`Analysis.edge_evidence`: the graph bit plus the
history already determine everything the record would say.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
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

from ..graph import EdgeLogGraph
from ..history import History, Transaction
from ..history.index import take
from .anomalies import Anomaly
from .deps import ORDER_EDGES, PROCESS, VALUE_EDGES


class Evidence(NamedTuple):
    """Why an edge exists.

    ``kind`` is the dependency bit.  The remaining fields depend on the
    kind; for value edges ``key`` names the object and ``value`` the element
    or register value whose observation justified the edge.  ``via`` is the
    transaction whose read witnessed the relationship (for ww edges inferred
    from a third party's read).  A ``NamedTuple``, cheap to build by the
    hundred thousand.
    """

    kind: int
    key: Any = None
    value: Any = None
    prev_value: Any = None
    via: Optional[int] = None
    process: Optional[int] = None


EdgeKey = Tuple[int, int, int]  # (from_txn, to_txn, dependency_bit)

#: Value bits (1, 2, 4) fit below this, so ``code * _BITS + bit`` is one.
_BITS = VALUE_EDGES + 1


class EdgeColumns(NamedTuple):
    """One dependency bit's value edges as a pass emits them.

    Row ``j`` is the edge ``u[j] -> v[j]`` between transaction positions,
    with record ``Evidence(bit, keys[k], values[value[j]], values[prev[j]],
    ids[via[k]])`` for its key index ``k = value_key[value[j]]``; a column
    given as None leaves its field None.  Ranks ascend key by key, within
    a key in the order it emits its records; per edge, the lowest wins.
    """

    bit: int
    u: np.ndarray
    v: np.ndarray
    value: np.ndarray
    prev: Optional[np.ndarray]
    via: Optional[np.ndarray]
    rank: np.ndarray


#: The rows of a :class:`ColumnEvidence` block; column ``j`` is one edge.
#: A block stops after RANK when no edge names a previous value, and after
#: PREV when none names a witness; a row it leaves out reads -1.
BIT, U, V, VALUE, RANK, PREV, VIA = range(7)


class _Part:
    """One pass's keys, value-index-to-key-index map, and value list (or a
    callable building it on first need; a pickle carries it built)."""

    def __init__(
        self, keys: Sequence[Any], value_key: np.ndarray, values: Any
    ) -> None:
        self.keys = keys
        self.value_key = value_key
        self._values: Any = values

    def values(self) -> List[Any]:
        """The value list with a None appended, so index -1 reads None."""
        if callable(self._values):
            self._values = [*self._values(), None]
        return self._values

    def __getstate__(self) -> Dict[str, Any]:
        return dict(self.__dict__, _values=self.values())


_INT32_MAX = np.iinfo(np.int32).max


def _padded(block: np.ndarray, rows: int) -> np.ndarray:
    """``block`` with -1 rows appended up to ``rows``."""
    if len(block) == rows:
        return block
    pad = np.full((rows - len(block), block.shape[1]), -1, block.dtype)
    return np.concatenate((block, pad))


class ColumnEvidence:
    """Value edges as one block of int columns, records built on demand.

    Column ``j`` of :attr:`block` is the edge ``U -> V`` (transaction
    positions) of bit ``BIT``; ``VIA`` is a position, and -1 leaves a
    field None.  The columns come in runs, one per pass: run ``p`` spans
    ``starts[p]:starts[p + 1]`` and its ``VALUE`` and ``PREV`` index the
    value list of ``parts[p]`` (``value_key[VALUE]`` is the key).  Per
    edge bit, the lowest ``(run, RANK)`` wins.  A pass gives one source
    (:meth:`of`); :meth:`split` cuts it into per-key views, which streams
    cache; :meth:`merge` joins sources into the one a keyspace merge
    logs; :meth:`segment` copies out the winners into some transactions.
    :meth:`records` builds every winning record; :meth:`find` builds one.
    """

    __slots__ = ("block", "parts", "starts", "txn_ids", "_table")

    def __init__(
        self,
        block: np.ndarray,
        parts: Sequence[_Part],
        starts: List[int],
        txn_ids: Sequence[int],
    ) -> None:
        self.block = block
        self.parts = parts
        self.starts = starts
        self.txn_ids = txn_ids
        self._table: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    @classmethod
    def of(
        cls,
        columns: Sequence[EdgeColumns],
        txn_ids: Sequence[int],
        keys: Sequence[Any],
        values: Callable[[], List[Any]],
        value_key: np.ndarray,
    ) -> "ColumnEvidence":
        """One pass's source over its per-bit columns.  ``values`` is
        called once, on first need, for the list the value columns index;
        ``value_key`` maps each value index an edge names to its key
        index.  The block is int32 when every entry fits."""
        # The ranks and previous values bound the entries the lengths don't.
        tops = [len(txn_ids), len(value_key)] + [
            int(c.max())
            for cols in columns
            if len(cols.u)
            for c in (cols.prev, cols.rank)
            if c is not None
        ]
        dtype = np.int32 if max(tops) <= _INT32_MAX else np.int64
        rows = RANK + 1
        if any(cols.via is not None for cols in columns):
            rows = VIA + 1
        elif any(cols.prev is not None for cols in columns):
            rows = PREV + 1
        n = sum(len(cols.u) for cols in columns)
        block = np.full((rows, n), -1, dtype)
        start = 0
        for cols in columns:
            at = slice(start, start + len(cols.u))
            start = at.stop
            block[BIT, at] = cols.bit
            block[U, at] = cols.u
            block[V, at] = cols.v
            block[VALUE, at] = cols.value
            block[RANK, at] = cols.rank
            if cols.prev is not None:
                block[PREV, at] = cols.prev
            if cols.via is not None:
                block[VIA, at] = cols.via[value_key[cols.value]]
        return cls(block, [_Part(keys, value_key, values)], [0, n], txn_ids)

    @staticmethod
    def merge(sources: Sequence["ColumnEvidence"]) -> "ColumnEvidence":
        """``sources``, in precedence order, as one source whose runs are
        theirs in turn, so each edge bit's winner is its lowest (source
        position, rank) edge.  Every source indexes one history's
        transaction positions."""
        if len(sources) == 1:
            return sources[0]
        if not sources:
            return ColumnEvidence.of((), (), (), list, np.empty(0, np.int64))
        rows = max(len(source.block) for source in sources)
        block = np.concatenate([_padded(s.block, rows) for s in sources], axis=1)
        ends = list(accumulate([len(source) for source in sources], initial=0))
        starts = [a + end for s, end in zip(sources, ends) for a in s.starts[:-1]]
        parts = [part for source in sources for part in source.parts]
        return ColumnEvidence(block, parts, starts + ends[-1:], sources[0].txn_ids)

    def __len__(self) -> int:
        return self.block.shape[1]

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every column's ``(u, v, bit)`` by transaction id, for an edge log."""
        n = len(self)
        ends = take(self.txn_ids, self.block[U : V + 1].ravel())
        return ends[:n], ends[n:], self.block[BIT]

    def __reduce__(self) -> Tuple[Any, ...]:
        # The winners table is derived: a pickle leaves it to first need.
        return ColumnEvidence, (self.block, self.parts, self.starts, self.txn_ids)

    def split(self, n_keys: int) -> List["ColumnEvidence"]:
        """A pass's source cut by key index: each key's edges, in rank
        order, as views of one sorted copy of the pass's block."""
        key = self.parts[0].value_key[self.block[VALUE]]
        order = np.lexsort((self.block[RANK], key))
        block = self.block[:, order]
        bounds = np.searchsorted(key[order], np.arange(n_keys + 1)).tolist()
        return [
            ColumnEvidence(block[:, a:b], self.parts, [0, b - a], self.txn_ids)
            for a, b in zip(bounds, bounds[1:])
        ]

    def select(self, mask: np.ndarray) -> "ColumnEvidence":
        """The edges ``mask`` keeps, as a source of their own."""
        block = self.block[:, mask]
        return ColumnEvidence(block, self.parts, self.kept(mask), self.txn_ids)

    def kept(self, mask: np.ndarray) -> List[int]:
        """Each run's start, and the end, among the columns ``mask`` keeps."""
        return np.concatenate(([0], np.cumsum(mask)))[self.starts].tolist()

    def _winners(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """(code width, each edge bit's ``(u * width + v) * _BITS + bit``
        id code ascending, its winning column), built on first need."""
        if self._table is None:
            block = self.block
            n = block.shape[1]
            ends = take(self.txn_ids, block[U : V + 1].ravel())
            width = int(ends.max()) + 1 if n else 1
            codes = (ends[:n] * width + ends[n:]) * _BITS + block[BIT]
            # Each edge bit's winner comes first among its equal codes.
            if len(self.parts) == 1:
                order = np.lexsort((block[RANK], codes))
            else:
                run = np.repeat(np.arange(len(self.parts)), np.diff(self.starts))
                order = np.lexsort((block[RANK], run, codes))
            codes = codes[order]
            head = np.ones(n, dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=head[1:])
            self._table = (width, codes[head], order[head])
        return self._table

    def _gather(self, columns: np.ndarray) -> Tuple[np.ndarray, List, List, List]:
        """``columns``' rows (all seven), and each one's key, value and
        previous value, ``columns`` ascending."""
        sub = _padded(self.block[:, columns], VIA + 1)
        value = sub[VALUE].tolist()
        prev = sub[PREV].tolist()
        keys: List[Any] = []
        values: List[Any] = []
        prevs: List[Any] = []
        # One stretch of ``columns`` per pass: adjacent runs often share
        # one (a stream's key views of one chunk's pass).
        cuts = np.searchsorted(columns, self.starts).tolist()
        parts = self.parts
        a = 0
        for i, owner in enumerate(parts):
            b = cuts[i + 1]
            if a == b or i + 1 < len(parts) and parts[i + 1] is owner:
                continue
            listed = owner.values()
            key = owner.value_key[sub[VALUE, a:b]].tolist()
            keys.extend(map(owner.keys.__getitem__, key))
            values.extend(map(listed.__getitem__, value[a:b]))
            prevs.extend(map(listed.__getitem__, prev[a:b]))
            a = b
        return sub, keys, values, prevs

    def records(self) -> Dict[EdgeKey, Evidence]:
        """Every edge bit's winning record, in block order (a key's source
        lists its records in rank order)."""
        columns = np.sort(self._winners()[2])
        sub, keys, values, prevs = self._gather(columns)
        ids = self.txn_ids
        bit, u, v = sub[: V + 1].tolist()
        edges = zip(map(ids.__getitem__, u), map(ids.__getitem__, v), bit)
        witnesses = [None if p < 0 else ids[p] for p in sub[VIA].tolist()]
        # tuple.__new__ builds each record in C; the six-wide rows fill
        # every Evidence field (process stays None).
        rows = zip(bit, keys, values, prevs, witnesses, repeat(None))
        return dict(zip(edges, map(tuple.__new__, repeat(Evidence), rows)))

    def segment(self, targets: np.ndarray) -> "ColumnEvidence":
        """Each edge bit's winning column into ``targets``, a mask over
        transaction positions, as a source that needs none of this one's
        parts: column ``j`` keeps its bit, endpoints and witness, ranks
        ``j``, and names key ``j`` and values ``2j`` and ``2j + 1`` of one
        part holding only what the columns name."""
        columns = self._winners()[2]
        columns = np.sort(columns[targets[self.block[V, columns]]])
        sub, keys, values, prevs = self._gather(columns)
        rows = np.arange(len(columns), dtype=sub.dtype)
        sub[VALUE], sub[RANK], sub[PREV] = 2 * rows, rows, 2 * rows + 1
        listed = [x for pair in zip(values, prevs) for x in pair] + [None]
        part = _Part(keys, np.repeat(rows, 2), listed)
        return ColumnEvidence(sub, [part], [0, len(rows)], self.txn_ids)

    def find(self, edge: EdgeKey) -> Optional[Evidence]:
        """The winning record of one edge bit, or None."""
        width, codes, columns = self._winners()
        u, v, bit = edge
        if not (0 <= u < width and 0 <= v < width and 0 < bit < _BITS):
            return None
        code = (u * width + v) * _BITS + bit
        i = int(codes.searchsorted(code))
        if i == len(codes) or codes[i] != code:
            return None
        column = int(columns[i])
        row = self.block[:, column].tolist()
        row += [-1] * (VIA + 1 - len(row))
        owner = self.parts[bisect_right(self.starts, column) - 1]
        listed = owner.values()
        key = owner.keys[owner.value_key[row[VALUE]]]
        via = None if row[VIA] < 0 else self.txn_ids[row[VIA]]
        return Evidence(row[BIT], key, listed[row[VALUE]], listed[row[PREV]], via)


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
    materialized.
    """

    history: History
    workload: str
    graph: EdgeLogGraph = field(default_factory=EdgeLogGraph)
    anomalies: List[Anomaly] = field(default_factory=list)
    _evidence: Dict[EdgeKey, Evidence] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _pending: List[ColumnEvidence] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def txn(self, txn_id: int) -> Transaction:
        return self.history[txn_id]

    def log_evidence(self, source: ColumnEvidence) -> None:
        """Append an evidence source; records logged earlier take precedence."""
        self._pending.append(source)

    @property
    def evidence(self) -> Dict[EdgeKey, Evidence]:
        """Every value edge's evidence, replaying pending sources on first read."""
        if self._pending:
            replayed: Dict[EdgeKey, Evidence] = {}
            for source in reversed(self._pending):
                replayed.update(source.records())
            # Records materialized by an earlier read came from earlier sources.
            replayed.update(self._evidence)
            self._evidence = replayed
            self._pending = []
        return self._evidence

    def _find(self, edge: EdgeKey) -> Optional[Evidence]:
        """One bit's record, as :attr:`evidence` would hold it, with
        nothing replayed: records materialized earlier take precedence,
        then the first pending source that knows the bit answers."""
        found = self._evidence.get(edge)
        for source in self._pending:
            if found is not None:
                return found
            found = source.find(edge)
        return found

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
