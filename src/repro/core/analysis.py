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
order (the keyspace merge's eager fragment list, or a columnar pass's
:class:`ColumnEvidence` over its edge columns).  The first read of
:attr:`Analysis.evidence` replays the log once, in reverse, with
``dict.update``, so the first key's record for every edge bit wins.  A
cycle explanation needs a few records, not all of them:
:meth:`Analysis.edge_evidence` asks sources that can look one bit up
(:class:`ColumnEvidence` can) instead of replaying.  A column source
holds its pass's own columns and values, never the live index, so it
reads the same after the history grows.
Order edges (process/realtime/timestamp) would store hundreds of
thousands of identical records on a large history, so they are
*synthesized on demand* by :meth:`Analysis.edge_evidence`: the graph bit
plus the history already determine everything the record would say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

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


class EdgeColumns(NamedTuple):
    """One dependency bit's value edges as columns, with their evidence.

    Row ``j`` is the edge ``u[j] -> v[j]`` between transaction positions.
    Its record is ``Evidence(bit, keys[k], values[value[j]],
    values[prev[j]], ids[via[k]])`` over the source's ``keys``,
    ``values`` and transaction ids, where ``k = value_key[value[j]]`` is
    the row's key index; ``via`` holds one transaction position per key,
    and a column given as None leaves its field None.  Within one bit,
    ranks ascend key by key; within one key, ranks across bits are the
    order the key emits its records in.  Per edge, the lowest rank wins.
    """

    bit: int
    u: np.ndarray
    v: np.ndarray
    value: np.ndarray
    prev: Optional[np.ndarray]
    via: Optional[np.ndarray]
    rank: np.ndarray


def _winners(rank: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each ``(u, v)`` pair's lowest-rank row, pairs ascending."""
    order = np.lexsort((rank, v, u))
    su = u[order]
    sv = v[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
    return order[head]


class ColumnEvidence:
    """A columnar pass's deferred evidence source, over its edge columns.

    Calling the source builds every edge bit's winning record (a full
    :attr:`Analysis.evidence` read); :meth:`find` builds one, which is
    all a cycle explanation needs; :meth:`by_key` builds each key's
    fragment for the streaming checker's per-key cache.  ``values`` is
    called once, on first need, for the list the value columns index;
    ``value_key`` maps each value index a row names to its key index.
    Edge keys reuse the index's transaction-id ints rather than boxing
    new ones.  A source holds at most one column set per bit.
    """

    def __init__(
        self,
        columns: Sequence[EdgeColumns],
        txn_ids: Sequence[int],
        keys: Sequence[Any],
        values: Callable[[], List[Any]],
        value_key: np.ndarray,
    ) -> None:
        self.columns = tuple(columns)
        self._txn_ids = txn_ids
        self._keys = keys
        self._value_key = value_key
        self._make_values = values
        self._values: Optional[List[Any]] = None
        #: bit -> (code width, winners' ``u * width + v`` id codes
        #: ascending, their rows in that order, the bit's columns), on
        #: demand.
        self._found: Dict[int, Tuple[int, np.ndarray, Any, Any]] = {}

    def _records(self, cols: EdgeColumns, rows) -> Iterator[Evidence]:
        """The Evidence records of ``rows`` of one bit's columns."""
        if self._values is None:
            self._values = self._make_values()
        value_of = self._values.__getitem__
        value = cols.value[rows]
        key = self._value_key[value]
        record_keys = map(self._keys.__getitem__, key.tolist())
        record_values = map(value_of, value.tolist())
        if cols.prev is None:
            record_prevs = repeat(None)
        else:
            record_prevs = map(value_of, cols.prev[rows].tolist())
        if cols.via is None:
            record_vias = repeat(None)
        else:
            record_vias = map(self._txn_ids.__getitem__, cols.via[key].tolist())
        # tuple.__new__ builds each record in C; the six-wide rows fill
        # every Evidence field (process stays None for value edges).
        return map(
            tuple.__new__,
            repeat(Evidence),
            zip(
                repeat(cols.bit),
                record_keys,
                record_values,
                record_prevs,
                record_vias,
                repeat(None),
            ),
        )

    def _edges(self, cols: EdgeColumns, rows) -> Iterator[EdgeKey]:
        """The ``(u, v, bit)`` edge keys of ``rows`` of one bit's columns."""
        ids = self._txn_ids
        return zip(
            map(ids.__getitem__, cols.u[rows].tolist()),
            map(ids.__getitem__, cols.v[rows].tolist()),
            repeat(cols.bit),
        )

    def __call__(self) -> List[Dict[EdgeKey, Evidence]]:
        fragment: Dict[EdgeKey, Evidence] = {}
        for cols in self.columns:
            win = _winners(cols.rank, cols.u, cols.v)
            fragment.update(zip(self._edges(cols, win), self._records(cols, win)))
        return [fragment]

    def find(self, edge: EdgeKey) -> Optional[Evidence]:
        """The winning record of one edge bit, or None."""
        u, v, bit = edge
        found = self._found.get(bit)
        if found is None:
            ids = np.asarray(self._txn_ids, dtype=np.int64)
            width = int(ids.max()) + 1 if len(ids) else 1
            found = (width, np.empty(0, dtype=np.int64), None, None)
            for cols in self.columns:
                if cols.bit == bit:
                    win = _winners(cols.rank, cols.u, cols.v)
                    codes = ids[cols.u[win]] * width + ids[cols.v[win]]
                    order = np.argsort(codes)
                    found = (width, codes[order], win[order], cols)
            self._found[bit] = found
        width, codes, rows, cols = found
        if not (0 <= u < width and 0 <= v < width):
            return None
        code = u * width + v
        i = int(np.searchsorted(codes, code))
        if i == len(codes) or codes[i] != code:
            return None
        return next(self._records(cols, rows[i : i + 1]))

    def by_key(self, n_keys: int) -> List[Dict[EdgeKey, Evidence]]:
        """Each key's fragment, by key index: its rows in rank order, the
        first record of an edge winning."""
        fragments: List[Dict[EdgeKey, Evidence]] = [{} for _ in range(n_keys)]
        columns = self.columns
        edges: List[EdgeKey] = []
        records: List[Evidence] = []
        every = slice(None)
        for cols in columns:
            edges.extend(self._edges(cols, every))
            records.extend(self._records(cols, every))
        key = self._value_key[np.concatenate([cols.value for cols in columns])]
        order = np.lexsort((np.concatenate([cols.rank for cols in columns]), key))
        for k, j in zip(key[order].tolist(), order.tolist()):
            fragments[k].setdefault(edges[j], records[j])
        return fragments


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
