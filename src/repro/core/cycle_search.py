"""Searching the inferred serialization graph for cycle anomalies (§6).

Each anomaly class corresponds to a restriction on the dependency kinds a
cycle may traverse:

* **G0** — write-write edges only.
* **G1c** — write-write and write-read edges.
* **G-single** — exactly one read-write (anti-dependency) edge; found by
  following one rw edge and completing the cycle through ww/wr edges.
* **G2-item** — one or more read-write edges.

Each class also has ``-process`` and ``-realtime`` variants in which session
or real-time edges participate.  Those cycles rule out only session/strict
strengthenings of isolation levels (a database may be perfectly serializable
yet not *strictly* serializable).  Real-time variants admit process edges
too: strict serializability subsumes session guarantees.

Classification is by *best interpretation*: for every traversed edge we pick
the most severe dependency kind available (ww before wr before rw before
process before realtime), so a cycle whose edges all carry ww bits is
reported as G0 even if some edges also carry rw bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph import CSRGraph, EdgeLogGraph
from .anomalies import (
    G0,
    G0_PROCESS,
    G0_REALTIME,
    G0_TS,
    G1C,
    G1C_PROCESS,
    G1C_REALTIME,
    G1C_TS,
    G2_ITEM,
    G2_ITEM_PROCESS,
    G2_ITEM_REALTIME,
    G2_ITEM_TS,
    G_SINGLE,
    G_SINGLE_PROCESS,
    G_SINGLE_REALTIME,
    G_SINGLE_TS,
    CycleAnomaly,
)
from .deps import PROCESS, REALTIME, RW, TIMESTAMP, WR, WW
from .profiling import Profile

#: Priority order for classifying an edge's contribution to a cycle.
_BIT_PRIORITY = (WW, WR, RW, PROCESS, REALTIME, TIMESTAMP)


@dataclass(frozen=True)
class _Spec:
    """One search pass.

    Plain passes (``first is None``) BFS for any cycle under ``mask``.
    First-edge passes follow exactly one ``first`` edge and complete the
    cycle using ``rest`` edges: with ``rest`` excluding rw this is the
    G-single search, with ``rest`` including rw it finds >= 1-rw (G2)
    cycles.  ``mask`` (= ``first | rest`` for first-edge passes) drives SCC
    discovery and classification.
    """

    mask: int
    first: Optional[int] = None
    rest: Optional[int] = None


#: Search passes, ordered from most to least severe claims.  Wider masks
#: re-discover narrower cycles; deduplication keeps one witness per cycle.
_SPECS: Tuple[_Spec, ...] = (
    # Value-only cycles: G0, G1c, G-single, G2-item.
    _Spec(mask=WW),
    _Spec(mask=WW | WR),
    _Spec(mask=WW | WR | RW, first=RW, rest=WW | WR),
    _Spec(mask=WW | WR | RW, first=RW, rest=WW | WR | RW),
    # Session (process) variants.
    _Spec(mask=WW | PROCESS),
    _Spec(mask=WW | WR | PROCESS),
    _Spec(mask=WW | WR | RW | PROCESS, first=RW, rest=WW | WR | PROCESS),
    _Spec(mask=WW | WR | RW | PROCESS, first=RW, rest=WW | WR | RW | PROCESS),
    # Real-time variants (subsume process: strict implies strong session).
    _Spec(mask=WW | PROCESS | REALTIME),
    _Spec(mask=WW | WR | PROCESS | REALTIME),
    _Spec(
        mask=WW | WR | RW | PROCESS | REALTIME,
        first=RW,
        rest=WW | WR | PROCESS | REALTIME,
    ),
    _Spec(
        mask=WW | WR | RW | PROCESS | REALTIME,
        first=RW,
        rest=WW | WR | RW | PROCESS | REALTIME,
    ),
    # Timestamp variants: cycles in the start-ordered serialization graph
    # (database-exposed snapshot/commit timestamps, §5.1 / Adya's G-SI).
    _Spec(mask=WW | TIMESTAMP),
    _Spec(mask=WW | WR | TIMESTAMP),
    _Spec(
        mask=WW | WR | RW | TIMESTAMP,
        first=RW,
        rest=WW | WR | TIMESTAMP,
    ),
    _Spec(
        mask=WW | WR | RW | TIMESTAMP,
        first=RW,
        rest=WW | WR | RW | TIMESTAMP,
    ),
)

_VALUE = WW | WR | RW

#: The SCC refinement tree: ``(family, mask, parent_mask)`` triples in
#: topological order (parents first).  Every spec mask is ``value_bits |
#: extra`` for one of four ``extra`` strengthenings (none / process /
#: process+realtime / timestamp), and the masks nest two ways: within a
#: family (``ww|e ⊆ ww|wr|e ⊆ ww|wr|rw|e``) and across families at full
#: width (``value ⊆ session ⊆ realtime``).  A cycle under a mask is a
#: cycle under every superset mask, so each entry's cyclic SCCs live
#: inside its parent's — only masks with ``parent_mask=None`` ever
#: decompose the whole graph; the rest probe their parent's members.  On a
#: clean history the realtime root comes back acyclic and every other mask
#: resolves for free: one whole-graph decomposition instead of sixteen.
_REFINEMENT: Tuple[Tuple[str, int, Optional[int]], ...] = (
    ("realtime", _VALUE | PROCESS | REALTIME, None),
    ("realtime", WW | WR | PROCESS | REALTIME, _VALUE | PROCESS | REALTIME),
    ("realtime", WW | PROCESS | REALTIME, WW | WR | PROCESS | REALTIME),
    ("session", _VALUE | PROCESS, _VALUE | PROCESS | REALTIME),
    ("session", WW | WR | PROCESS, _VALUE | PROCESS),
    ("session", WW | PROCESS, WW | WR | PROCESS),
    ("value", _VALUE, _VALUE | PROCESS),
    ("value", WW | WR, _VALUE),
    ("value", WW, WW | WR),
    ("timestamp", _VALUE | TIMESTAMP, None),
    ("timestamp", WW | WR | TIMESTAMP, _VALUE | TIMESTAMP),
    ("timestamp", WW | TIMESTAMP, WW | WR | TIMESTAMP),
)

_BASE_NAMES = {
    "G0": (G0, G0_PROCESS, G0_REALTIME, G0_TS),
    "G1c": (G1C, G1C_PROCESS, G1C_REALTIME, G1C_TS),
    "G-single": (G_SINGLE, G_SINGLE_PROCESS, G_SINGLE_REALTIME, G_SINGLE_TS),
    "G2-item": (G2_ITEM, G2_ITEM_PROCESS, G2_ITEM_REALTIME, G2_ITEM_TS),
}


#: Any graph the cycle search accepts: a mutable builder (frozen on
#: entry) or an already-frozen CSR snapshot.
GraphLike = Union[EdgeLogGraph, CSRGraph]


def classify_cycle(
    graph: GraphLike, cycle: Sequence[int], mask: int
) -> Tuple[str, Tuple[Tuple[int, int, int], ...]]:
    """Name a cycle and choose one dependency bit per edge.

    Picks, per edge, the most severe bit available under ``mask``, then
    names the cycle from the chosen bits.  Returns ``(name, steps)`` where
    steps are ``(from, to, chosen_bit)``.
    """
    steps = []
    for i in range(len(cycle) - 1):
        u, v = cycle[i], cycle[i + 1]
        label = graph.edge_label(u, v) & mask
        for bit in _BIT_PRIORITY:
            if label & bit:
                steps.append((u, v, bit))
                break
        else:
            raise ValueError(f"cycle edge {u}->{v} invisible under mask {mask}")

    bits = [bit for _u, _v, bit in steps]
    rw_count = sum(1 for b in bits if b == RW)
    if rw_count == 0:
        base = "G1c" if any(b == WR for b in bits) else "G0"
    elif rw_count == 1:
        base = "G-single"
    else:
        base = "G2-item"

    plain, with_process, with_realtime, with_ts = _BASE_NAMES[base]
    if any(b == TIMESTAMP for b in bits):
        name = with_ts
    elif any(b == REALTIME for b in bits):
        name = with_realtime
    elif any(b == PROCESS for b in bits):
        name = with_process
    else:
        name = plain
    return name, tuple(steps)


def _canonical(cycle: Sequence[int]) -> Tuple[int, ...]:
    """Rotation-invariant signature of a cycle's interior nodes."""
    interior = list(cycle[:-1])
    pivot = interior.index(min(interior))
    rotated = interior[pivot:] + interior[:pivot]
    return tuple(rotated)


def _summary(name: str, cycle: Sequence[int]) -> str:
    path = " -> ".join(f"T{t}" for t in cycle)
    return f"{name} cycle over {len(cycle) - 1} transaction(s): {path}"


def _refined_components(
    csr: CSRGraph, profile: Optional[Profile] = None
) -> Dict[int, List[List[int]]]:
    """Cyclic SCCs (integer domain) for every *effective* spec mask.

    Walks each family's mask chain widest-first, reusing each mask's
    decomposition for every parent/child relationship it appears in.  Masks
    are reduced by the graph's label union before lookup: two spec masks
    that select the same visible edge set share one decomposition — e.g.
    without timestamp edges the whole timestamp family collapses onto the
    value family and costs nothing.

    A cycle under a mask is a cycle under every superset mask, so all of a
    mask's cyclic SCCs live inside the cyclic components already found
    under its parent in the tree.  :func:`_decompose` exploits that: only a
    root mask runs over the whole graph, and every other mask is answered
    by a Tarjan *probe* confined to its parent's members (or resolved to
    ``[]`` outright when the parent found nothing).  On a clean history
    (the production hot path) every non-root mask resolves without
    touching the graph.
    """
    label_union = csr.label_union
    cache: Dict[int, List[List[int]]] = {}
    for family_name, mask, parent_mask in _REFINEMENT:
        eff = mask & label_union
        if eff in cache:
            continue
        if parent_mask is None:
            parent = None
        else:
            parent = cache[parent_mask & label_union]
        if profile is not None:
            with profile.stage(f"scc/{family_name}"):
                cache[eff] = _decompose(
                    csr, eff, parent, parent_mask is None, profile
                )
        else:
            cache[eff] = _decompose(csr, eff, parent, parent_mask is None, None)
    return cache


def _decompose(
    csr: CSRGraph,
    mask: int,
    parent: Optional[List[List[int]]],
    widest: bool,
    profile: Optional[Profile],
) -> List[List[int]]:
    """One decomposition step of the refinement walk.

    A root mask (``widest``) decomposes the whole graph.  Any other mask's
    cyclic SCCs are exactly the cyclic SCCs of the subgraph induced by its
    parent's members: each lies inside one parent component, and every
    path between two of its nodes stays inside the SCC.  ``cyclic_scc_idx``
    orders its answer canonically, so the probe confined to those members
    returns the same lists a whole-graph run would, and is the final
    answer.
    """
    if mask == 0:
        # No visible edges: nothing can be cyclic.
        return []
    if widest:
        if profile is not None:
            profile.count("scc.full_runs")
        return csr.cyclic_scc_idx(mask)
    if not parent:
        # Parent found no cyclic components; narrower masks can't either.
        return []
    if profile is not None:
        profile.count("scc.probe_runs")
    members = sorted(i for component in parent for i in component)
    return csr.cyclic_scc_idx(mask, members)


def find_cycle_anomalies(
    graph: GraphLike, profile: Optional[Profile] = None
) -> List[CycleAnomaly]:
    """All cycle anomalies, one witness per (cycle, classification).

    Freezes the graph once into its CSR snapshot, computes the SCC
    refinement tree (one whole-graph decomposition per root mask), then
    runs every search pass in severity order.  Each pass finds at most one
    short cycle per strongly connected component; duplicates across passes
    are dropped by cycle signature.
    """
    csr = graph if isinstance(graph, CSRGraph) else graph.freeze()
    components_for = _refined_components(csr, profile)
    label_union = csr.label_union
    scratch = bytearray(csr.node_count)

    anomalies: List[CycleAnomaly] = []
    seen: Set[Tuple[int, ...]] = set()
    for spec in _SPECS:
        for component in components_for[spec.mask & label_union]:
            for i in component:
                scratch[i] = 1
            if spec.first is None:
                cycle_idx = csr.shortest_cycle_idx(
                    component, spec.mask, scratch
                )
            else:
                # Latest member first.  Ids ascend with transaction ids
                # (invocation order) and most edges point forward in time,
                # so a first edge out of an early member leads to a node
                # whose failing BFS sweeps most of the component.
                cycle_idx = csr.first_edge_cycle_idx(
                    component[::-1], spec.first, spec.rest, scratch
                )
            for i in component:
                scratch[i] = 0
            if cycle_idx is None:
                continue
            cycle = csr.to_nodes(cycle_idx)
            signature = _canonical(cycle)
            if signature in seen:
                continue
            seen.add(signature)
            name, steps = classify_cycle(graph, cycle, spec.mask)
            anomalies.append(
                CycleAnomaly(
                    name=name,
                    txns=tuple(cycle),
                    message=_summary(name, cycle),
                    steps=steps,
                )
            )
    return anomalies
