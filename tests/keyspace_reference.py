"""The per-key driver: a plan analyzed key by key, the passes' reference.

``src/`` analyzes every workload with one columnar pass over a key list
(:class:`~repro.core.keyspace.KeyspacePlan`).  The reference modules keep
the per-key walks those passes replaced; each walk emits a key's batch
as its anomalies and a dict *fragment*, ``(u, v, bit) -> Evidence``, the
first record of an edge winning.  :func:`use_walk` makes a plan run such
a walk for every key, in batch checks and streams alike.  A batch check
then maps the walk over the plan's keys, runs the internal-consistency
sweep, and applies the fragments with :func:`merge_fragments`, the dict
merge the shipped column merge replaced, logged as rows
(:func:`as_source`); a stream maps it over a chunk's stale keys, each
fragment carried as rows so the stream's own merge applies it.
"""

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.analysis import Analysis, ColumnEvidence, EdgeColumns, Evidence
from repro.core.anomalies import Anomaly, sort_anomalies
from repro.core.keyspace import Batch, KeyspacePlan

#: A per-key walk's result: its anomalies and its evidence fragment.
Fragment = Dict[Tuple[int, int, int], Evidence]
WalkBatch = Tuple[List[Anomaly], Fragment]


def merge_fragments(
    plan: KeyspacePlan,
    analysis: Analysis,
    anomalies: List[Anomaly],
    fragments: Sequence[Fragment],
) -> None:
    """Apply per-key results, fragments in key order, to ``analysis``:
    anomalies in the canonical order, and the fragments' first-key-wins
    dict, its edges and as one evidence source (:func:`as_source`)."""
    analysis.anomalies.extend(sort_anomalies(anomalies))
    merged: Fragment = {}
    for fragment in fragments:
        for edge, record in fragment.items():
            merged.setdefault(edge, record)
    if merged:
        us, vs, bits = zip(*merged)
        analysis.graph.add_edge_columns(us, vs, bits)
    analysis.log_evidence(as_source(plan, merged))


def as_source(plan: KeyspacePlan, fragment: Fragment) -> ColumnEvidence:
    """One key's fragment as the rows a pass's split would give it.

    Record ``j`` is row ``j`` of its bit, ranked ``j``; its value and
    previous value sit at ``2j`` and ``2j + 1`` of the value list, and
    ``j`` is its key index.
    """
    pos = plan.index.pos_by_id
    records = list(fragment.values())
    via = np.array([-1 if r.via is None else pos[r.via] for r in records])
    columns = []
    for bit in sorted({r.kind for r in records}):
        rows = np.array(
            [j for j, r in enumerate(records) if r.kind == bit], dtype=np.int64
        )
        edges = [edge for edge, r in fragment.items() if r.kind == bit]
        columns.append(
            EdgeColumns(
                bit,
                np.array([pos[u] for u, _v, _b in edges], dtype=np.int64),
                np.array([pos[v] for _u, v, _b in edges], dtype=np.int64),
                2 * rows,
                2 * rows + 1,
                via,
                rows,
            )
        )
    return ColumnEvidence.of(
        columns,
        plan.index.txn_ids,
        [r.key for r in records],
        lambda: [x for r in records for x in (r.value, r.prev_value)],
        np.arange(2 * len(records), dtype=np.int64) // 2,
    )


def use_walk(
    patch, plan_class: type, analyze_key: Callable[[KeyspacePlan, Any], WalkBatch]
) -> None:
    """Make ``plan_class`` analyze key by key with ``analyze_key``."""

    def analyze_keys(plan: KeyspacePlan, keys: Sequence[Any]) -> List[Batch]:
        batches = []
        for key in keys:
            anomalies, fragment = analyze_key(plan, key)
            batches.append((anomalies, as_source(plan, fragment)))
        return batches

    def analyze_index(plan: KeyspacePlan, analysis, profile=None) -> None:
        anomalies = plan.internal_anomalies()
        fragments = []
        for key in plan.keys():
            key_anomalies, fragment = analyze_key(plan, key)
            anomalies.extend(key_anomalies)
            if fragment:
                fragments.append(fragment)
        merge_fragments(plan, analysis, anomalies, fragments)

    patch.setattr(plan_class, "analyze_keys", analyze_keys)
    patch.setattr(plan_class, "analyze_index", analyze_index)
