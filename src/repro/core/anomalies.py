"""Anomaly records and the anomaly taxonomy.

Anomalies come in two classes (§4.3):

* **Non-cycle anomalies** — transactions observed interacting with versions
  they should never have seen: aborted reads (G1a), intermediate reads
  (G1b), dirty updates, plus the phenomena of §6.1 that fall outside Adya's
  formalism entirely (garbage reads, duplicate writes, internal
  inconsistency) and observation-level problems (incompatible version
  orders, cyclic inferred version orders).
* **Cycle anomalies** — cycles in the inferred serialization graph: G0,
  G1c, G-single, G2-item, each optionally strengthened with process
  (session) or real-time edges.

Every anomaly is a frozen record naming the transactions involved and
carrying a human-readable message, because Elle's whole point is *concise,
verifiable counterexamples*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

# ---------------------------------------------------------------------------
# Anomaly type names

# Non-cycle anomalies.
G1A = "G1a"                        # aborted read
G1B = "G1b"                        # intermediate read
DIRTY_UPDATE = "dirty-update"      # committed write on aborted state
GARBAGE_READ = "garbage-read"      # read a value nobody wrote
DUPLICATE_ELEMENTS = "duplicate-elements"  # one write applied twice
INCOMPATIBLE_ORDER = "incompatible-order"  # two reads disagree on history
INTERNAL = "internal"              # txn inconsistent with its own ops
CYCLIC_VERSIONS = "cyclic-versions"  # inferred version order has a cycle
LOST_UPDATE = "lost-update"        # two committed writes to the same version

# Cycle anomalies (value edges only).
G0 = "G0"
G1C = "G1c"
G_SINGLE = "G-single"
G2_ITEM = "G2-item"

# Session / real-time strengthened cycle anomalies.
G0_PROCESS = "G0-process"
G1C_PROCESS = "G1c-process"
G_SINGLE_PROCESS = "G-single-process"
G2_ITEM_PROCESS = "G2-item-process"
G0_REALTIME = "G0-realtime"
G1C_REALTIME = "G1c-realtime"
G_SINGLE_REALTIME = "G-single-realtime"
G2_ITEM_REALTIME = "G2-item-realtime"

# Timestamp (start-ordered serialization graph) cycle anomalies: Adya's
# G-SI family, available when the database exposes snapshot/commit
# timestamps (§5.1).
G0_TS = "G0-ts"
G1C_TS = "G1c-ts"
G_SINGLE_TS = "G-single-ts"
G2_ITEM_TS = "G2-item-ts"

CYCLE_ANOMALIES = (
    G0, G1C, G_SINGLE, G2_ITEM,
    G0_PROCESS, G1C_PROCESS, G_SINGLE_PROCESS, G2_ITEM_PROCESS,
    G0_REALTIME, G1C_REALTIME, G_SINGLE_REALTIME, G2_ITEM_REALTIME,
    G0_TS, G1C_TS, G_SINGLE_TS, G2_ITEM_TS,
)

NONCYCLE_ANOMALIES = (
    G1A, G1B, DIRTY_UPDATE, GARBAGE_READ, DUPLICATE_ELEMENTS,
    INCOMPATIBLE_ORDER, INTERNAL, CYCLIC_VERSIONS, LOST_UPDATE,
)

ALL_ANOMALIES = NONCYCLE_ANOMALIES + CYCLE_ANOMALIES


@dataclass(frozen=True)
class Anomaly:
    """One witnessed anomaly.

    ``name`` is one of the constants above.  ``txns`` lists the ids of the
    transactions implicated (order meaningful for cycles).  ``message`` is a
    self-contained, human-readable explanation.  ``data`` holds structured
    evidence (keys, values, positions) for programmatic consumption.
    """

    name: str
    txns: Tuple[int, ...]
    message: str
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return f"[{self.name}] {self.message}"


@dataclass(frozen=True)
class CycleAnomaly(Anomaly):
    """A dependency-cycle anomaly.

    ``txns`` traces the cycle: first element repeated at the end.  ``steps``
    pairs each traversed edge with the dependency-kind bit that justified it
    in the search that found the cycle.
    """

    steps: Tuple[Tuple[int, int, int], ...] = ()  # (from, to, bit)

    def __str__(self) -> str:
        return f"[{self.name}] {self.message}"


_RANK = {name: i for i, name in enumerate(ALL_ANOMALIES)}


def anomaly_order(anomaly: Anomaly) -> Tuple[int, Tuple[int, ...], str]:
    """An anomaly's sort key in the canonical order."""
    return (_RANK.get(anomaly.name, len(_RANK)), anomaly.txns, anomaly.message)


def sort_anomalies(anomalies: Iterable[Anomaly]) -> List[Anomaly]:
    """The canonical anomaly order: taxonomy rank, then txns, then message.

    A total order on what a report prints, so the result never depends on
    the order in which analyzers, shards or stream chunks emitted the
    anomalies.
    """
    return sorted(anomalies, key=anomaly_order)
