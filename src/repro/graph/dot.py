"""Graphviz DOT rendering for dependency graphs and cycles.

The paper's Figure 3 plots an anomalous cycle with edges labeled by their
dependency kinds (``wr``, ``rw``, ``rt`` ...).  These helpers produce the
equivalent DOT text; any Graphviz install can turn it into the figure.
Rendering is deliberately dependency-free — output is just a string.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from .csr import ALL_EDGES
from .edgelog import EdgeLogGraph


def _label_names(label: int, names: Dict[int, str]) -> str:
    """Comma-joined names for every bit set in ``label``."""
    parts = [name for bit, name in sorted(names.items()) if label & bit]
    if not parts:
        parts = [f"0x{label:x}"]
    return ",".join(parts)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(
    graph: EdgeLogGraph,
    edge_names: Dict[int, str],
    node_label: Optional[Callable[[int], str]] = None,
    mask: int = ALL_EDGES,
    name: str = "deps",
) -> str:
    """Render ``graph`` (restricted to ``mask``) as a DOT digraph string."""
    if node_label is None:
        node_label = str
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for node in sorted(graph.nodes(), key=repr):
        lines.append(f"  {_quote(str(node))} [label={_quote(node_label(node))}];")
    edge_key = lambda e: (repr(e[0]), repr(e[1]))  # noqa: E731
    for u, v, label in sorted(graph.edges(mask), key=edge_key):
        text = _label_names(label & mask, edge_names)
        lines.append(f"  {_quote(str(u))} -> {_quote(str(v))} [label={_quote(text)}];")
    lines.append("}")
    return "\n".join(lines)


def cycle_to_dot(
    graph: EdgeLogGraph,
    cycle: Sequence[int],
    edge_names: Dict[int, str],
    node_label: Optional[Callable[[int], str]] = None,
    name: str = "cycle",
) -> str:
    """Render just the transactions and edges of one cycle, Figure-3 style."""
    if node_label is None:
        node_label = str
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    seen = []
    for node in cycle[:-1]:
        if node not in seen:
            seen.append(node)
            lines.append(
                f"  {_quote(str(node))} [label={_quote(node_label(node))}];"
            )
    for i in range(len(cycle) - 1):
        u, v = cycle[i], cycle[i + 1]
        text = _label_names(graph.edge_label(u, v), edge_names)
        lines.append(f"  {_quote(str(u))} -> {_quote(str(v))} [label={_quote(text)}];")
    lines.append("}")
    return "\n".join(lines)
