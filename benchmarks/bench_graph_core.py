"""Micro-benchmark for the graph core: build, freeze, Tarjan, BFS.

The end-to-end scaling benchmark (``bench_elle_scaling.py``) measures the
whole checker; this one isolates the graph substrate so regressions in any
single layer are visible: edge-log construction (the builder the checker
runs), the CSR freeze, a full-graph Tarjan decomposition per
dependency-mask width, and the BFS shortest-cycle sweep over the cyclic
components.

The synthetic graph mimics an inferred serialization graph: mostly-forward
edges (serializable histories are nearly topologically ordered) with a
configurable fraction of back edges to create strongly connected
components for the BFS stage, and labels drawn from the checker's six
dependency bits.

Run ``python benchmarks/bench_graph_core.py`` for a table plus a record
appended to ``BENCH_elle_scaling.json``.
"""

import random
import time

from repro.core.deps import PROCESS, REALTIME, RW, WR, WW
from repro.graph import EdgeLogGraph

MASKS = (
    ("ww", WW),
    ("ww|wr", WW | WR),
    ("value", WW | WR | RW),
    ("value|proc|rt", WW | WR | RW | PROCESS | REALTIME),
)


def synthetic_edges(nodes, degree, back_fraction, seed=0):
    """Edge triples for a mostly-forward labeled graph."""
    rng = random.Random(seed)
    bits = (WW, WR, RW, PROCESS, REALTIME)
    edges = []
    for u in range(nodes):
        for _ in range(degree):
            if u + 1 < nodes and rng.random() > back_fraction:
                v = rng.randint(u + 1, min(nodes - 1, u + 50))
            elif u > 0:
                v = rng.randint(max(0, u - 10), u - 1)
            else:
                continue
            label = rng.choice(bits) | rng.choice(bits)
            edges.append((u, v, label))
    return edges


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run(nodes, degree=6, back_fraction=0.02, seed=0):
    """One measurement at a given size; returns a result-row dict."""
    edges = synthetic_edges(nodes, degree, back_fraction, seed)

    def build():
        g = EdgeLogGraph()
        us, vs, labels = zip(*edges)
        g.add_edge_columns(us, vs, labels)
        return g

    graph, build_s = timed(build)
    csr, freeze_s = timed(graph.freeze)

    tarjan = {}
    components = []
    for name, mask in MASKS:
        components, elapsed = timed(lambda m=mask: csr.cyclic_scc_idx(m))
        tarjan[name] = round(elapsed, 4)

    def bfs_sweep():
        found = 0
        for component in components:  # widest mask's components
            allowed = csr.allowed_table(component)
            if csr.shortest_cycle_idx(
                component, MASKS[-1][1], allowed
            ) is not None:
                found += 1
        return found

    cycles, bfs_s = timed(bfs_sweep)
    return {
        "nodes": nodes,
        "edges": len(edges),
        "build_s": round(build_s, 4),
        "freeze_s": round(freeze_s, 4),
        "tarjan_s": tarjan,
        "bfs_s": round(bfs_s, 4),
        "cyclic_components": len(components),
        "cycles_found": cycles,
    }


def main(argv=None) -> None:  # pragma: no cover - manual entry point
    import argparse

    from repro.viz import render_table

    from _record import record_run

    parser = argparse.ArgumentParser(
        description="Micro-benchmark the CSR graph core."
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10_000, 50_000, 200_000],
        metavar="NODES",
    )
    parser.add_argument("--degree", type=int, default=6)
    parser.add_argument("--back-fraction", type=float, default=0.02)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    rows = []
    results = []
    for nodes in args.sizes:
        row = run(nodes, args.degree, args.back_fraction)
        results.append(row)
        rows.append(
            [
                row["nodes"],
                row["edges"],
                f"{row['build_s']:.3f}",
                f"{row['freeze_s']:.3f}",
                f"{row['tarjan_s']['value|proc|rt']:.3f}",
                f"{row['bfs_s']:.3f}",
            ]
        )
    print(
        render_table(
            ["nodes", "edges", "build (s)", "freeze (s)",
             "tarjan (s)", "bfs (s)"],
            rows,
        )
    )
    path = record_run("graph_core", results, path=args.out)
    print(f"recorded to {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
