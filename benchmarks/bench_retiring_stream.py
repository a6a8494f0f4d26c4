"""Retiring-stream guard: a retiring session's chunks cost their window.

A daemon session with auto-retirement keeps O(window) ops resident, and
each analysis chunk should cost O(window) too, however long the session
has run.  This benchmark replays the shape of perfbench's
``serve-durable`` stream in-process: for each session (list-append on a
clean database and with the ``tidb-retry`` injector, and rw-register on a
clean database) ``--waves`` rotating-keyspace waves of 150 transactions,
re-based into one stream (:func:`repro.service.client.rotating_stream`),
are fed to a :class:`~repro.core.incremental.StreamingChecker` in
``--chunk-ops`` chunks with ``retire(min_idle_txns=50)`` after every
chunk.

Each chunk's CPU time (extend plus retire) and stage profile are split
into quintiles of the stream.  The stream is replayed ``--repeats``
times and each quintile pools its chunks from every replay, so a burst
of noise from a shared host lands in a fraction of one quintile's
samples rather than all of them.  The table prints, per session and
quintile, the median chunk, the mean of the per-chunk stages that used
to scale with the retired prefix (``stream/merge``, ``stream/orders``,
``freeze``, ``cycle-search``, ``retire``) and the largest live graph,
and, at the end of each quintile of the first replay (outside the timed
chunks), the checker's ``frozen_edges`` and its pickled size as a daemon
checkpoint stores it (a shallow copy without its last verdict).
``--max-ratio R`` turns the run into a CI guard: exit 2 when any
session's last-quintile median chunk exceeds ``R`` times its first.

Usage::

    PYTHONPATH=src python benchmarks/bench_retiring_stream.py \\
        --waves 50 --max-ratio 1.5 --out /tmp/retiring.json
"""

from __future__ import annotations

import argparse
import copy
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _record import record_run

from repro.core.incremental import StreamingChecker
from repro.core.profiling import Profile
from repro.service.client import rotating_stream, session_workload

#: Session name -> (workload, fault injector).
SESSIONS = {
    "clean": ("list-append", None),
    "retry": ("list-append", "tidb-retry"),
    "register": ("rw-register", None),
}
WAVE_TXNS = 150
RETIRE_IDLE_TXNS = 50
STAGES = ("stream/merge", "stream/orders", "freeze", "cycle-search", "retire")


def session_stream(seed: int, slot: int, workload: str, fault, waves: int):
    """``waves`` rotating-keyspace waves, each with its own seed."""
    return rotating_stream(
        session_workload(
            workload=workload,
            fault=fault,
            seed=(seed * 1_000_003 + wave) * 2 + slot,
            txns=WAVE_TXNS,
            active_keys=4,
            max_writes_per_key=4,
        )
        for wave in range(waves)
    )


def checkpoint_bytes(checker: StreamingChecker) -> int:
    """``checker``'s pickled size as a daemon checkpoint stores it."""
    stored = copy.copy(checker)
    stored.result = None
    return len(pickle.dumps(stored, pickle.HIGHEST_PROTOCOL))


def replay(workload: str, ops, chunk_ops: int, measure: bool = False):
    """Per-chunk ``(seconds, profile)`` for one retiring stream, the
    checker, and with ``measure`` each quintile's last ``(frozen edges,
    checkpoint bytes)``.

    A chunk's cost is its CPU time: on a shared host the wall clock also
    counts the time other tenants held the processor.
    """
    checker = StreamingChecker(workload=workload)
    rows = []
    sizes = []
    n = -(-len(ops) // chunk_ops)
    ends = {(k + 1) * n // 5 - 1 for k in range(5)}
    for i, start in enumerate(range(0, len(ops), chunk_ops)):
        profile = Profile()
        begin = time.process_time()
        checker.extend(ops[start : start + chunk_ops], profile=profile)
        with profile.stage("retire"):
            checker.retire(min_idle_txns=RETIRE_IDLE_TXNS)
        rows.append((time.process_time() - begin, profile))
        if measure and i in ends:
            sizes.append((checker.frozen_edges, checkpoint_bytes(checker)))
    return rows, checker, sizes


def quintiles(rows):
    n = len(rows)
    return [rows[k * n // 5 : (k + 1) * n // 5] for k in range(5)]


def summarize(name: str, replays, checker, sizes) -> dict:
    """Per-quintile figures over every replay's chunks."""
    pooled = [quintiles(rows) for rows in replays]
    parts = [sum((q[k] for q in pooled), []) for k in range(5)]
    parts = [part for part in parts if part]
    median_ms = [
        1000 * statistics.median(seconds for seconds, _p in part) for part in parts
    ]
    stages = {
        stage: [
            1000 * statistics.mean(p.stages.get(stage, 0.0) for _s, p in part)
            for part in parts
        ]
        for stage in STAGES
    }
    nodes = [
        max(p.counters.get("graph.nodes", 0) for _s, p in part) for part in parts
    ]
    return {
        "session": name,
        "chunks": len(replays[0]),
        "median_chunk_ms": [round(v, 3) for v in median_ms],
        "stage_mean_ms": {k: [round(v, 3) for v in vs] for k, vs in stages.items()},
        "graph_nodes_max": nodes,
        "ratio": round(median_ms[-1] / median_ms[0], 3),
        "resident_ops": checker.resident_ops,
        "retired_txns": checker.retired_txns,
        "frozen_edges": checker.frozen_edges,
        "quintile_frozen_edges": [edges for edges, _b in sizes],
        "quintile_checkpoint_bytes": [size for _e, size in sizes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--waves", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chunk-ops", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=None,
        help="fail (exit 2) when a last-quintile median chunk exceeds "
        "this multiple of the first quintile's",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    streams = {
        name: session_stream(args.seed, slot, workload, fault, args.waves)
        for slot, (name, (workload, fault)) in enumerate(SESSIONS.items())
    }
    replays = {name: [] for name in streams}
    checkers = {}
    sizes = {}
    for repeat in range(args.repeats):
        for name, ops in streams.items():
            workload = SESSIONS[name][0]
            rows, checkers[name], measured = replay(
                workload, ops, args.chunk_ops, measure=repeat == 0
            )
            replays[name].append(rows)
            sizes.setdefault(name, measured)
    results = [
        summarize(name, replays[name], checkers[name], sizes[name])
        for name in streams
    ]

    for row in results:
        print(
            f"{row['session']:8s} {row['chunks']} chunks, "
            f"resident {row['resident_ops']} ops, "
            f"{row['retired_txns']} txns retired, "
            f"last/first quintile {row['ratio']:.2f}x"
        )
        lines = [("median chunk ms", row["median_chunk_ms"], "7.2f")]
        lines += [(stage, v, "7.2f") for stage, v in row["stage_mean_ms"].items()]
        lines.append(("graph.nodes max", row["graph_nodes_max"], "7d"))
        lines.append(("frozen_edges", row["quintile_frozen_edges"], "7d"))
        checkpoint_kb = [b / 1000 for b in row["quintile_checkpoint_bytes"]]
        lines.append(("checkpoint kB", checkpoint_kb, "7.1f"))
        for label, values, spec in lines:
            print(f"  {label:16s}", *(format(v, spec) for v in values))

    path = record_run(
        "retiring_stream",
        results,
        path=args.out,
        waves=args.waves,
        seed=args.seed,
        chunk_ops=args.chunk_ops,
        repeats=args.repeats,
        cpu_count=os.cpu_count(),
    )
    print(f"recorded -> {path}")

    if args.max_ratio is not None:
        over = [row for row in results if row["ratio"] > args.max_ratio]
        for row in over:
            print(
                f"FAIL: {row['session']} last-quintile median chunk is "
                f"{row['ratio']:.2f}x the first (bound {args.max_ratio}x)",
                file=sys.stderr,
            )
        if over:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
