"""The batch workloads: one history file in, one verdict out.

``append-clean`` and ``register-stale`` share this module.  The parent
generates one history per checking child, each from a seed derived from
the run's seed, with ``repro.generator`` and ``repro.db``, writes them as
JSON lines, and starts ``CHILDREN`` checking children (``batch_child.py``)
one after another, each checking its history for its share of the run's
seconds.  A child is what a user of ``python -m repro
--in FILE`` runs: interpreter start, decode, ``check()``.  Set-up time is
the parent's clock from starting a child until the child reports the
history decoded.  Both set-up and check times are reported normalized to
the host's speed (``harness.Probe``); the wall times are in the row.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import harness
from harness import BenchmarkError, Spans, median

#: The paper's Figure 4 shape (§7.5), shared by both batch workloads.
FIG4 = dict(active_keys=100, max_writes_per_key=100, max_txn_len=5)
CONCURRENCY = 20
MODEL = "strict-serializable"

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "append-clean": {
        "workload": "list-append",
        "txns": 50_000,
        "fault": None,
        "options": {},
        "reps": 3,
    },
    "register-stale": {
        "workload": "rw-register",
        "txns": 40_000,
        "fault": "yugabyte-stale-read",
        "options": {
            "sources": [
                "initial-state", "write-follows-read", "process", "realtime",
            ]
        },
        "reps": 3,
    },
}

#: Stages whose growth from N/4 to N the traced run reports.
GROWTH_STAGES = (
    "index/scan",
    "analyze/columnar-screen",
    "analyze/keys",
    "analyze/merge",
    "freeze",
    "cycle-search",
)

#: Analyzer stages reported per layer (zero where a workload skips one).
ANALYZE_STAGES = (
    "analyze/columnar-screen",
    "analyze/fallback",
    "analyze/keys",
    "analyze/merge",
    "analyze/orders",
)

#: Checking children per run: each is one set-up sample and checks for
#: its share of the run's seconds.
CHILDREN = 3

CHILD_TIMEOUT_S = 150


def generate(spec: Dict[str, Any], txns: int, seed: int):
    """The workload's history, reproducible from ``seed``."""
    from repro.db import INJECTORS, Isolation
    from repro.generator import RunConfig, WorkloadConfig, run_workload

    faults = None
    if spec["fault"] is not None:
        injector = INJECTORS[spec["fault"]]

        def faults(rng, _cls=injector):
            return _cls(rng)

    return run_workload(
        RunConfig(
            txns=txns,
            concurrency=CONCURRENCY,
            isolation=Isolation.SERIALIZABLE,
            workload=WorkloadConfig(workload=spec["workload"], **FIG4),
            seed=seed,
            faults=faults,
        )
    )


def write_history(history, path: Path) -> int:
    """Write JSON lines; returns the file's size in bytes."""
    from repro.history.io import dump_history

    dump_history(history, path)
    return path.stat().st_size


def run_child(job: Dict[str, Any], probe=None) -> Dict[str, Any]:
    """Start one checking child; returns its report plus ``setup_s``.

    With a ``probe``, the parent runs it just before the start, and
    ``setup_s_normalized`` uses the mean of that probe and the child's
    first one, run just after the history is decoded.
    """
    before = probe() if probe is not None else None
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("batch_child.py")),
         json.dumps(job)],
        stdout=subprocess.PIPE,
        env=harness.child_env(),
        cwd=str(harness.ROOT),
        text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - begin
        rest = proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "decoded" or code != 0:
        raise BenchmarkError(f"checking child failed (exit {code})")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    if before is not None:
        report["setup_s_normalized"] = harness.normalize(
            setup_s, (before + report["probe_s"][0]) / 2
        )
    return report


def gate(name: str, verdict: Dict[str, Any]) -> List[str]:
    """The workload's expected verdict; returns what is wrong with it."""
    if name == "append-clean":
        if verdict["valid"] and verdict["anomalies"] == 0:
            return []
        return [f"append-clean not valid: {verdict['anomaly_types']}"]
    types = set(verdict["anomaly_types"])
    wrong = []
    if verdict["valid"]:
        wrong.append("register-stale reported valid")
    if not any(t.startswith("G2-item") for t in types):
        wrong.append(f"register-stale lacks G2-item: {sorted(types)}")
    if "cyclic-versions" not in types:
        wrong.append(f"register-stale lacks cyclic-versions: {sorted(types)}")
    return wrong


def _verdict_failures(name, reference, verdicts) -> int:
    """Count verdicts that differ from the reference or fail the gate."""
    return sum(
        1 for v in verdicts if v != reference or gate(name, v)
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = WORKLOADS[name]
    work = harness.run_dir(name, seed, trace)
    try:
        return _run(name, spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, spec, seed, seconds, trace, work: Path) -> int:
    """Generate the inputs, then measure (or trace) them.

    A measured run checks one history per child, each generated from its
    own seed derived from ``seed``, so a run's figures average over
    several inputs instead of resting on one draw of the fault injector.
    A traced run checks the first of them.
    """
    spans = Spans(f"{name}-seed{seed}")
    inputs = []
    for index in range(1 if trace else CHILDREN):
        with spans.span("generate", index=index):
            history = generate(spec, spec["txns"], seed * CHILDREN + index)
            path = work / f"history-{index}.jsonl"
            inputs.append({
                "path": str(path),
                "txns": len(history.transactions),
                "ops": len(history.ops),
                "bytes": write_history(history, path),
            })
            del history
    row: Dict[str, Any] = dict(
        harness.environment(seed),
        workload=name,
        txns=[i["txns"] for i in inputs],
        ops=[i["ops"] for i in inputs],
        bytes=[i["bytes"] for i in inputs],
        model=MODEL,
    )
    job = {
        "workload": spec["workload"],
        "model": MODEL,
        "options": spec["options"],
        "reps": spec["reps"],
        "mode": "measure",
        "trace_id": spans.trace_id,
    }
    if trace:
        job["path"] = inputs[0]["path"]
        return _trace(name, spec, seed, job, work, spans, row)

    job["seconds"] = seconds / CHILDREN
    probe = harness.Probe()
    reports = []
    for index, given in enumerate(inputs):
        with spans.span("child", index=index):
            reports.append(run_child(dict(job, path=given["path"]), probe))
    failures: List[str] = []
    failed = 0
    for given, report in zip(inputs, reports):
        verdicts = report["verdicts"]
        failures += gate(name, verdicts[0])
        failed += _verdict_failures(name, verdicts[0], verdicts)
        failed += report["ops"] != given["ops"]
    checks = sum(len(r["verdicts"]) for r in reports)
    # Each child's median, then the mean over the children's inputs.
    per_child = [median(r["check_s_normalized"]) for r in reports]
    check_s = statistics.fmean(per_child)
    metrics = {
        "setup_s": (median([r["setup_s_normalized"] for r in reports]), "s"),
        "check_s": (check_s, "s"),
        "peak_rss_mb": (median([r["maxrss_mb"] for r in reports]), "MB"),
        "ingest_ops_per_s": (
            statistics.fmean(
                i["ops"] / t for i, t in zip(inputs, per_child)
            ),
            "ops/s",
        ),
    }
    row.update(
        children=len(reports),
        checks=checks,
        verdicts=[r["verdicts"][0] for r in reports],
        failed_frac=failed / checks,
        decode_s=median([r["load_s"] for r in reports]),
        first_check_s=median([r["first_check_s"] for r in reports]),
        check_s_children=per_child,
        setup_s_wall=median([r["setup_s"] for r in reports]),
        check_s_wall=statistics.fmean(median(r["check_s"]) for r in reports),
        probe_s=median([p for r in reports for p in r["probe_s"]]),
    )
    return harness.emit(
        trace=trace,
        attempted=checks,
        failed=failed,
        failures=failures,
        metrics=metrics,
        row=row,
    )


def _growth(big: float, small: float) -> float:
    """log(t_N / t_{N/4}) / log 4, or 0 when a stage did not run."""
    if big <= 0 or small <= 0:
        return 0.0
    return math.log(big / small) / math.log(4)


def _trace(name, spec, seed, job, work, spans, row) -> int:
    with spans.span("generate.quarter"):
        quarter = generate(spec, spec["txns"] // 4, seed * CHILDREN)
        quarter_path = work / "quarter.jsonl"
        write_history(quarter, quarter_path)
    del quarter
    job = dict(job, mode="trace", quarter_path=str(quarter_path))
    with spans.span("child") as child_span:
        report = run_child(job)
    child_span["child_spans"] = report["spans"]

    verdicts = report["verdicts"]
    failures = gate(name, verdicts[0])
    failed = _verdict_failures(name, verdicts[0], verdicts)
    failures += gate(name, report["quarter_verdicts"][0])

    def stage_median(profiles, stage):
        return median([p.get(stage, 0.0) for p in profiles])

    full = [p["stages"] for p in report["profiles"]]
    small = report["quarter_profiles"]
    counters = report["profiles"][0]["counters"]
    check_plain = median(report["check_s"])
    check_traced = median(report["traced_check_s"])
    metrics: Dict[str, tuple] = {
        "history.load_s": (report["load_s"], "s"),
        "history.index_s": (report["index_s"], "s"),
    }
    for stage in ANALYZE_STAGES:
        metrics[f"{stage.replace('/', '.')}_s"] = (
            report["analyze_stages"].get(stage, 0.0), "s"
        )
    metrics.update({
        "keyspace.columnar_keys": (
            counters.get("keyspace.columnar_keys", 0), "count"
        ),
        "keyspace.fallback_keys": (
            counters.get("keyspace.fallback_keys", 0), "count"
        ),
        "graph.freeze_s": (report["freeze_s"], "s"),
        "graph.nodes": (report["nodes"], "count"),
        "graph.edges": (report["edges"], "count"),
        "cycle_search_s": (report["cycle_search_s"], "s"),
        "scc.full_runs": (report["scc"].get("scc.full_runs", 0), "count"),
        "scc.probe_runs": (report["scc"].get("scc.probe_runs", 0), "count"),
        "explain_s": (stage_median(full, "explain"), "s"),
        "obs.overhead": (check_traced / check_plain - 1.0, "frac"),
        "keyspace.shards2_speedup": (
            check_plain / median(report["shards2_check_s"]), "ratio"
        ),
    })
    for stage in GROWTH_STAGES:
        metrics[f"{stage.replace('/', '.')}.growth_exp"] = (
            _growth(stage_median(full, stage), stage_median(small, stage)),
            "exponent",
        )
    row.update(
        check_s_untraced=check_plain,
        check_s_traced=check_traced,
        verdict=verdicts[0],
        trace_file=str(harness.trace_path(name, seed)),
    )
    spans.write(harness.trace_path(name, seed), {"row": row})
    return harness.emit(
        trace=True,
        attempted=len(verdicts) + 1,
        failed=failed + (1 if failures else 0),
        failures=failures,
        metrics=metrics,
        row=row,
    )
