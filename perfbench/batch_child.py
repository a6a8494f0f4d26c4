"""The checking process of the batch workloads.

Started by ``batch.py`` with the checkout's ``src/`` on ``PYTHONPATH``.
It reads one JSON job from its first argument, decodes the history file,
prints ``decoded`` (the parent stops its set-up clock there), runs the
job's checks and prints one JSON result line.  Every ``check()`` runs on
a fresh ``History`` built from the decoded operations, so no cached index
carries over between checks.  The first check of a process pays for lazy
imports and first calls; it is reported apart and kept out of the
medians.  Reference probes (``harness.Probe``) run between the checks, so
every check's time can be normalized to the host's speed at that moment.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

from harness import Probe, Spans, normalize


def _check(ops, job, spans=None, name="check", profile=None, **extra):
    """One timed ``check()``; returns (seconds, verdict summary)."""
    from repro import History, check

    history = History(ops)
    with (spans.span(name) if spans is not None else nullcontext({})) as span:
        begin = time.perf_counter()
        result = check(
            history,
            workload=job["workload"],
            consistency_model=job["model"],
            profile=profile,
            **job["options"],
            **extra,
        )
        elapsed = time.perf_counter() - begin
    if hasattr(profile, "spans"):
        span["profile_spans"] = profile.spans
    verdict = {
        "valid": result.valid,
        "anomaly_types": list(result.anomaly_types),
        "anomalies": len(result.anomalies),
    }
    return elapsed, verdict


def _measure(ops, job, probe):
    """Checks for the job's seconds after the warm-up check.

    A probe runs before the first check and after every check; each
    check's normalized time uses the mean of the probes on either side.
    """
    probes = [probe()]
    first, verdict = _check(ops, job)
    probes.append(probe())
    times, normalized, verdicts = [], [], [verdict]
    started = time.perf_counter()
    while (
        len(times) < job["reps"]
        or time.perf_counter() - started < job["seconds"]
    ):
        elapsed, verdict = _check(ops, job)
        probes.append(probe())
        times.append(elapsed)
        normalized.append(normalize(elapsed, (probes[-2] + probes[-1]) / 2))
        verdicts.append(verdict)
    return {
        "first_check_s": first,
        "check_s": times,
        "check_s_normalized": normalized,
        "probe_s": probes,
        "verdicts": verdicts,
    }


def _trace(ops, job, spans):
    """The per-layer run: traced checks, timed layer calls, probes.

    Untraced, traced and ``shards=2`` checks alternate after one warm-up
    check, so drift on the machine falls on all three alike.
    """
    from repro import History, analyze
    from repro.core.cycle_search import find_cycle_anomalies
    from repro.core.profiling import Profile
    from repro.history.io import load_history
    from repro.obs.tracing import SpanProfile

    _, verdict = _check(ops, job)
    verdicts = [verdict]
    plain, traced, sharded, profiles = [], [], [], []
    for _ in range(job["reps"]):
        profile = SpanProfile()
        for times, kwargs in (
            (plain, {}),
            (traced, {"spans": spans, "profile": profile}),
            (sharded, {"spans": spans, "name": "check.shards2", "shards": 2}),
        ):
            elapsed, verdict = _check(ops, job, **kwargs)
            times.append(elapsed)
            verdicts.append(verdict)
        profiles.append({"stages": profile.stages, "counters": profile.counters})

    # The layers one at a time, on a fresh history.
    history = History(ops)
    with spans.span("history.index") as index_span:
        history.index()
    profile = SpanProfile()
    with spans.span("core.analyze") as analyze_span:
        analysis = analyze(
            history, workload=job["workload"], profile=profile,
            **job["options"],
        )
    analyze_span["profile_spans"] = profile.spans
    with spans.span("graph.freeze") as freeze_span:
        csr = analysis.graph.freeze()
    freeze_span.update(nodes=csr.node_count, edges=csr.edge_count)
    search = SpanProfile()
    with spans.span("core.cycle_search") as search_span:
        find_cycle_anomalies(analysis.graph, profile=search)
    search_span.update(profile_spans=search.spans, counters=search.counters)

    # The same stages at a quarter of the size, for growth exponents.
    with spans.span("history.load.quarter"):
        small_ops = load_history(job["quarter_path"]).ops
    small_profiles, small_verdicts = [], []
    for _ in range(job["reps"]):
        small = Profile()
        _, verdict = _check(small_ops, job, profile=small)
        small_profiles.append(small.stages)
        small_verdicts.append(verdict)
    return {
        "check_s": plain,
        "traced_check_s": traced,
        "shards2_check_s": sharded,
        "verdicts": verdicts,
        "quarter_verdicts": small_verdicts,
        "profiles": profiles,
        "quarter_profiles": small_profiles,
        "index_s": Spans.duration(index_span),
        "analyze_stages": profile.stages,
        "freeze_s": Spans.duration(freeze_span),
        "nodes": csr.node_count,
        "edges": csr.edge_count,
        "cycle_search_s": Spans.duration(search_span),
        "scc": search.counters,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    from repro.history.io import load_history

    spans = Spans(job["trace_id"])
    with spans.span("history.load") as load_span:
        history = load_history(job["path"])
    print("decoded", flush=True)
    ops = history.ops
    if job["mode"] == "trace":
        out = _trace(ops, job, spans)
    else:
        out = _measure(ops, job, Probe())
    out.update(
        load_s=Spans.duration(load_span),
        ops=len(ops),
        txns=len(history.transactions),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spans=spans.records,
    )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
