"""Shared plumbing for the benchmark: paths, spans, statistics, output.

The benchmark measures the checker from outside.  It imports the public
entry points of ``repro`` from the checkout's ``src/`` and starts every
process it measures (checking children, the daemon) with that same
``src/`` on ``PYTHONPATH``.  Scratch files live under ``.perfbench_work/``
in the checkout, which is ignored by git.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class BenchmarkError(Exception):
    """A failure that makes the run's figures meaningless (exit non-zero)."""


def require_program() -> None:
    """Fail before measuring anything when the program is not checked out."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """The environment for processes that run the program under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_dir(workload: str, seed: int, trace: bool) -> Path:
    """A fresh scratch directory for one run (removed by the caller)."""
    path = WORK / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def environment(seed: int) -> Dict[str, Any]:
    """What every row records about where and how it ran."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


#: What one reference probe takes on the reference host (2 vCPUs, its
#: fast state); normalized times are in that host's seconds.
PROBE_NOMINAL_S = 0.1


class Probe:
    """A fixed reference workload that gauges the host's current speed.

    The benchmark's hosts are shares of a machine whose speed drifts by
    up to half over tens of seconds, and a timing taken in a slow stretch
    reads slow for reasons that are not the program's.  Each timed piece
    of work is bracketed by probes doing the kinds of work the checker
    does: a pure-Python part (dicts, tuples, strings, a sort) and a numpy
    part (a random gather, an argsort and a bincount over arrays of a few
    megabytes).  The probe calls nothing of the program, so a
    change to the program cannot move it; collection is off while it
    runs, so the program's heap cannot either; its arrays live only while
    it runs, so it does not raise the process's resident peak above what
    a check reaches.  ``normalize`` rescales a timing to the reference
    host's speed.
    """

    SIZE = 500_000

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy

    def __call__(self) -> float:
        """Run the probe once; returns its wall seconds."""
        numpy = self._numpy
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            counts: Dict[int, int] = {}
            pairs = []
            for i in range(40_000):
                counts[i % 1009] = counts.get(i % 1009, 0) + i
                pairs.append((i, i & 7))
            pairs.sort(key=lambda pair: pair[1])
            names = {str(i): i for i in range(50_000)}
            rng = numpy.random.default_rng(len(names))
            data = rng.integers(0, 1 << 30, self.SIZE)
            order = rng.permutation(self.SIZE)
            data.take(order).sum()
            numpy.argsort(data, kind="stable")
            numpy.bincount(data % 4096)
            return time.perf_counter() - begin
        finally:
            if enabled:
                gc.enable()


def normalize(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, rescaled to
    the reference host's speed."""
    return seconds * PROBE_NOMINAL_S / probe_s


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("no samples to take a median of")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of a sample."""
    data = sorted(values)
    if not data:
        raise BenchmarkError("no samples to take a percentile of")
    position = q * (len(data) - 1)
    lower = int(position)
    upper = min(lower + 1, len(data) - 1)
    return data[lower] + (data[upper] - data[lower]) * (position - lower)


class Spans:
    """Benchmark-side spans, kept in memory and written out at the end.

    Each span records its name, start and end (seconds since the recorder
    was made), its parent's id and the trace it belongs to.  Program-side
    span trees (``SpanProfile.spans``, the daemon's ``/traces``) attach to
    the benchmark span that caused them.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.records),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self._origin,
        }
        record.update(attrs)
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._origin

    @staticmethod
    def duration(record: Dict[str, Any]) -> float:
        return record["end_s"] - record["start_s"]

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        body: Dict[str, Any] = {"trace": self.trace_id, "spans": self.records}
        if extra:
            body.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


def trace_path(workload: str, seed: int) -> Path:
    return WORK / "traces" / f"{workload}-seed{seed}.json"


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def emit(
    *,
    trace: bool,
    attempted: int,
    failed: int,
    failures: List[str],
    metrics: Dict[str, tuple],
    row: Dict[str, Any],
) -> int:
    """Print the row, then the result line last; returns the exit code.

    ``metrics`` maps name -> (value, unit) and must hold every declared
    end-to-end metric; a per-layer metric a workload does not exercise
    reads 0.  The run is correct only when nothing failed, and a failed
    run exits non-zero.
    """
    declared = declared_metrics(trace)
    unknown = set(metrics) - set(declared)
    missing = set(declared) - set(metrics)
    if unknown or (missing and not trace):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: unknown {sorted(unknown)}, "
            f"missing {sorted(missing)}"
        )
    for name, (_value, unit) in metrics.items():
        if unit != declared[name]:
            raise BenchmarkError(f"{name}: unit {unit} != {declared[name]}")
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({"row": row}, sort_keys=True, default=str))
    correct = failed == 0 and not failures and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": float(metrics[name][0]) if name in metrics else 0.0,
                "unit": unit,
            }
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1
