"""repro — a Python reproduction of Elle (Kingsbury & Alvaro, VLDB 2020).

Elle is a black-box transactional isolation checker: it observes the
transactions a client executed against a database and infers an Adya-style
dependency graph whose cycles and non-cycle phenomena witness isolation
anomalies — soundly, in linear time, with human-readable counterexamples.

Quick start::

    from repro import History, append, r, check

    h = History.of(
        ("ok", 0, [append("x", 1)]),
        ("ok", 1, [r("x", [1])]),
    )
    result = check(h, workload="list-append",
                   consistency_model="serializable")
    assert result.valid

The packages:

* :mod:`repro.history` — observations: micro-ops, operations, transactions.
* :mod:`repro.core` — the checker: inference, anomalies, explanations.
* :mod:`repro.graph` — the dependency graph: an append-only edge log frozen
  into a CSR snapshot that runs SCCs and cycle searches.
* :mod:`repro.service` — the checker as a resident daemon: many concurrent
  checking sessions multiplexed over JSON-lines frames on one event loop.
* :mod:`repro.db` — an in-memory MVCC database simulator with fault injection.
* :mod:`repro.generator` — random transactional workloads and client runners.
* :mod:`repro.baselines` — Knossos-style NP-complete checkers for comparison.
"""

from .core import (
    Analysis,
    Anomaly,
    CheckResult,
    CycleAnomaly,
    StreamingChecker,
    StreamUpdate,
    analyze,
    check,
    check_stream,
    cycle_dot,
    render_cycle,
)
from .errors import GeneratorError, HistoryError, ReproError, WorkloadError
from .history import (
    History,
    HistoryBuilder,
    MicroOp,
    Op,
    OpType,
    Transaction,
    add,
    append,
    inc,
    r,
    w,
)

__version__ = "1.0.0"

__all__ = [
    "Analysis",
    "Anomaly",
    "CheckResult",
    "CycleAnomaly",
    "GeneratorError",
    "History",
    "HistoryBuilder",
    "HistoryError",
    "MicroOp",
    "Op",
    "OpType",
    "ReproError",
    "StreamUpdate",
    "StreamingChecker",
    "Transaction",
    "WorkloadError",
    "add",
    "analyze",
    "append",
    "check",
    "check_stream",
    "cycle_dot",
    "inc",
    "r",
    "render_cycle",
    "w",
    "__version__",
]
