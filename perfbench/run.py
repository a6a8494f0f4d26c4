"""The checker's benchmark: one command, one named workload, one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload append-clean --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``append-clean`` — batch list-append, Figure 4 shape, serializable
  database, checked at strict-serializable; must be valid;
* ``register-stale`` — batch rw-register with all four version sources
  under the ``yugabyte-stale-read`` injector; must report G2-item and
  cyclic-versions;
* ``serve-durable`` — a durable daemon streamed two retiring sessions
  (clean and ``tidb-retry``), then killed and restarted; every verdict
  must equal a batch check of the same ops, before and after the kill.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run, whose span
trees are written to ``.perfbench_work/traces/``.  The line before it is
the row: seed, nproc, library versions, input size and the figures that
are not metrics.  The exit code is non-zero when any check of the
program's output failed, or when there is no program to measure.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import harness

WORKLOADS = ("append-clean", "register-stale", "serve-durable")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(harness.ROOT)
    # A terminated run still stops the processes it started: SystemExit
    # unwinds through the ``finally`` blocks that kill them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        harness.require_program()
        if args.workload == "serve-durable":
            import serve as workload
        else:
            import batch as workload
        return workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except harness.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
