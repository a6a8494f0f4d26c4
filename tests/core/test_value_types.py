"""Values of the wrong type are input errors, in every workload.

A list-append or grow-set read must be an array or null, and a counter's
increments and reads must be integers.  Anything else is refused with a
:class:`~repro.errors.WorkloadError` naming the transaction, the key and
the value — batch and stream alike — and the CLI exits 2 on it, never 1
(which means INVALID) and never with a traceback.
"""

import json

import pytest

from repro import check
from repro.__main__ import main
from repro.core.incremental import StreamingChecker
from repro.errors import WorkloadError
from repro.history import History, add, append, inc, r

#: (workload, compact transactions, the error's expected text).
CASES = {
    "list-append-scalar-read": (
        "list-append",
        [("ok", 0, [append("x", 1)]), ("ok", 1, [r("x", 5)])],
        "T2 read 5 at key 'x'; list-append reads must be arrays or null",
    ),
    "list-append-string-read": (
        "list-append",
        [("ok", 0, [append("x", "a")]), ("ok", 1, [r("x", "a")])],
        "T2 read 'a' at key 'x'; list-append reads must be arrays or null",
    ),
    "grow-set-scalar-read": (
        "grow-set",
        [("ok", 0, [add("s", 1)]), ("ok", 1, [r("s", 1)])],
        "T2 read 1 at key 's'; grow-set reads must be arrays or null",
    ),
    "counter-string-increment": (
        "counter",
        [("ok", 0, [inc("c", "a")]), ("ok", 1, [r("c", 1)])],
        "T0 wrote 'a' at key 'c'; counter increments must be integers",
    ),
    "counter-string-read": (
        "counter",
        [("ok", 0, [inc("c", 1)]), ("ok", 1, [r("c", "1")])],
        "T2 read '1' at key 'c'; counter reads must be integers or null",
    ),
}


def history_of(case):
    workload, txns, message = CASES[case]
    return workload, History.of(*txns), message


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_check_refuses(case):
    workload, history, message = history_of(case)
    with pytest.raises(WorkloadError) as excinfo:
        check(history, workload=workload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_refuses(case):
    workload, history, message = history_of(case)
    checker = StreamingChecker(workload=workload)
    with pytest.raises(WorkloadError) as excinfo:
        for op in history.ops:
            checker.extend([op])
    assert str(excinfo.value) == message


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("follow", [False, True], ids=["batch", "follow"])
def test_cli_exits_two(case, follow, tmp_path, capsys):
    workload, history, message = history_of(case)
    path = tmp_path / "history.jsonl"
    path.write_text(
        "".join(
            json.dumps(
                {
                    "index": op.index,
                    "type": op.type.value,
                    "process": op.process,
                    "value": [[m.fn, m.key, m.value] for m in op.value],
                }
            )
            + "\n"
            for op in history.ops
        ),
        encoding="utf-8",
    )
    args = ["--quiet", "--workload", workload, "--in", str(path)]
    code = main(args + (["--follow"] if follow else []))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_clean_values_pass():
    assert check(
        History.of(("ok", 0, [append("x", 1)]), ("ok", 1, [r("x", [1])])),
        workload="list-append",
    ).valid
    assert check(
        History.of(("ok", 0, [add("s", 1)]), ("ok", 1, [r("s", {1})])),
        workload="grow-set",
    ).valid
    assert check(
        History.of(("ok", 0, [inc("c", 2)]), ("ok", 1, [r("c", 2), r("c", None)])),
        workload="counter",
    ).valid
