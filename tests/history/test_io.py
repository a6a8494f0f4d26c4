"""JSON-lines history serialization: round trips and the CLI path."""

import io

import pytest

from repro import check
from repro.errors import HistoryError
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import (
    History,
    HistoryBuilder,
    add,
    append,
    dump_history,
    dumps_history,
    inc,
    load_history,
    loads_history,
    r,
    w,
)
from repro.history.ops import OpType


def builder_history():
    b = HistoryBuilder()
    b.invoke(0, [append("x", 1), r("y", None)], ts=3)
    b.invoke(1, [r("x", None)])
    b.ok(0, [append("x", 1), r("y", [])], ts=7)
    b.fail(1)
    b.invoke(2, [append("x", 2)])  # never completes: info
    return b.build()


class TestRoundTrip:
    def test_text_round_trip_is_stable(self):
        history = builder_history()
        text = dumps_history(history)
        assert dumps_history(loads_history(text)) == text

    def test_transactions_survive(self):
        history = builder_history()
        back = loads_history(dumps_history(history))
        assert len(back) == len(history)
        for orig, loaded in zip(history.transactions, back.transactions):
            assert loaded.id == orig.id
            assert loaded.process == orig.process
            assert loaded.type == orig.type
            assert loaded.invoke_index == orig.invoke_index
            assert loaded.complete_index == orig.complete_index
            assert loaded.start_ts == orig.start_ts
            assert loaded.commit_ts == orig.commit_ts
            assert [(m.fn, m.key, m.value) for m in loaded.mops] == [
                (m.fn, m.key, tuple(m.value) if isinstance(m.value, list) else m.value)
                for m in orig.mops
            ]

    def test_file_round_trip(self, tmp_path):
        history = builder_history()
        path = tmp_path / "history.jsonl"
        count = dump_history(history, path)
        assert count == history.op_count
        assert load_history(path).op_count == history.op_count

    def test_open_file_objects_work(self):
        history = builder_history()
        buffer = io.StringIO()
        dump_history(history, buffer)
        buffer.seek(0)
        assert load_history(buffer).op_count == history.op_count

    @pytest.mark.parametrize(
        "workload", ["list-append", "rw-register", "grow-set", "counter"]
    )
    def test_generated_histories_check_identically(self, workload):
        history = run_workload(
            RunConfig(
                txns=150,
                concurrency=5,
                workload=WorkloadConfig(workload=workload, active_keys=4),
                seed=13,
            )
        )
        reloaded = loads_history(dumps_history(history))
        original = check(history, workload=workload)
        again = check(reloaded, workload=workload)
        assert again.valid == original.valid
        assert again.anomaly_types == original.anomaly_types
        assert [a.message for a in again.anomalies] == [
            a.message for a in original.anomalies
        ]

    def test_grow_set_read_values_round_trip_as_frozensets(self):
        history = History.of(
            ("ok", 0, [add("s", 1), add("s", 2)]),
            ("ok", 1, [r("s", frozenset({1, 2}))]),
        )
        back = loads_history(dumps_history(history))
        observed = back.transactions[1].mops[0].value
        assert observed == frozenset({1, 2})

    def test_register_and_counter_values(self):
        history = History.of(
            ("ok", 0, [w("k", 5), inc("c", 2)]),
            ("ok", 1, [r("k", 5), r("c", 2)]),
        )
        back = loads_history(dumps_history(history))
        assert [m.value for m in back.transactions[1].mops] == [5, 2]


class TestMalformedInput:
    def test_not_json(self):
        with pytest.raises(HistoryError, match="not JSON"):
            loads_history("not json at all\n")

    def test_missing_fields(self):
        with pytest.raises(HistoryError, match="malformed"):
            loads_history('{"index": 0}\n')

    def test_unknown_type(self):
        with pytest.raises(HistoryError, match="malformed"):
            loads_history(
                '{"index": 0, "type": "explode", "process": 0, "value": []}\n'
            )

    def test_unknown_tag(self):
        with pytest.raises(HistoryError):
            loads_history(
                '{"index": 0, "type": "invoke", "process": 0, '
                '"value": [["r", 1, {"mystery": []}]]}\n'
            )

    def test_blank_lines_ignored(self):
        history = builder_history()
        text = "\n" + dumps_history(history).replace("\n", "\n\n")
        assert loads_history(text).op_count == history.op_count

    def test_crlf_line_endings_tolerated(self):
        """Histories shipped through Windows tooling load unchanged."""
        history = builder_history()
        crlf = dumps_history(history).replace("\n", "\r\n")
        back = loads_history(crlf)
        assert back.op_count == history.op_count
        assert dumps_history(back) == dumps_history(history)

    def test_crlf_with_blank_lines_keeps_line_numbers(self):
        """Error positions count physical lines, blank and CRLF included."""
        history = builder_history()
        lines = dumps_history(history).splitlines()
        lines.insert(1, "")          # a blank line to skip
        lines[3] = "{broken"         # physical line 4
        with pytest.raises(HistoryError, match="line 4"):
            loads_history("\r\n".join(lines) + "\r\n")

    def test_pairing_still_validated(self):
        # A completion with no invocation is rejected by History itself.
        with pytest.raises(HistoryError):
            loads_history(
                '{"index": 0, "type": "ok", "process": 0, "value": []}\n'
            )


class TestTypedFields:
    """``index`` and ``process`` are ints and ``ts`` an int or absent;
    anything else is a malformed record that names its line."""

    GOOD = '{"index": 0, "type": "invoke", "process": 0, "value": []}\n'

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"index": "1", "process": 1', "index must be an integer, got '1'"),
            ('"index": 1.5, "process": 1', "index must be an integer, got 1.5"),
            ('"index": true, "process": 1', "index must be an integer, got True"),
            ('"index": 1, "process": [1]', "process must be an integer, got [1]"),
            ('"index": 1, "process": null', "process must be an integer, got None"),
            ('"index": 1, "process": 1, "ts": "7"', "ts must be an integer, got '7'"),
            ('"index": 1, "process": 1, "ts": 7.0', "ts must be an integer, got 7.0"),
            ('"index": 1, "process": 1, "ts": true', "ts must be an integer, got True"),
        ],
        ids=[
            "str-index",
            "float-index",
            "bool-index",
            "list-process",
            "null-process",
            "str-ts",
            "float-ts",
            "bool-ts",
        ],
    )
    def test_ill_typed_field_names_its_line(self, fields, message):
        bad = '{"type": "invoke", "value": [], ' + fields + "}\n"
        with pytest.raises(HistoryError) as info:
            loads_history(self.GOOD + "\n" + bad)
        assert str(info.value) == (f"line 3: malformed operation record: {message}")

    def test_integer_and_absent_or_null_ts_load(self):
        text = (
            '{"index": 0, "type": "invoke", "process": 0, "value": [], "ts": 4}\n'
            '{"index": 1, "type": "ok", "process": 0, "value": [], "ts": null}\n'
            '{"index": 2, "type": "invoke", "process": 1, "value": []}\n'
        )
        history = loads_history(text)
        assert [op.ts for op in history.ops] == [4, None, None]
        assert history.transactions[0].start_ts == 4

    @pytest.mark.parametrize(
        "entry, shown",
        [
            ('"rx1"', "'rx1'"),
            ('{"r": 0, "x": 0, "y": 0}', "{'r': 0, 'x': 0, 'y': 0}"),
            ('["r", "x"]', "['r', 'x']"),
            ('["r", "x", 1, 2]', "['r', 'x', 1, 2]"),
            ("7", "7"),
        ],
        ids=["string", "object", "pair", "quad", "number"],
    )
    def test_micro_op_must_be_a_triple(self, entry, shown):
        bad = (
            '{"index": 1, "type": "invoke", "process": 1, '
            f'"value": [["r", "k", null], {entry}]}}\n'
        )
        with pytest.raises(HistoryError) as info:
            loads_history(self.GOOD + bad)
        assert str(info.value) == (
            "line 2: malformed operation record: micro-op must be a "
            f"[fn, key, value] array, got {shown}"
        )

    def test_first_missing_field_still_names_the_error(self):
        # Ill-typed fields are judged only once every field is present.
        with pytest.raises(HistoryError) as info:
            loads_history('{"index": "0", "process": 0, "value": []}\n')
        assert str(info.value) == (
            "line 1: malformed operation record: 'type'"
        )


class TestOpEncoding:
    def test_ts_preserved_only_when_present(self):
        history = builder_history()
        text = dumps_history(history)
        lines = text.strip().split("\n")
        assert '"ts": 3' in lines[0]
        assert "ts" not in lines[1]

    def test_info_completion_with_lost_values(self):
        b = HistoryBuilder()
        b.invoke(0, [append("x", 1)])
        b.info(0, None)
        back = loads_history(dumps_history(b.build()))
        assert back.transactions[0].type is OpType.INFO


class TestStreamingSources:
    """Non-seekable inputs: pipes, stdin, and chunked ingestion."""

    def test_load_history_from_pipe(self):
        import os
        import threading

        history = builder_history()
        text = dumps_history(history)
        read_fd, write_fd = os.pipe()

        def writer():
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(text)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
                assert not fh.seekable()
                back = load_history(fh)
        finally:
            thread.join()
        assert back.op_count == history.op_count
        assert dumps_history(back) == text

    def test_iter_op_chunks_from_pipe(self):
        import os
        import threading

        from repro.history import iter_op_chunks

        history = builder_history()
        text = dumps_history(history)
        read_fd, write_fd = os.pipe()

        def writer():
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(text)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
                chunks = list(iter_op_chunks(fh, 2))
        finally:
            thread.join()
        assert [len(c) for c in chunks[:-1]] == [2] * (len(chunks) - 1)
        assert sum(len(c) for c in chunks) == history.op_count
        flat = [op for chunk in chunks for op in chunk]
        assert [op.index for op in flat] == [op.index for op in history.ops]

    def test_iter_op_chunks_rejects_nonpositive_size(self):
        from repro.history import iter_op_chunks

        with pytest.raises(
            ValueError, match="chunk_size must be positive, got 0"
        ):
            list(iter_op_chunks(io.StringIO(""), 0))
        with pytest.raises(
            ValueError, match="chunk_size must be positive, got -3"
        ):
            list(iter_op_chunks(io.StringIO(""), -3))

    def test_iter_op_chunks_skips_blank_and_crlf_lines(self):
        """Chunk sizes count operations, not physical lines."""
        from repro.history import iter_op_chunks

        history = builder_history()
        ragged = "\r\n" + dumps_history(history).replace("\n", "\r\n\r\n")
        chunks = list(iter_op_chunks(io.StringIO(ragged), 3))
        assert [len(c) for c in chunks[:-1]] == [3] * (len(chunks) - 1)
        flat = [op for chunk in chunks for op in chunk]
        assert flat == list(
            loads_history(dumps_history(history)).ops
        )

    def test_truncated_final_line_raises(self):
        history = builder_history()
        text = dumps_history(history)
        truncated = text[: text.rindex("\n") + 1] + '{"index": 99, "typ'
        with pytest.raises(HistoryError, match="not JSON"):
            loads_history(truncated)

    def test_truncated_line_mid_stream_raises_with_line_number(self):
        from repro.history import iter_op_chunks

        history = builder_history()
        lines = dumps_history(history).splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        fh = io.StringIO("\n".join(lines) + "\n")
        with pytest.raises(HistoryError, match="line 3"):
            list(iter_op_chunks(fh, 2))

    def test_interleaved_chunk_round_trip(self):
        """Chunked dump + chunked load reassemble the exact history."""
        from repro.history import iter_op_chunks
        from repro.history.io import dump_ops

        history = run_workload(
            RunConfig(
                txns=120,
                concurrency=5,
                workload=WorkloadConfig(workload="list-append", active_keys=4),
                seed=5,
            )
        )
        ops = list(history.ops)
        buffer = io.StringIO()
        for start in range(0, len(ops), 33):  # writer emits in bursts
            dump_ops(ops[start:start + 33], buffer)
        buffer.seek(0)
        chunks = list(iter_op_chunks(buffer, 50))  # reader re-frames
        rebuilt = History(())
        for chunk in chunks:
            rebuilt.extend(chunk)
        assert dumps_history(rebuilt) == dumps_history(history)
        assert [t.id for t in rebuilt.transactions] == [
            t.id for t in history.transactions
        ]


class TestTornTail:
    """``allow_torn_tail``: forgiving exactly one truncated final record.

    The WAL-replay contract (see ``repro.service.durability``): a writer
    that died mid-record — crash, ``kill -9``, full disk — leaves a
    JSON-lines file whose final line is garbage at some byte offset.
    That torn tail is dropped; anything else malformed still raises.
    """

    def full_text(self):
        return dumps_history(builder_history())

    def test_truncation_at_every_byte_of_the_last_record(self):
        """Every possible tear point of the final record loads cleanly
        as the intact-prefix history."""
        text = self.full_text()
        lines = text.splitlines(keepends=True)
        prefix = "".join(lines[:-1])
        intact = dumps_history(load_history(io.StringIO(prefix)))
        last = lines[-1]
        for offset in range(len(last) - 1):  # full line would be untorn
            torn = prefix + last[:offset]
            # Strict mode refuses anything that isn't valid JSON...
            if offset:
                with pytest.raises(HistoryError):
                    load_history(io.StringIO(torn))
            # ...torn-tail mode yields exactly the intact prefix.
            recovered = load_history(
                io.StringIO(torn), allow_torn_tail=True
            )
            assert dumps_history(recovered) == intact, offset

    def test_torn_tail_only_forgives_the_final_line(self):
        """A malformed line with more data after it is corruption."""
        text = self.full_text()
        lines = text.splitlines(keepends=True)
        corrupted = lines[0][: len(lines[0]) // 2].rstrip("\n") + "\n"
        body = corrupted + "".join(lines[1:])
        with pytest.raises(HistoryError, match="not JSON"):
            load_history(io.StringIO(body), allow_torn_tail=True)

    def test_torn_tail_drops_valid_json_missing_fields(self):
        """Truncation can land between two closing braces, leaving valid
        JSON that is not a complete op record — still a torn tail."""
        text = self.full_text()
        body = text + '{"index": 99}\n'
        recovered = load_history(io.StringIO(body), allow_torn_tail=True)
        assert dumps_history(recovered) == text
        # Without the flag it is an error, as before.
        with pytest.raises(HistoryError, match="malformed"):
            load_history(io.StringIO(body))

    def test_iter_op_chunks_allows_torn_tail(self):
        from repro.history.io import iter_op_chunks

        text = self.full_text()
        torn = text[:-4]  # tear the final record
        with pytest.raises(HistoryError):
            list(iter_op_chunks(io.StringIO(torn), 2))
        chunks = list(
            iter_op_chunks(io.StringIO(torn), 2, allow_torn_tail=True)
        )
        total = sum(len(chunk) for chunk in chunks)
        assert total == len(builder_history().ops) - 1

    def test_empty_and_whitespace_files(self):
        assert not load_history(
            io.StringIO(""), allow_torn_tail=True
        ).ops
        assert not load_history(
            io.StringIO("\n  \n"), allow_torn_tail=True
        ).ops

    def test_torn_tail_of_a_single_record_file(self):
        text = (
            '{"index": 0, "type": "invoke", "process": 0, '
            '"value": [["append", "x", 1]]}\n'
        )
        assert load_history(io.StringIO(text)).ops  # sanity: intact loads
        for offset in range(len(text) - 1):
            recovered = load_history(
                io.StringIO(text[:offset]), allow_torn_tail=True
            )
            assert not recovered.ops, offset
