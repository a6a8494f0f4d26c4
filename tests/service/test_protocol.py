"""The service wire protocol: framing, op records, verdict records."""

import json

import pytest

from repro import History, append, check_stream, r
from repro.errors import HistoryError, ProtocolError
from repro.history import encode_op
from repro.history.io import dumps_history
from repro.service.protocol import (
    decode_frame,
    decode_ops,
    encode_frame,
    encode_ops,
    record_summary,
    request_type,
    update_record,
)


def history():
    return History.of(
        ("ok", 0, [append("x", 1)]),
        ("ok", 1, [r("x", [1])]),
    )


class TestFraming:
    def test_round_trip(self):
        frame = {"type": "open", "workload": "list-append", "chunk": 64}
        assert decode_frame(encode_frame(frame)) == frame

    def test_wire_bytes_are_one_line(self):
        data = encode_frame({"type": "stats", "note": "a\nb"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1  # embedded newlines stay escaped

    def test_str_and_bytes_both_decode(self):
        assert decode_frame('{"type": "stats"}') == {"type": "stats"}
        assert decode_frame(b'{"type": "stats"}\r\n') == {"type": "stats"}

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_frame(b"not json\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1, 2]\n")

    def test_rejects_empty(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_frame(b"\n")

    def test_rejects_non_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_frame(b'\xff\xfe{"type": "stats"}\n')

    def test_request_type_validation(self):
        assert request_type({"type": "verdict"}) == "verdict"
        with pytest.raises(ProtocolError, match="unknown frame type"):
            request_type({"type": "launch"})
        with pytest.raises(ProtocolError, match="unknown frame type"):
            request_type({})


class TestOpRecords:
    def test_reuses_the_jsonl_encoding(self):
        """An append frame's ops are exactly the JSON-lines file records."""
        ops = list(history().ops)
        file_records = [
            json.loads(line)
            for line in dumps_history(history()).splitlines()
        ]
        assert encode_ops(ops) == file_records
        assert encode_ops(ops) == [encode_op(op) for op in ops]

    def test_round_trip(self):
        from repro.history import loads_history

        ops = list(history().ops)
        # Decoding canonicalizes sequence values to tuples, exactly like
        # a JSON-lines file round trip does.
        canonical = list(loads_history(dumps_history(history())).ops)
        assert decode_ops(encode_ops(ops)) == canonical
        assert decode_ops(encode_ops(canonical)) == canonical

    def test_malformed_record_positions(self):
        records = encode_ops(list(history().ops))
        records[2] = {"index": 2}
        # Frames are one physical line; errors point at the array slot.
        with pytest.raises(HistoryError, match=r"ops\[2\]: malformed"):
            decode_ops(records)

    @pytest.mark.parametrize(
        "field, value",
        [("index", "2"), ("index", 2.5), ("process", [1]), ("ts", "9")],
    )
    def test_ill_typed_field_positions(self, field, value):
        records = encode_ops(list(history().ops))
        records[2][field] = value
        with pytest.raises(HistoryError) as info:
            decode_ops(records)
        assert str(info.value) == (
            f"ops[2]: malformed operation record: "
            f"{field} must be an integer, got {value!r}"
        )

    def test_micro_op_must_be_a_triple(self):
        records = encode_ops(list(history().ops))
        records[1]["value"] = ["rx1"]
        with pytest.raises(HistoryError) as info:
            decode_ops(records)
        assert str(info.value) == (
            "ops[1]: malformed operation record: micro-op must be a "
            "[fn, key, value] array, got 'rx1'"
        )

    def test_rejects_non_array(self):
        with pytest.raises(ProtocolError, match="array"):
            decode_ops({"index": 0})


class TestVerdictRecord:
    def test_record_shape_and_summary(self):
        ops = list(history().ops)
        updates = []
        from repro.core.incremental import StreamingChecker

        checker = StreamingChecker()
        updates.append(checker.extend(ops[:2]))
        updates.append(checker.extend(ops[2:]))
        record = update_record(updates[-1])
        assert record["type"] == "verdict"
        assert record["chunk"] == 2
        assert record["txns"] == 2
        assert record["valid"] is True
        assert record["model"] == "serializable"
        assert record["anomalies"] == 0
        # The record is JSON-representable as-is (it rides the wire).
        assert json.loads(json.dumps(record)) == record
        # The one progress line, for local and remote ``--follow`` alike.
        assert record_summary(record) == (
            "chunk 2: +2 ops (2 txns); VALID under serializable; +0 anomalies"
        )

    def test_summary_parity_with_anomalies(self):
        bad = History.of(
            ("ok", 0, [append("x", 1)]),
            ("ok", 1, [r("x", (99,))]),
        )
        from repro.core.incremental import StreamingChecker

        checker = StreamingChecker()
        update = checker.extend(list(bad.ops))
        record = update_record(update)
        assert record["valid"] is False
        assert record["new_anomalies"]
        assert record_summary(record) == (
            "chunk 1: +4 ops (2 txns); INVALID under serializable; "
            "+1 anomalies (garbage-read x1)"
        )

    def test_final_record_matches_check_stream(self):
        ops = list(history().ops)
        result = check_stream([ops])
        from repro.core.incremental import StreamingChecker

        checker = StreamingChecker()
        record = update_record(checker.extend(ops))
        assert record["valid"] == result.valid
        assert record["anomaly_types"] == list(result.anomaly_types)


class TestWireHardening:
    """Oversized and unknown frames: structured refusal, nothing poisoned."""

    def run_conversation(self, conversation, **service_kwargs):
        import asyncio

        from repro.service import CheckerService

        async def main():
            service = CheckerService(port=0, **service_kwargs)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                return await conversation(service, reader, writer)
            finally:
                writer.close()
                await service.drain()

        return asyncio.run(main())

    @staticmethod
    async def request(reader, writer, frame):
        writer.write(encode_frame(frame))
        await writer.drain()
        return decode_frame(await reader.readline())

    def test_unknown_frame_type_gets_coded_error(self):
        async def conversation(service, reader, writer):
            opened = await self.request(reader, writer, {
                "type": "open", "session": "s",
            })
            assert opened["type"] == "opened"
            bad = await self.request(reader, writer, {
                "type": "explode", "session": "s",
            })
            assert bad["type"] == "error"
            assert bad["code"] == "bad-frame"
            assert "explode" in bad["error"]
            # The connection and the session both survived.
            stats = await self.request(reader, writer, {
                "type": "stats", "session": "s",
            })
            assert stats["stats"]["state"] == "open"

        self.run_conversation(conversation)

    def test_non_object_and_non_json_frames(self):
        async def conversation(service, reader, writer):
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            reply = decode_frame(await reader.readline())
            assert reply["type"] == "error"
            assert reply["code"] == "bad-frame"
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = decode_frame(await reader.readline())
            assert reply["code"] == "bad-frame"
            # Still usable afterwards.
            stats = await self.request(reader, writer, {"type": "stats"})
            assert stats["type"] == "stats"

        self.run_conversation(conversation)

    def test_oversized_frame_rejected_and_skipped(self):
        """A frame over the limit gets frame-too-large, and the *next*
        frame on the same connection still parses — the reader resyncs on
        the newline instead of poisoning the byte stream."""
        limit = 4096

        async def conversation(service, reader, writer):
            opened = await self.request(reader, writer, {
                "type": "open", "session": "s",
            })
            assert opened["type"] == "opened"
            huge = {
                "type": "append", "session": "s",
                "ops": ["x" * (limit * 4)],
            }
            reply = await self.request(reader, writer, huge)
            assert reply["type"] == "error"
            assert reply["code"] == "frame-too-large"
            assert str(limit) in reply["error"]
            # The session took no damage and normal frames still work.
            stats = await self.request(reader, writer, {
                "type": "stats", "session": "s",
            })
            assert stats["stats"]["state"] == "open"
            assert stats["stats"]["ops_ingested"] == 0

        self.run_conversation(conversation, max_frame_bytes=limit)

    def test_oversized_frame_followed_by_pipelined_frame(self):
        """Bytes after the oversized line's newline belong to the next
        frame and must not be discarded with it."""
        limit = 2048

        async def conversation(service, reader, writer):
            huge = encode_frame({"type": "open", "pad": "y" * (limit * 3)})
            tail = encode_frame({"type": "stats"})
            writer.write(huge + tail)  # one write: both frames in flight
            await writer.drain()
            first = decode_frame(await reader.readline())
            assert first["code"] == "frame-too-large"
            second = decode_frame(await reader.readline())
            assert second["type"] == "stats"

        self.run_conversation(conversation, max_frame_bytes=limit)

    def test_bad_append_seq_is_rejected_cleanly(self):
        async def conversation(service, reader, writer):
            await self.request(reader, writer, {"type": "open", "session": "s"})
            for seq in (0, -3, True, "one"):
                reply = await self.request(reader, writer, {
                    "type": "append", "session": "s", "seq": seq, "ops": [],
                })
                assert reply["type"] == "error", seq
                assert reply["code"] == "bad-frame", seq
            stats = await self.request(reader, writer, {
                "type": "stats", "session": "s",
            })
            assert stats["stats"]["state"] == "open"

        self.run_conversation(conversation)

    def test_max_frame_bytes_must_be_positive(self):
        from repro.errors import ServiceError
        from repro.service import CheckerService

        with pytest.raises(ServiceError, match="max_frame_bytes"):
            CheckerService(port=0, max_frame_bytes=0)
