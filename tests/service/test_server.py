"""The asyncio daemon end to end: real sockets, real frames, real drains."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import History, check
from repro.errors import ServiceError
from repro.service import (
    BackgroundService,
    CheckerService,
    ServiceClient,
    encode_frame,
    decode_frame,
    run_load,
)
from repro.service.client import session_workload
from repro.service.session import SessionRegistry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


async def request(reader, writer, frame):
    writer.write(encode_frame(frame))
    await writer.drain()
    return decode_frame(await reader.readline())


class TestFrameDispatch:
    """Raw-socket conversations against an in-loop server."""

    def run_conversation(self, conversation, **service_kwargs):
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

    def test_open_append_verdict_close(self):
        ops = session_workload(txns=40, seed=1)
        batch = check(History(ops))

        async def conversation(service, reader, writer):
            opened = await request(reader, writer, {
                "type": "open", "session": "t", "workload": "list-append",
                "chunk": 16,
            })
            assert opened == {
                "type": "opened", "session": "t",
                "workload": "list-append", "model": "serializable",
                "chunk": 16, "applied_seq": 0,
            }
            from repro.service import encode_ops

            appended = await request(reader, writer, {
                "type": "append", "session": "t", "ops": encode_ops(ops),
            })
            assert appended["type"] == "appended"
            assert appended["ops"] == len(ops)
            verdict = await request(reader, writer, {
                "type": "verdict", "session": "t", "report": True,
            })
            assert verdict["valid"] == batch.valid
            assert verdict["report"] == batch.report()
            assert verdict["txns"] == len(batch.analysis.history)
            closed = await request(reader, writer, {
                "type": "close", "session": "t",
            })
            assert closed["type"] == "closed"
            assert closed["stats"]["ops_ingested"] == len(ops)

        self.run_conversation(conversation)

    def test_errors_leave_the_connection_usable(self):
        async def conversation(service, reader, writer):
            # Garbage line.
            writer.write(b"!!not json!!\n")
            await writer.drain()
            reply = decode_frame(await reader.readline())
            assert reply["type"] == "error"
            assert "JSON" in reply["error"]
            # Unknown frame type.
            reply = await request(reader, writer, {"type": "launch"})
            assert "unknown frame type" in reply["error"]
            # Unknown session.
            reply = await request(
                reader, writer, {"type": "verdict", "session": "ghost"}
            )
            assert "unknown session" in reply["error"]
            # Duplicate open.
            await request(reader, writer, {"type": "open", "session": "a"})
            reply = await request(
                reader, writer, {"type": "open", "session": "a"}
            )
            assert "already open" in reply["error"]
            # Bad workload in open.
            reply = await request(reader, writer, {
                "type": "open", "session": "b", "workload": "linked-list",
            })
            assert "unknown workload" in reply["error"]
            # Non-integer chunk: rejected at open, not deep in a later
            # analysis slice (where it would poison buffered data).
            for chunk in (100.5, "100", True):
                reply = await request(reader, writer, {
                    "type": "open", "session": "c", "chunk": chunk,
                })
                assert "chunk must be an integer" in reply["error"], reply
            reply = await request(reader, writer, {
                "type": "open", "session": "c", "chunk": 0,
            })
            assert "chunk_ops must be positive" in reply["error"]
            # After all that, the connection still works.
            stats = await request(reader, writer, {"type": "stats"})
            assert stats["type"] == "stats"
            assert stats["server"]["sessions_open"] == 1

        self.run_conversation(conversation)

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": ["open"]},
            {"type": "open", "session": ["x"]},
            {"type": "stats", "session": ["x"]},
            {"type": "verdict", "session": {"a": 1}},
            {"type": "open", "workload": ["list-append"]},
            {"type": "open", "model": {"name": "serializable"}},
            {"type": "open", "options": {"sources": 5}},
            {"type": "open", "process_edges": "false"},
            {"type": "open", "realtime_edges": 0},
            {"type": "open", "timestamp_edges": "yes"},
        ],
        ids=json.dumps,
    )
    def test_malformed_fields_get_bad_frame(self, frame):
        """A field of the wrong JSON type is refused as ``bad-frame``, not
        an ``internal`` error, and never opens a session (a string
        ``"false"`` edge flag would otherwise switch the edges on)."""

        async def conversation(service, reader, writer):
            reply = await request(reader, writer, frame)
            assert reply["type"] == "error", reply
            assert reply["code"] == "bad-frame", reply
            assert not service.registry.sessions
            pong = await request(reader, writer, {"type": "ping"})
            assert pong["type"] == "pong"
            assert pong["sessions"] == 0

        self.run_conversation(conversation)

    def test_poisoned_session_reports_and_survives(self):
        ops = session_workload(txns=10, seed=2)

        async def conversation(service, reader, writer):
            from repro.service import encode_ops

            await request(reader, writer, {"type": "open", "session": "bad"})
            await request(reader, writer, {"type": "open", "session": "good"})
            # Orphan completion: structurally invalid once analyzed.
            from repro import append as mop_append
            from repro.history.ops import Op, OpType

            orphan = encode_ops([Op(0, OpType.OK, 0, (mop_append("x", 1),))])
            await request(reader, writer, {
                "type": "append", "session": "bad", "ops": orphan,
            })
            reply = await request(
                reader, writer, {"type": "verdict", "session": "bad"}
            )
            assert reply["type"] == "error"
            assert "poisoned" in reply["error"]
            # The sibling session is untouched.
            await request(reader, writer, {
                "type": "append", "session": "good", "ops": encode_ops(ops),
            })
            verdict = await request(
                reader, writer, {"type": "verdict", "session": "good"}
            )
            assert verdict["type"] == "verdict"
            stats = await request(
                reader, writer, {"type": "stats", "session": "bad"}
            )
            assert stats["stats"]["state"] == "poisoned"

        self.run_conversation(conversation)

    def test_backpressure_withholds_the_append_reply(self):
        """Over the watermark, the append reply only comes once analysis
        drains the backlog — observed by freezing the analyzer."""
        ops = session_workload(txns=60, seed=3)

        async def conversation(service, reader, writer):
            from repro.service import encode_ops

            await request(reader, writer, {
                "type": "open", "session": "s", "chunk": 32,
            })
            # Freeze the analyzer so nothing drains.
            for task in service._tasks:
                task.cancel()
            records = encode_ops(ops)
            half = len(records) // 2
            reply = await request(reader, writer, {
                "type": "append", "session": "s", "ops": records[:half],
            })
            assert reply["type"] == "appended"  # below watermark: admitted
            writer.write(encode_frame({
                "type": "append", "session": "s", "ops": records[half:],
            }))
            await writer.drain()
            # The reply is withheld: the backlog sits at the watermark.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readline(), timeout=0.3)
            # Restart the analyzer; the held append completes and the
            # verdict matches a batch check.
            service._tasks = [
                asyncio.create_task(service._analyze_loop())
            ]
            service._work.set()
            reply = decode_frame(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )
            assert reply["type"] == "appended"
            verdict = await request(
                reader, writer, {"type": "verdict", "session": "s"}
            )
            assert verdict["valid"] == check(History(ops)).valid

        self.run_conversation(
            conversation,
            registry=SessionRegistry(max_pending_ops=half_mark(ops)),
        )

    def test_draining_refuses_new_work(self):
        async def main():
            service = CheckerService(port=0)
            await service.start()
            service._draining = True
            with pytest.raises(ServiceError, match="draining"):
                frame = {"type": "open", "session": "x"}
                await service._dispatch(frame, encode_frame(frame))
            service._draining = False
            await service.drain()

        asyncio.run(main())

    def test_idle_sessions_evict(self):
        async def main():
            registry = SessionRegistry(idle_timeout=0.15)
            service = CheckerService(registry, port=0)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await request(reader, writer, {"type": "open", "session": "i"})
            deadline = time.monotonic() + 5.0
            while registry.sessions and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            stats = await request(reader, writer, {"type": "stats"})
            writer.close()
            await service.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["server"]["sessions_evicted"] == 1
        assert stats["server"]["sessions_open"] == 0


def half_mark(ops):
    """A watermark the first half-batch stays under and the second tops."""
    return max(1, len(ops) // 2)


class TestBlockingClientAndThreads:
    """The blocking client against a background daemon, like real callers."""

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "checker.sock")
        ops = session_workload(txns=30, seed=5)
        with BackgroundService(unix_path=path, port=None) as bg:
            assert bg.addresses == [f"unix:{path}"]
            with ServiceClient(f"unix:{path}") as client:
                sid = client.open_session()
                client.append(sid, ops)
                verdict = client.verdict(sid)
                assert verdict["valid"] == check(History(ops)).valid
        assert not os.path.exists(path)  # drain removed the socket file

    def test_concurrent_threaded_sessions_match_batch(self):
        """Two clients on two threads, interleaving against one daemon."""
        specs = {
            "clean": dict(seed=11, fault=None, isolation="serializable"),
            "faulty": dict(
                seed=12, fault="tidb-retry", isolation="snapshot-isolation"
            ),
        }
        streams = {
            name: session_workload(txns=120, **spec)
            for name, spec in specs.items()
        }
        results = {}

        def drive(name):
            ops = streams[name]
            with ServiceClient(address) as client:
                sid = client.open_session(
                    session_id=name, chunk_ops=40,
                    consistency_model="serializable",
                )
                for start in range(0, len(ops), 35):
                    client.append(sid, ops[start:start + 35])
                results[name] = client.verdict(sid, report=True)
                client.close_session(sid)

        with BackgroundService(port=0) as bg:
            address = bg.tcp_address
            threads = [
                threading.Thread(target=drive, args=(name,))
                for name in streams
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        for name, ops in streams.items():
            batch = check(History(ops))
            assert results[name]["valid"] == batch.valid, name
            assert results[name]["report"] == batch.report(), name
        assert results["clean"]["valid"] is True
        assert results["faulty"]["valid"] is False
        final = bg.stats
        assert final["server"]["sessions_opened"] == 2
        assert final["server"]["sessions_closed"] == 2

    def test_run_load_drives_n_sessions(self):
        with BackgroundService(port=0) as bg:
            out = run_load(
                bg.tcp_address, sessions=3, txns=40, frame_ops=30, seed=7
            )
        assert out["sessions"] == 3
        assert len(out["verdicts"]) == 3
        assert all(v["valid"] for v in out["verdicts"].values())
        assert out["stats"]["server"]["sessions_open"] == 3  # pre-close
        assert out["ops"] > 0 and out["ops_per_second"] > 0

    def test_drain_finishes_buffered_work(self):
        """Appended-but-unanalyzed operations are checked during drain."""
        ops = session_workload(txns=60, seed=9)
        bg = BackgroundService(port=0).start()
        client = ServiceClient(bg.tcp_address)
        sid = client.open_session(chunk_ops=16)
        client.append(sid, ops)  # buffered; don't ask for the verdict
        client.close()
        stats = bg.drain()
        session_stats = stats["sessions"][sid]
        assert session_stats["backlog"] == 0
        assert session_stats["ops_ingested"] == len(ops)
        assert session_stats["chunks_checked"] >= len(ops) // 16


class TestServeProcess:
    """The real ``python -m repro serve`` process: SIGTERM drains cleanly."""

    @pytest.fixture
    def daemon(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--stats-json", str(stats_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        try:
            yield proc, port, stats_path
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_sigterm_drain_and_connect_round_trip(self, daemon, tmp_path):
        proc, port, stats_path = daemon
        address = f"127.0.0.1:{port}"
        # A --connect client ships a generated faulty history and gets the
        # same verdict (and exit code) a local check would produce.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "--quiet", "--txns", "200", "--seed", "3",
                "--isolation", "snapshot-isolation", "--fault", "tidb-retry",
                "--model", "snapshot-isolation",
                "--connect", address,
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert "INVALID" in result.stdout
        # Clean drain on SIGTERM, with the stats artifact written.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        output = proc.stdout.read()
        assert "draining" in output
        assert "drained" in output
        stats = json.loads(stats_path.read_text())
        assert stats["server"]["sessions_opened"] == 1
        assert stats["server"]["ops_ingested"] > 0
