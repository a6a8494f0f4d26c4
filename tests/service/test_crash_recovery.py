"""The recovery oracle: a killed daemon resumes with an identical verdict.

Durability's contract has two halves, and the tests here pin both:

* **No acked operation is ever lost.**  Every batch the server
  acknowledged before dying is on disk (WAL or checkpoint) and back in
  the session after recovery, whatever the crash point.
* **Recovery is invisible in the verdict.**  The restarted session's
  verdict — anomalies, evidence, report text — is byte-identical to an
  uninterrupted batch ``check()`` of the same operations, for every
  workload x fault x hypothesis-chosen kill point, torn-WAL truncation
  offset, and checkpoint corruption.

The in-process oracle drives :class:`SessionRegistry` and
:class:`DurabilityManager` directly — the exact code the asyncio server
runs, minus the sockets — so hypothesis can place the "crash" between any
two steps and the truncation at any byte.  The subprocess tests then pin
the same property through a real ``python -m repro serve`` getting a real
``SIGKILL``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import History, check
from repro.service import (
    BackgroundService,
    DurabilityManager,
    ServiceClient,
    SessionRegistry,
    encode_frame,
    encode_ops,
)
from repro.service.client import session_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

FAULTY = dict(fault="tidb-retry", isolation="snapshot-isolation")


def batches_of(ops, size):
    return [ops[start:start + size] for start in range(0, len(ops), size)]


def apply_batch(durability, registry, session, seq, ops):
    """One ``append`` exactly as the server applies it: dedupe, WAL, buffer."""
    if seq <= session.applied_seq:
        return
    frame = {
        "type": "append", "session": session.id, "seq": seq,
        "ops": encode_ops(ops),
    }
    fresh, records = session.dedupe_ops(ops, frame["ops"])
    if fresh:
        # The frame is the journal line unless dedupe trimmed it.
        raw = encode_frame(frame) if len(fresh) == len(ops) else None
        durability.log_append(session, seq, records, raw)
    registry.append(session.id, fresh)
    session.applied_seq = seq


def drain(durability, registry, session, slices=None):
    """Run analysis slices (all, or the first ``slices``) plus checkpoints."""
    ran = 0
    while session.has_work and (slices is None or ran < slices):
        registry.run_slice()
        durability.maybe_checkpoint(session)
        ran += 1


def wal_path(durability, session_id):
    return durability.store(session_id).wal_path


class TestRecoveryOracle:
    """Sans-I/O chaos: crash anywhere, recover, compare to batch check."""

    def run_uninterrupted(self, ops):
        return check(History(ops))

    def recover_and_finish(self, data_dir, batches, killed_at, **dur_kwargs):
        """Restart from disk, re-send everything unacked, return the verdict.

        ``killed_at`` is the number of batches the dead server *acked*;
        the client re-sends from the last acked batch onward (re-sending
        an acked batch must be a deduped no-op).
        """
        durability = DurabilityManager(data_dir, **dur_kwargs)
        registry = SessionRegistry()
        session = durability.recover_session("chaos", registry)
        resend_from = max(0, min(killed_at, len(batches)) - 1)
        for index in range(resend_from, len(batches)):
            apply_batch(
                durability, registry, session, index + 1, batches[index]
            )
        drain(durability, registry, session)
        return session

    @given(
        seed=st.integers(0, 6),
        faulty=st.booleans(),
        frame_ops=st.integers(7, 80),
        chunk_ops=st.integers(5, 60),
        checkpoint_every=st.integers(10, 200),
        kill_batches=st.integers(0, 100),
        kill_slices=st.integers(0, 100),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_kill_point_oracle(
        self,
        tmp_path_factory,
        seed,
        faulty,
        frame_ops,
        chunk_ops,
        checkpoint_every,
        kill_batches,
        kill_slices,
    ):
        """Crash after any (batches acked, slices run) point: same verdict."""
        data_dir = str(
            tmp_path_factory.mktemp(f"chaos-{seed}-{kill_batches}")
        )
        spec = FAULTY if faulty else {}
        ops = session_workload(txns=60, seed=seed, **spec)
        expected = self.run_uninterrupted(ops)
        batches = batches_of(ops, frame_ops)
        killed_at = min(kill_batches, len(batches))

        from repro.service.session import SessionConfig

        durability = DurabilityManager(
            data_dir, checkpoint_every=checkpoint_every, fsync="never"
        )
        registry = SessionRegistry()
        session = registry.open(
            SessionConfig(chunk_ops=chunk_ops), "chaos"
        )
        durability.open_session(session)
        for index in range(killed_at):
            apply_batch(
                durability, registry, session, index + 1, batches[index]
            )
        drain(durability, registry, session, slices=kill_slices)
        # -- SIGKILL here: nothing gets flushed, closed, or checkpointed. --
        recovered = self.recover_and_finish(
            data_dir,
            batches,
            killed_at,
            checkpoint_every=checkpoint_every,
            fsync="never",
        )
        # Every op made it back exactly once, and the verdict is the one
        # an uninterrupted batch check produces, byte for byte.
        assert len(recovered.checker.history.ops) == len(ops)
        update = recovered.verdict()
        assert update.result.report() == expected.report()
        assert update.result.valid == expected.valid

    def test_torn_wal_tail_at_every_byte(self, tmp_path):
        """Truncate the WAL's final record at every byte offset.

        The final line is the batch the server may have died *while*
        acking — the client never saw the ack, so it re-sends.  Whatever
        prefix of that line survived, recovery must (a) keep every prior
        acked batch, and (b) end up with the identical verdict after the
        re-send.
        """
        ops = session_workload(txns=25, seed=3, **FAULTY)
        expected = self.run_uninterrupted(ops)
        batches = batches_of(ops, 30)
        assert len(batches) >= 2

        from repro.service.session import SessionConfig

        seed_dir = str(tmp_path / "seed")
        durability = DurabilityManager(seed_dir, fsync="never")
        registry = SessionRegistry()
        session = registry.open(SessionConfig(chunk_ops=16), "chaos")
        durability.open_session(session)
        for index, batch in enumerate(batches):
            apply_batch(durability, registry, session, index + 1, batch)
        journal = open(wal_path(durability, "chaos"), "rb").read()
        lines = journal[:-1].split(b"\n")
        body = b"\n".join(lines[:-1]) + b"\n" if len(lines) > 1 else b""
        last = lines[-1] + b"\n"

        acked_ops = sum(len(b) for b in batches[:-1])
        for offset in range(len(last)):
            case_dir = str(tmp_path / f"torn-{offset}")
            durability_case = DurabilityManager(case_dir, fsync="never")
            registry_case = SessionRegistry()
            victim = registry_case.open(SessionConfig(chunk_ops=16), "chaos")
            durability_case.open_session(victim)
            durability_case.close()
            with open(wal_path(durability_case, "chaos"), "wb") as fh:
                fh.write(body + last[:offset])
            recovered = self.recover_and_finish(
                case_dir, batches, len(batches), fsync="never"
            )
            assert len(recovered.checker.history.ops) == len(ops), offset
            update = recovered.verdict()
            assert update.result.report() == expected.report(), offset
            # No acked op lost: even before the re-send, the recovered
            # store held every batch but the torn (unacked) last one.
            probe = DurabilityManager(case_dir, fsync="never")
            _seq, recovered = probe.store("chaos").replay_wal()
            survivors = sum(len(ops_) for _s, ops_ in recovered)
            assert survivors >= acked_ops, offset

    @pytest.mark.parametrize(
        "corrupt",
        ["truncate", "flip-body-byte", "zero-magic", "empty"],
    )
    def test_corrupt_checkpoint_falls_back(self, tmp_path, corrupt):
        """A damaged newest checkpoint degrades restart cost, never truth."""
        ops = session_workload(txns=60, seed=4, **FAULTY)
        expected = self.run_uninterrupted(ops)
        batches = batches_of(ops, 40)

        from repro.service.session import SessionConfig

        data_dir = str(tmp_path)
        durability = DurabilityManager(
            data_dir, checkpoint_every=30, fsync="never"
        )
        registry = SessionRegistry()
        session = registry.open(SessionConfig(chunk_ops=16), "chaos")
        durability.open_session(session)
        for index, batch in enumerate(batches):
            apply_batch(durability, registry, session, index + 1, batch)
            drain(durability, registry, session)
        store = durability.store("chaos")
        checkpoints = store.checkpoint_paths()
        assert checkpoints, "cadence should have produced checkpoints"
        newest = checkpoints[0]
        blob = open(newest, "rb").read()
        if corrupt == "truncate":
            damaged = blob[: len(blob) // 2]
        elif corrupt == "flip-body-byte":
            middle = len(blob) // 2
            damaged = blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]
        elif corrupt == "zero-magic":
            damaged = b"\x00" * 16 + blob[16:]
        else:
            damaged = b""
        with open(newest, "wb") as fh:
            fh.write(damaged)
        recovered = self.recover_and_finish(
            data_dir, batches, len(batches), fsync="never"
        )
        update = recovered.verdict()
        assert update.result.report() == expected.report()
        assert update.result.valid == expected.valid

    def test_recovery_without_any_checkpoint_replays_wal(self, tmp_path):
        """Zero checkpoints (huge cadence): full WAL replay from empty."""
        ops = session_workload(txns=40, seed=5)
        expected = self.run_uninterrupted(ops)
        batches = batches_of(ops, 25)

        from repro.service.session import SessionConfig

        durability = DurabilityManager(str(tmp_path), fsync="never")
        registry = SessionRegistry()
        session = registry.open(SessionConfig(), "chaos")
        durability.open_session(session)
        for index, batch in enumerate(batches):
            apply_batch(durability, registry, session, index + 1, batch)
        # Crash before a single slice ran: the WAL alone carries the data.
        recovered = self.recover_and_finish(
            str(tmp_path), batches, len(batches), fsync="never"
        )
        assert not durability.store("chaos").checkpoint_paths()
        assert len(recovered.checker.history.ops) == len(ops)
        update = recovered.verdict()
        assert update.result.report() == expected.report()

    @pytest.mark.parametrize(
        "stale",
        [
            b"REPROCKPT1\n",
            b"REPROCKPT2\n",
            b"REPROCKPT3\n",
            b"REPROCKPT4\n",
            b"REPROCKPT5\n",
            b"REPROCKPT6\n",
            b"REPROCKPT7\n",
            b"REPROCKPT8\n",
            b"REPROCKPT9\n",
            b"REPROCKPT10\n",
        ],
        ids=lambda magic: magic.decode().strip(),
    )
    def test_stale_magic_checkpoint_is_skipped(self, tmp_path, stale):
        """A checkpoint from an older payload layout is never unpickled.

        Each checkpoint is re-framed under an earlier magic with its body
        and digest intact — exactly what an older build left on disk.
        ``REPROCKPT2`` checkpoints carry cycle witnesses chosen on a graph
        ordered by edge emission, which batch ``check()`` no longer
        produces; ``REPROCKPT3`` checkpoints hold tagged frozen batches and
        merge positions; ``REPROCKPT4`` checkpoints hold register batches
        whose ``cyclic-versions`` values follow first emission, not the
        canonical version order; ``REPROCKPT5`` checkpoints hold whole
        frozen key batches, re-merged on every chunk, where the checker now
        keeps a frozen edge block; ``REPROCKPT6`` checkpoints hold key
        slices with an ``inter_txn`` slot the index no longer has;
        ``REPROCKPT7`` checkpoints hold a streaming checker whose plan
        options sit under an attribute it no longer reads;
        ``REPROCKPT8`` checkpoints cache each key's evidence as a dict
        fragment of records, where the checker now caches the key's rows
        of its pass's edge columns; ``REPROCKPT9`` checkpoints hold an
        index of per-key slice objects, where the index now holds one
        table of micro-op rows; ``REPROCKPT10`` checkpoints hold the
        frozen block as a dict of evidence records, where the checker now
        keeps it as a list of column segments.
        Recovery must skip every one and replay the whole WAL to the batch
        report.
        """
        ops = session_workload(txns=60, seed=4, **FAULTY)
        expected = self.run_uninterrupted(ops)
        batches = batches_of(ops, 40)

        from repro.service.durability import CHECKPOINT_MAGIC
        from repro.service.session import SessionConfig

        data_dir = str(tmp_path)
        durability = DurabilityManager(data_dir, checkpoint_every=30, fsync="never")
        registry = SessionRegistry()
        session = registry.open(SessionConfig(chunk_ops=16), "chaos")
        durability.open_session(session)
        for index, batch in enumerate(batches):
            apply_batch(durability, registry, session, index + 1, batch)
            drain(durability, registry, session)
        store = durability.store("chaos")
        checkpoints = store.checkpoint_paths()
        assert checkpoints, "cadence should have produced checkpoints"
        assert CHECKPOINT_MAGIC == b"REPROCKPT11\n"
        for path in checkpoints:
            blob = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(stale + blob[len(CHECKPOINT_MAGIC) :])
            assert store._read_checkpoint(path) is None
        durability.close()

        restarted = DurabilityManager(data_dir, fsync="never")
        registry = SessionRegistry()
        recovered = restarted.recover_session("chaos", registry)
        assert recovered.checker.history.op_count == 0
        assert recovered.backlog == len(ops)
        drain(restarted, registry, recovered)
        update = recovered.verdict()
        assert update.result.report() == expected.report()
        assert update.result.valid == expected.valid

    def test_a_refused_batch_never_reaches_the_journal(self, tmp_path):
        """A batch the session refuses is not journaled, so no restart
        brings it back: 80 ops acked, a 40-op batch over ``max_ops`` 100
        refused, and recovery finds the 80 ops alone."""
        from repro.errors import ServiceError

        ops = session_workload(txns=80, seed=4)
        durability = DurabilityManager(str(tmp_path), fsync="never")
        frames = [
            {"type": "append", "session": "q", "seq": seq, "ops": encode_ops(batch)}
            for seq, batch in ((1, ops[:80]), (2, ops[80:120]))
        ]
        with BackgroundService(port=0, durability=durability) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.request({"type": "open", "session": "q", "max_ops": 100})
                acked = client.request(frames[0])
                with pytest.raises(ServiceError) as refused:
                    client.request(frames[1])
        assert acked["ops"] == 80
        assert refused.value.code == "quota"

        restarted = DurabilityManager(str(tmp_path), fsync="never")
        registry = SessionRegistry()
        session = restarted.recover_session("q", registry)
        assert session.ops_ingested == 80
        assert session.applied_seq == 1
        drain(restarted, registry, session)
        expected = check(History(ops[:80]))
        assert session.verdict().result.report() == expected.report()

    def test_session_config_survives_recovery(self, tmp_path):
        """Every ``SessionConfig`` field, set off its default, comes back."""
        import dataclasses

        from repro.service.session import SessionConfig

        values = {
            "workload": "rw-register",
            "consistency_model": "snapshot-isolation",
            "chunk_ops": 17,
            "process_edges": False,
            "realtime_edges": False,
            "timestamp_edges": True,
            "max_ops": 1000,
            "max_analyze_seconds": 5.0,
            "retire_idle_txns": 50,
            "options": {"sources": ["initial-state", "process"]},
        }
        defaults = SessionConfig()
        fields = [f.name for f in dataclasses.fields(SessionConfig)]
        assert sorted(fields) == sorted(values)
        for name in fields:
            assert values[name] != getattr(defaults, name), name
        config = SessionConfig(**values)

        durability = DurabilityManager(str(tmp_path), fsync="never")
        session = SessionRegistry().open(config, "configured")
        durability.open_session(session)
        durability.close()

        restarted = DurabilityManager(str(tmp_path), fsync="never")
        recovered = restarted.recover_session("configured", SessionRegistry())
        for name in fields:
            assert getattr(recovered.config, name) == values[name], name
        assert recovered.config == config


GOOD_OP = b'{"index":0,"type":"invoke","process":0,"value":[["r","x",null]]}'


class TestWalLineForms:
    """The journal holds frames as received or ``{"seq", "ops"}`` lines."""

    def seeded_store(self, tmp_path, lines):
        """A session directory whose WAL is exactly ``lines``."""
        from repro.service.session import SessionConfig

        durability = DurabilityManager(str(tmp_path), fsync="never")
        session = SessionRegistry().open(SessionConfig(), "forms")
        durability.open_session(session)
        durability.close()
        with open(wal_path(durability, "forms"), "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        return durability.store("forms")

    @pytest.mark.parametrize(
        "record",
        [
            b'{"seq":"2","ops":[]}',
            b'{"seq":true,"ops":[]}',
            b'{"seq":0,"ops":[]}',
            b'{"seq":-3,"ops":[]}',
            b'{"seq":2.0,"ops":[]}',
            b'{"ops":[]}',
            b'{"seq":2}',
            b'{"seq":2,"ops":{}}',
            b'{"seq":2,"ops":null}',
            b'[2,[]]',
            b'"append"',
        ],
        ids=[
            "string-seq", "bool-seq", "zero-seq", "negative-seq",
            "float-seq", "no-seq", "no-ops", "object-ops", "null-ops",
            "array-record", "string-record",
        ],
    )
    def test_malformed_records_refused_with_location(self, tmp_path, record):
        from repro.errors import ServiceError

        good = b'{"seq":1,"ops":[]}'
        store = self.seeded_store(tmp_path, [good, record, good])
        with pytest.raises(ServiceError) as excinfo:
            store.replay_wal()
        assert str(excinfo.value) == (
            f"{store.wal_path}:2: malformed WAL record"
        )

    @pytest.mark.parametrize(
        "op, detail",
        [
            (
                b'{"index":0,"type":"bogus","process":0,"value":[]}',
                "'bogus' is not a valid OpType",
            ),
            (
                b'{"index":0,"type":"invoke","process":0,"value":["rx1"]}',
                "micro-op must be a [fn, key, value] array, got 'rx1'",
            ),
            (
                b'{"index":0,"type":"invoke","process":0,'
                b'"value":[{"r":0,"x":0,"y":0}]}',
                "micro-op must be a [fn, key, value] array, "
                "got {'r': 0, 'x': 0, 'y': 0}",
            ),
            (b'{"index":0,"type":"invoke","value":[]}', "'process'"),
        ],
        ids=["bad-type", "string-mop", "object-mop", "missing-field"],
    )
    def test_malformed_op_refused_with_location(self, tmp_path, op, detail):
        from repro.errors import ServiceError

        good = b'{"seq":1,"ops":[]}'
        record = b'{"seq":2,"ops":[' + GOOD_OP + b"," + op + b"]}"
        store = self.seeded_store(tmp_path, [good, record, good])
        with pytest.raises(ServiceError) as excinfo:
            store.replay_wal()
        assert str(excinfo.value) == (
            f"{store.wal_path}:2: malformed WAL record: ops[1]: {detail}"
        )

    def test_bare_cr_frame_as_last_line_replays(self, tmp_path):
        """A frame with ``\\r`` between tokens stays one record, even last."""
        ops = session_workload(txns=6, seed=1)
        records = encode_ops(ops)
        first = encode_frame(
            {"type": "append", "session": "forms", "seq": 1,
             "ops": records[:4]}
        ).strip()
        last = b"\r".join([
            b'{"type":"append",', b'"session":"forms",', b'"seq":2,',
            b'"ops":' + encode_frame(records[4:]).strip() + b"}",
        ])
        store = self.seeded_store(tmp_path, [first, last])
        highest, batches = store.replay_wal()
        assert highest == 2
        assert [seq for seq, _ops in batches] == [1, 2]
        assert [op for _seq, batch in batches for op in batch] == ops

    def test_append_path_never_encodes_an_op(self, tmp_path, monkeypatch):
        """Verbatim, seq-less and trimmed appends all skip ``encode_op``."""
        from repro.history.io import encode_op

        ops = session_workload(txns=30, seed=2)
        records = encode_ops(ops)
        frames = [
            {"type": "append", "session": "raw", "seq": 1,
             "ops": records[:20]},
            {"type": "append", "session": "raw", "ops": records[20:40]},
            {"type": "append", "session": "raw", "seq": 3,
             "ops": records[30:60]},
        ]

        def refuse(_op):
            raise AssertionError("encode_op called on the append path")

        # Every module holding a reference, wherever it was imported to.
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and getattr(module, "encode_op", None) is encode_op
            ):
                monkeypatch.setattr(module, "encode_op", refuse)
        durability = DurabilityManager(str(tmp_path), fsync="never")
        with BackgroundService(port=0, durability=durability) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.request({"type": "open", "session": "raw"})
                replies = [client.request(frame) for frame in frames]
        assert [reply["ops"] for reply in replies] == [20, 20, 20]
        assert replies[2]["deduped"] == 10
        with open(wal_path(durability, "raw"), "rb") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == encode_frame(frames[0]).strip()
        assert lines[1].startswith(b'{"seq":2,"ops":[')
        assert lines[2].startswith(b'{"seq":3,"ops":[')

    def test_kill9_mixed_journal_matches_batch(self, tmp_path):
        """One journal mixing every line form survives a real ``kill -9``.

        The WAL ends up holding, in order: a ``{"seq", "ops"}`` line
        written by hand the way older builds journaled every batch,
        frames journaled as received, a seq-less frame (the server
        assigns its seq), a re-delivery dedupe trimmed, and finally a
        frame with bare ``\\r`` bytes between its tokens.  The restarted
        daemon replays all of them to the uninterrupted batch verdict.
        """
        from repro.history.io import encode_op
        from repro.service.session import SessionConfig

        data_dir = tmp_path / "data"
        ops = session_workload(txns=150, seed=9, **FAULTY)
        expected = check(History(ops))
        batches = batches_of(ops, 40)
        assert len(batches) >= 8
        durability = DurabilityManager(str(data_dir), fsync="never")
        seeded = SessionRegistry().open(SessionConfig(chunk_ops=32), "mixed")
        durability.open_session(seeded)
        durability.close()
        journal = wal_path(durability, "mixed")
        legacy = {"seq": 1, "ops": [encode_op(op) for op in batches[0]]}
        with open(journal, "wb") as fh:
            fh.write(
                json.dumps(legacy, separators=(",", ":")).encode("utf-8")
                + b"\n"
            )

        no_checkpoints = ("--checkpoint-every", "1000000")
        port = free_port()
        proc = spawn_daemon(data_dir, port, *no_checkpoints)
        try:
            with ServiceClient(f"127.0.0.1:{port}", timeout=30) as client:
                sid = client.open_session(session_id="mixed", resume=True)
                assert client._sessions[sid].next_seq == 2
                client.append(sid, batches[1])  # seq 2, as received
                client.append(sid, batches[2])  # seq 3, as received
                reply = client.request({
                    "type": "append", "session": sid,
                    "ops": encode_ops(batches[3]),
                })
                assert reply["seq"] == 4
                half = len(batches[3]) // 2
                reply = client.request({
                    "type": "append", "session": sid, "seq": 5,
                    "ops": encode_ops(batches[3][half:] + batches[4]),
                })
                assert reply["deduped"] == len(batches[3]) - half
            frame = b"\r".join([
                b'{"type":"append",', b'"session":"mixed",', b'"seq":6,',
                b'"ops":' + encode_frame(encode_ops(batches[5])).strip(),
            ]) + b"\r}\n"
            with socket.create_connection(("127.0.0.1", port), 30) as sock:
                sock.sendall(frame)
                with sock.makefile("rb") as replies:
                    reply = json.loads(replies.readline())
            assert reply["type"] == "appended", reply
            assert reply["applied_seq"] == 6
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            with open(journal, "rb") as fh:
                lines = fh.read().split(b"\n")
            assert lines[-1] == b""
            assert len(lines) == 7
            assert lines[0].startswith(b'{"seq":1,"ops":[')
            assert lines[1].startswith(b'{"type":"append"')
            assert lines[2].startswith(b'{"type":"append"')
            assert lines[3].startswith(b'{"seq":4,"ops":[')
            assert lines[4].startswith(b'{"seq":5,"ops":[')
            assert lines[5] == frame.strip()
            assert b"\r" in lines[5]

            proc = spawn_daemon(data_dir, port, *no_checkpoints)
            with ServiceClient(f"127.0.0.1:{port}", timeout=30) as client:
                sid = client.open_session(session_id="mixed", resume=True)
                assert client._sessions[sid].next_seq == 7
                acked = sum(len(batch) for batch in batches[:6])
                stats = client.stats(sid)
                assert stats["stats"]["ops_ingested"] == acked
                for batch in batches[6:]:
                    client.append(sid, batch)
                verdict = client.verdict(sid, report=True)
                assert verdict["report"] == expected.report()
                assert verdict["valid"] == expected.valid
                stats = client.stats(sid)
                assert stats["stats"]["ops_ingested"] == len(ops)
                client.close_session(sid)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_daemon(data_dir, port, *extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--data-dir", str(data_dir),
            "--checkpoint-every", "100", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    assert "listening on" in line, line
    return proc


class TestServeCrashRecovery:
    """A real daemon, a real ``kill -9``, a real restart."""

    def test_kill9_restart_resume_matches_batch(self, tmp_path):
        data_dir = tmp_path / "data"
        ops = session_workload(txns=150, seed=9, **FAULTY)
        expected = check(History(ops))
        batches = batches_of(ops, 60)
        port = free_port()
        proc = spawn_daemon(data_dir, port)
        try:
            acked = 0
            with ServiceClient(f"127.0.0.1:{port}", timeout=30) as client:
                client.open_session(
                    session_id="durable", chunk_ops=32, resume=True
                )
                for batch in batches[: len(batches) // 2]:
                    client.append("durable", batch)
                    acked += 1
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            port = free_port()
            proc = spawn_daemon(data_dir, port)
            with ServiceClient(
                f"127.0.0.1:{port}", timeout=30, retries=2
            ) as client:
                sid = client.open_session(session_id="durable", resume=True)
                assert sid == "durable"
                # The daemon remembers every acked batch across the kill.
                state = client._sessions[sid]
                assert state.next_seq == acked + 1
                # Re-send the whole stream: acked batches dedupe to no-ops.
                for index, batch in enumerate(batches):
                    reply = client.request({
                        "type": "append", "session": sid,
                        "seq": index + 1,
                        "ops": encode_ops(batch),
                    })
                    if index + 1 <= acked:
                        assert reply["ops"] == 0, index
                verdict = client.verdict(sid, report=True)
                assert verdict["report"] == expected.report()
                assert verdict["valid"] == expected.valid
                # No acked op lost, none doubled: the daemon's history is
                # exactly the stream.
                stats = client.stats(sid)
                assert stats["stats"]["ops_ingested"] == len(ops)
                client.close_session(sid)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)

    def test_client_retries_ride_through_a_restart(self, tmp_path):
        """With ``retries``, a mid-stream daemon death is invisible."""
        data_dir = tmp_path / "data"
        ops = session_workload(txns=120, seed=2)
        expected = check(History(ops))
        batches = batches_of(ops, 40)
        port = free_port()
        proc = spawn_daemon(data_dir, port)
        client = ServiceClient(
            f"127.0.0.1:{port}", timeout=30, retries=8, backoff=0.1
        )
        try:
            sid = client.open_session(session_id="ride", chunk_ops=25)
            client.append(sid, batches[0])
            # Kill and restart on the same port while the client idles.
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc = spawn_daemon(data_dir, port)
            # The client notices only inside its retry loop.
            for batch in batches[1:]:
                client.append(sid, batch)
            verdict = client.verdict(sid, report=True)
            assert verdict["report"] == expected.report()
            stats = client.stats(sid)
            assert stats["stats"]["resumed"] is True
            client.close_session(sid)
        finally:
            client.close()
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)
