"""Adversarial load: quotas, deficit scheduling, watermarks, shed opens.

The governance promise under test: a hostile mix — an elephant session
among mice, an open flood, a never-settling stream — degrades the daemon
*gracefully*.  Quotas refuse batches with structured errors instead of
poisoning; the deficit scheduler keeps expensive sessions from starving
cheap ones; the memory ladder retires, then evicts, then sheds — and a
shed carries ``retry_after`` so clients back off instead of hammering.
Every policy runs against the injectable registry clock, so these tests
drive time deterministically.
"""

import random

import pytest

from repro import History, check
from repro.errors import ServiceError
from repro.service.client import retry_delay, session_workload
from repro.service.session import Session, SessionConfig, SessionRegistry


def ops_for(txns=40, seed=0, rotating=False):
    return session_workload(
        txns=txns,
        seed=seed,
        max_writes_per_key=4 if rotating else None,
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TickingClock:
    """Every reading advances time: analysis slices appear to take
    ``step`` seconds each, deterministically."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestQuotas:
    def test_ops_quota_refuses_batch_without_poisoning(self):
        ops = ops_for(txns=60, seed=3)
        accepted, refused = ops[: len(ops) // 2], ops[len(ops) // 2 :]
        registry = SessionRegistry()
        session = registry.open(
            SessionConfig(max_ops=len(accepted) + len(refused) // 2), "q"
        )
        registry.append("q", accepted)
        with pytest.raises(ServiceError) as excinfo:
            registry.append("q", refused)
        assert excinfo.value.code == "quota"
        # The session survives the trip: still open, verdict intact.
        assert session.state == "open"
        assert session.quota_trips == 1
        registry.drain(session)
        update = session.verdict()
        batch = check(History(accepted))
        assert update.result.valid == batch.valid

    def test_analyze_seconds_quota_refuses_further_appends(self):
        clock = TickingClock(step=1.0)
        registry = SessionRegistry(clock=clock)
        session = registry.open(
            SessionConfig(chunk_ops=32, max_analyze_seconds=0.5), "t"
        )
        registry.append("t", ops_for(txns=10, seed=1))
        registry.drain(session)  # each slice "takes" >= 1 ticking second
        assert session.analyze_seconds >= 1.0
        with pytest.raises(ServiceError) as excinfo:
            registry.append("t", ops_for(txns=2, seed=2))
        assert excinfo.value.code == "quota"
        assert session.quota_trips == 1
        assert session.verdict().result.valid  # verdicts still answered

    def test_registry_default_limits_fill_unset_fields(self):
        registry = SessionRegistry(
            default_limits=SessionConfig(max_ops=10, retire_idle_txns=5)
        )
        plain = registry.open(session_id="plain")
        assert plain.config.max_ops == 10
        assert plain.config.retire_idle_txns == 5
        explicit = registry.open(SessionConfig(max_ops=99), "explicit")
        assert explicit.config.max_ops == 99  # explicit beats default
        assert explicit.config.retire_idle_txns == 5

    def test_config_validation(self):
        with pytest.raises(ServiceError, match="max_ops"):
            SessionConfig(max_ops=0)
        with pytest.raises(ServiceError, match="max_analyze_seconds"):
            SessionConfig(max_analyze_seconds=0)
        with pytest.raises(ServiceError, match="retire_idle_txns"):
            SessionConfig(retire_idle_txns=-1)


class TestDeficitScheduler:
    def test_indebted_session_sits_out_rotations(self):
        registry = SessionRegistry()
        registry.open(SessionConfig(chunk_ops=8), "a")
        registry.open(SessionConfig(chunk_ops=8), "b")
        registry.append("a", ops_for(txns=30, seed=1))
        registry.append("b", ops_for(txns=30, seed=2))
        # Session a just ran an elephant slice: 3.5 quanta of debt.  It
        # must sit out exactly three scheduling visits (one refill each)
        # while b keeps running.
        registry.get("a").deficit = -3.5 * registry.quantum_seconds
        order = [registry.run_slice()[0].id for _ in range(4)]
        assert order[:3] == ["b", "b", "b"]
        assert order[3] == "a"

    def test_work_conserving_when_every_session_is_in_debt(self):
        registry = SessionRegistry()
        registry.open(SessionConfig(chunk_ops=8), "only")
        registry.append("only", ops_for(txns=10, seed=1))
        registry.get("only").deficit = -1000.0
        # Deep in debt, but the only runnable session: it runs anyway.
        outcome = registry.run_slice()
        assert outcome is not None and outcome[0].id == "only"

    def test_credit_is_capped_at_one_quantum(self):
        registry = SessionRegistry()
        session = registry.open(SessionConfig(chunk_ops=8), "s")
        registry.append("s", ops_for(txns=30, seed=1))
        for _ in range(5):
            registry.run_slice()
        # Idle visits can't bank unbounded credit for a later elephant.
        assert session.deficit <= registry.quantum_seconds


class TestWatermarks:
    def test_pressure_retires_consenting_sessions_first(self):
        registry = SessionRegistry()
        # Consent with an effectively-infinite idle window: auto-retire
        # never fires during analysis, so rung one of the ladder is the
        # only thing that can shrink this session.
        session = registry.open(
            SessionConfig(chunk_ops=10_000, retire_idle_txns=10**6), "fat"
        )
        ops = ops_for(txns=200, seed=5, rotating=True)
        registry.append("fat", ops)
        registry.drain(session)
        before = session.resident_ops
        batch = check(History(ops))
        registry.max_resident_bytes = 1  # force pressure
        actions = registry.relieve_pressure()
        assert actions["retired_txns"] > 0
        assert registry.pressure_retired_txns == actions["retired_txns"]
        assert session.resident_ops < before
        # Retirement is memory relief, never semantics: the next verdict
        # is still the batch verdict.
        final = session.checker.extend(())
        assert final.result.valid == batch.valid
        assert [a.message for a in final.result.anomalies] == [
            a.message for a in batch.anomalies
        ]

    def test_pressure_evicts_coldest_when_retirement_insufficient(self):
        clock = FakeClock()
        registry = SessionRegistry(clock=clock)
        checkpointed = []
        registry.on_evict = lambda session: checkpointed.append(session.id)
        cold = registry.open(session_id="cold")
        registry.append("cold", ops_for(txns=20, seed=8))
        registry.drain(cold)
        clock.now = 50.0
        warm = registry.open(session_id="warm")
        registry.append("warm", ops_for(txns=20, seed=9))
        registry.drain(warm)
        registry.max_resident_bytes = 1
        actions = registry.relieve_pressure()
        # Neither consents to retirement, so rung two fires: coldest
        # first — and both go because the watermark is unreachable.
        assert actions["evicted"] == ["cold", "warm"]
        assert checkpointed == ["cold", "warm"]
        assert cold.closed and warm.closed
        assert registry.pressure_evictions == 2

    def test_pressure_never_evicts_without_a_checkpoint_hook(self):
        registry = SessionRegistry()
        session = registry.open(session_id="s")
        registry.append("s", ops_for(txns=20, seed=8))
        registry.drain(session)
        registry.max_resident_bytes = 1
        assert registry.overloaded()
        actions = registry.relieve_pressure()
        # No on_evict hook (non-durable daemon): eviction would destroy
        # state, so the ladder skips straight past rung two.
        assert actions["evicted"] == []
        assert "s" in registry.sessions

    def test_overloaded_open_is_shed_with_retry_after(self):
        registry = SessionRegistry(max_resident_bytes=None)
        survivor = registry.open(SessionConfig(chunk_ops=64), "survivor")
        registry.append("survivor", ops_for(txns=20, seed=7))
        registry.drain(survivor)
        registry.max_resident_bytes = 1
        for attempt in range(3):  # the open flood
            with pytest.raises(ServiceError) as excinfo:
                registry.open(session_id=f"flood-{attempt}")
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after > 0
        stats = registry.stats()
        assert stats["shed_opens"] == 3
        assert stats["est_bytes"] > 0
        # No neighbor poisoning: the resident session still answers.
        assert survivor.verdict().result.valid

    def test_never_settling_session_cannot_poison_its_neighbor(self):
        registry = SessionRegistry()
        # The never-settler consents to retirement but its static
        # keyspace never settles: nothing retires, memory grows.
        hog = registry.open(
            SessionConfig(chunk_ops=64, retire_idle_txns=10), "hog"
        )
        mouse = registry.open(
            SessionConfig(chunk_ops=64, retire_idle_txns=10), "mouse"
        )
        registry.append("hog", ops_for(txns=120, seed=11, rotating=False))
        mouse_ops = ops_for(txns=120, seed=12, rotating=True)
        registry.append("mouse", mouse_ops)
        while registry.has_work():
            registry.run_slice()
        # Rotating keyspace retires; static keyspace cannot — and that
        # difference stays contained to each session.
        assert mouse.txns_retired > 0
        assert mouse.resident_ops < len(mouse_ops)
        assert hog.retired_ops == 0
        assert hog.state == "open" and mouse.state == "open"
        batch = check(History(mouse_ops))
        assert mouse.verdict().result.valid == batch.valid


class TestClientBackoff:
    def test_decorrelated_jitter_spreads_delays(self):
        rng = random.Random(7)
        base, cap = 0.2, 5.0
        delays, previous = [], base
        for _ in range(50):
            previous = retry_delay(rng, base, previous, cap)
            delays.append(previous)
        assert all(base <= d <= cap for d in delays)
        # Jitter, not a ladder: every draw below the cap is distinct
        # (clamped draws legitimately collide at the cap itself).
        uncapped = [d for d in delays if d < cap]
        assert len(uncapped) >= 10
        assert len(set(uncapped)) == len(uncapped)
        ladder = [min(cap, base * 2**i) for i in range(len(delays))]
        assert delays != ladder
        # Deterministic under a seeded rng (the injection point).
        rng2 = random.Random(7)
        replay, previous = [], base
        for _ in range(50):
            previous = retry_delay(rng2, base, previous, cap)
            replay.append(previous)
        assert replay == delays

    def test_overloaded_reply_retries_after_server_hint(self, monkeypatch):
        from repro.service import client as client_module
        from repro.service.client import ServiceClient

        client = ServiceClient.__new__(ServiceClient)
        client.retries = 3
        client.backoff = 0.2
        client.max_backoff = 5.0
        client._rng = random.Random(1)
        attempts = []

        def exchange(frame):
            attempts.append(frame)
            if len(attempts) < 3:
                raise ServiceError(
                    "shed", code="overloaded", retry_after=0.01
                )
            return {"type": "opened", "session": "s"}

        client._exchange = exchange
        slept = []
        monkeypatch.setattr(client_module.time, "sleep", slept.append)
        reply = client.request({"type": "open", "session": "s"})
        assert reply["type"] == "opened"
        # The server's retry_after took precedence over local backoff.
        assert slept == [0.01, 0.01]

    def test_non_overloaded_errors_never_retry(self, monkeypatch):
        from repro.service import client as client_module
        from repro.service.client import ServiceClient

        client = ServiceClient.__new__(ServiceClient)
        client.retries = 3
        client.backoff = 0.2
        client.max_backoff = 5.0
        client._rng = random.Random(1)
        calls = []

        def exchange(frame):
            calls.append(frame)
            raise ServiceError("nope", code="quota")

        client._exchange = exchange
        monkeypatch.setattr(client_module.time, "sleep", lambda _s: None)
        with pytest.raises(ServiceError) as excinfo:
            client.request({"type": "append"})
        assert excinfo.value.code == "quota"
        assert len(calls) == 1  # structured refusals are not transient


class TestWireGovernance:
    """The wire view: ping, counters, quota errors, the triangle."""

    @staticmethod
    async def _request(reader, writer, frame):
        from repro.service.protocol import decode_frame, encode_frame

        writer.write(encode_frame(frame))
        await writer.drain()
        return decode_frame(await reader.readline())

    def test_ping_and_governance_counters(self):
        import asyncio

        from repro.service import CheckerService
        from repro.service.protocol import encode_ops

        ops = ops_for(txns=80, seed=21, rotating=True)

        async def main():
            registry = SessionRegistry()
            service = CheckerService(registry, port=0)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            pong = await self._request(reader, writer, {"type": "ping"})
            await self._request(reader, writer, {
                "type": "open", "session": "g", "chunk": 64,
                "retire_idle_txns": 20,
            })
            await self._request(reader, writer, {
                "type": "append", "session": "g", "ops": encode_ops(ops),
            })
            await self._request(
                reader, writer, {"type": "verdict", "session": "g"}
            )
            stats = await self._request(reader, writer, {"type": "stats"})
            per = await self._request(
                reader, writer, {"type": "stats", "session": "g"}
            )
            writer.close()
            record = await service.drain()
            return pong, stats, per, record

        pong, stats, per, record = asyncio.run(main())
        assert pong["type"] == "pong"
        assert pong["draining"] is False
        assert pong["overloaded"] is False
        assert "est_bytes" in pong and "sessions" in pong
        server = stats["server"]
        for counter in (
            "resident_ops", "retired_ops", "est_bytes", "shed_opens",
            "quota_trips", "pressure_retired_txns", "pressure_evictions",
        ):
            assert counter in server, counter
        assert server["retired_ops"] > 0  # auto-retire actually ran
        session_stats = per["stats"]
        assert session_stats["retired_ops"] > 0
        assert session_stats["resident_ops"] + session_stats[
            "retired_ops"
        ] == len(ops)
        assert "deficit" in session_stats
        # The window each chunk re-checks, beside the block it never does.
        assert session_stats["frozen_edges"] > 0
        assert 0 <= session_stats["live_txns"] < len(ops) // 2
        # The final stats snapshot (what --stats-json writes) carries the
        # same governance counters.
        assert "retired_ops" in record["server"]

    def test_quota_trip_on_the_wire_is_structured(self):
        import asyncio

        from repro.service import CheckerService
        from repro.service.protocol import encode_ops

        ops = ops_for(txns=60, seed=23)

        async def main():
            service = CheckerService(SessionRegistry(), port=0)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await self._request(reader, writer, {
                "type": "open", "session": "q", "max_ops": 100,
            })
            refused = await self._request(reader, writer, {
                "type": "append", "session": "q",
                "ops": encode_ops(ops[:150]),
            })
            accepted = await self._request(reader, writer, {
                "type": "append", "session": "q",
                "ops": encode_ops(ops[:80]),
            })
            verdict = await self._request(
                reader, writer, {"type": "verdict", "session": "q"}
            )
            writer.close()
            await service.drain()
            return refused, accepted, verdict

        refused, accepted, verdict = asyncio.run(main())
        assert refused["type"] == "error"
        assert refused["code"] == "quota"
        assert accepted["type"] == "appended" and accepted["ops"] == 80
        assert verdict["type"] == "verdict"  # session survived the trip


class TestRetirementTriangle:
    """Eviction x durability x retirement: the three compose."""

    def test_evicted_retired_durable_session_resumes_byte_identical(
        self, tmp_path
    ):
        import asyncio

        from repro.service import CheckerService, DurabilityManager
        from repro.service.protocol import encode_ops

        ops = ops_for(txns=150, seed=31, rotating=True)
        expected = check(History(ops))

        async def main():
            durability = DurabilityManager(str(tmp_path), fsync="never")
            registry = SessionRegistry(idle_timeout=10.0)
            service = CheckerService(registry, port=0, durability=durability)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            request = TestWireGovernance._request
            await request(reader, writer, {
                "type": "open", "session": "tri", "chunk": 32,
                "retire_idle_txns": 25,
            })
            await request(reader, writer, {
                "type": "append", "session": "tri", "seq": 1,
                "ops": encode_ops(ops),
            })
            first = await request(reader, writer, {
                "type": "verdict", "session": "tri", "report": True,
            })
            before = await request(reader, writer, {
                "type": "stats", "session": "tri",
            })
            # Idle-evict the retired session: the eviction checkpoint
            # pickles a checker whose prefix is already retired.
            far_future = registry.clock() + 1_000.0
            assert registry.evict_idle(now=far_future) == ["tri"]
            reopened = await request(reader, writer, {
                "type": "open", "session": "tri",
            })
            second = await request(reader, writer, {
                "type": "verdict", "session": "tri", "report": True,
            })
            after = await request(reader, writer, {
                "type": "stats", "session": "tri",
            })
            writer.close()
            await service.drain()
            return first, before, reopened, second, after

        first, before, reopened, second, after = asyncio.run(main())
        assert before["stats"]["retired_ops"] > 0  # retirement happened
        assert reopened["resumed"] is True
        # The restored verdict is byte-identical to batch — retirement,
        # checkpointing, and eviction composed without changing a thing.
        assert first["valid"] == second["valid"] == expected.valid
        assert second["report"] == expected.report()
        assert first["report"] == second["report"]
        # The restored checker is still retired, not silently rehydrated.
        assert after["stats"]["retired_ops"] == before["stats"]["retired_ops"]
        assert after["stats"]["resident_ops"] == len(ops) - after["stats"][
            "retired_ops"
        ]
