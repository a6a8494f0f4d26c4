"""Telemetry end to end: a live daemon scraped, frame-polled, and traced.

Everything here runs against a real :class:`BackgroundService` with a
real :class:`~repro.obs.MetricsExporter` on an ephemeral port — the
pinned e2e claim is that an operator's ``curl`` of a loaded daemon sees
the documented series, not that the registry works in isolation (the
unit tests in ``tests/obs/`` cover that).
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import EventLog, Observability
from repro.service import BackgroundService, DurabilityManager, ServiceClient
from repro.service.client import session_workload


def fetch(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def drive_session(address, *, session_id="obs-1", txns=60, seed=3):
    ops = session_workload(txns=txns, seed=seed)
    with ServiceClient(address) as client:
        client.open_session(session_id=session_id, chunk_ops=50)
        for start in range(0, len(ops), 40):
            client.append(session_id, ops[start:start + 40])
        verdict = client.verdict(session_id)
        return client, verdict, len(ops)


class TestLiveScrape:
    def test_loaded_daemon_exposes_documented_series(self):
        obs = Observability.enabled(slow_chunk_ms=10_000.0)
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            _, verdict, op_count = drive_session(bg.tcp_address)
            assert verdict["type"] == "verdict"
            status, content_type, body = fetch(
                bg.metrics_address + "/metrics"
            )
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        # The series an operator's alert rules would reference.
        assert 'repro_frames_total{type="append"}' in body
        assert 'repro_frames_total{type="open"} 1' in body
        assert (
            f'repro_ops_ingested_total{{session="obs-1"}} {op_count}'
            in body
        )
        assert 'repro_chunks_checked_total{session="obs-1"}' in body
        assert (
            'repro_chunk_analyze_seconds_bucket'
            '{session="obs-1",le="+Inf"}' in body
        )
        assert "repro_sessions_opened_total 1" in body
        assert "repro_sessions_open 1" in body
        assert "repro_uptime_seconds" in body
        assert "repro_wal_appends_total 0" in body  # family pre-registered
        assert "repro_metrics_series_dropped_total 0" in body
        # Every line is HELP, TYPE, or a sample — valid exposition text.
        for line in body.splitlines():
            assert line.startswith("#") or " " in line

    def test_healthz_and_traces_endpoints(self):
        obs = Observability.enabled()
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            drive_session(bg.tcp_address)
            status, content_type, body = fetch(
                bg.metrics_address + "/healthz"
            )
            assert status == 200
            health = json.loads(body)
            assert health["ok"] is True
            assert health["type"] == "pong"
            status, content_type, body = fetch(
                bg.metrics_address + "/traces?session=obs-1&limit=2"
            )
            assert status == 200
            assert content_type.startswith("application/json")
            traces = json.loads(body)
            assert 0 < len(traces) <= 2
            for trace in traces:
                assert trace["session"] == "obs-1"
                assert trace["spans"][-1]["name"] == "analyze"
            # decode/buffer pre-spans from the frame plane made it in.
            names = {
                span["name"]
                for trace in traces
                for span in trace["spans"]
            }
            assert "decode" in names
            assert "wal" not in names  # no journal without --data-dir

    def test_traced_durable_chunk_carries_every_stage(self, tmp_path):
        """A durable daemon's chunk trace spans decode, WAL, buffer and
        analysis, in that order."""
        obs = Observability.enabled()
        durability = DurabilityManager(str(tmp_path), fsync="never")
        with BackgroundService(port=0, obs=obs, durability=durability) as bg:
            drive_session(bg.tcp_address)
            traces = obs.tracer.snapshot(session="obs-1")
        stages = [
            [span["name"] for span in trace["spans"]] for trace in traces
        ]
        for names in stages:
            # Each append parks its three spans; the chunk adds analyze.
            appends = (len(names) - 1) // 3
            assert names == ["decode", "wal", "buffer"] * appends + [
                "analyze"
            ], stages
        assert any(len(names) > 1 for names in stages), stages

    def test_unknown_route_404_and_bad_limit_400(self):
        obs = Observability.enabled()
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(bg.metrics_address + "/nope")
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(bg.metrics_address + "/traces?limit=banana")
            assert excinfo.value.code == 400

    def test_concurrent_scrapes_during_load_and_drain(self):
        """Scrapes from other threads interleave with frame traffic, and
        the exporter keeps answering until the drain's final stats."""
        obs = Observability.enabled()
        errors = []
        bodies = []
        stop = threading.Event()

        def scrape_loop(address):
            while not stop.is_set():
                try:
                    status, _, body = fetch(address + "/metrics")
                    assert status == 200
                    bodies.append(body)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            scraper = threading.Thread(
                target=scrape_loop, args=(bg.metrics_address,)
            )
            scraper.start()
            try:
                for round_ in range(3):
                    drive_session(
                        bg.tcp_address,
                        session_id=f"scrape-{round_}",
                        txns=40,
                        seed=round_,
                    )
            finally:
                stop.set()
                scraper.join()
        assert not errors
        assert bodies and all("repro_frames_total" in b for b in bodies)
        # Draining: the exporter has stopped with the daemon.
        with pytest.raises(OSError):
            fetch(bg.metrics_address + "/metrics", timeout=1.0)


class TestWireAndStats:
    def test_metrics_frame_mirrors_the_scrape(self):
        obs = Observability.enabled()
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.open_session(session_id="wire", chunk_ops=50)
                client.append("wire", session_workload(txns=30, seed=1))
                reply = client.request({"type": "metrics"})
        assert reply["type"] == "metrics"
        assert reply["enabled"] is True
        assert reply["uptime_seconds"] >= 0
        assert reply["scrape_address"] == bg.metrics_address
        families = reply["families"]
        ingested = families["repro_ops_ingested_total"]["samples"]
        assert ingested[0]["labels"] == {"session": "wire"}
        assert ingested[0]["value"] > 0
        buckets = families["repro_chunk_analyze_seconds"]["samples"]
        assert all("+Inf" in sample["buckets"] for sample in buckets)
        assert reply["traces"]["chunks_traced"] >= 0

    def test_metrics_frame_reports_disabled_without_obs(self):
        with BackgroundService(port=0) as bg:
            with ServiceClient(bg.tcp_address) as client:
                reply = client.request({"type": "metrics"})
        assert reply == {"type": "metrics", "enabled": False}

    def test_stats_carry_uptime_and_latency_digest(self):
        obs = Observability.enabled()
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.open_session(session_id="s", chunk_ops=50)
                client.append("s", session_workload(txns=60, seed=2))
                client.verdict("s")
                stats = client.stats()
        assert stats["uptime_seconds"] > 0
        assert stats["started_at"] > 0
        assert stats["metrics_address"] == bg.metrics_address
        digest = stats["sessions"]["s"]["last_chunk_ms"]
        assert set(digest) == {"p50", "p95", "p99"}
        assert digest["p50"] <= digest["p95"] <= digest["p99"]

    def test_stats_digest_present_without_obs_too(self):
        # The window is plain session bookkeeping, not gated on obs.
        with BackgroundService(port=0) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.open_session(session_id="s", chunk_ops=50)
                client.append("s", session_workload(txns=60, seed=2))
                client.verdict("s")
                stats = client.stats("s")
        assert stats["stats"]["last_chunk_ms"]["p99"] > 0

    def test_client_metrics_snapshot(self):
        with BackgroundService(port=0) as bg:
            with ServiceClient(bg.tcp_address) as client:
                client.open_session(session_id="c", chunk_ops=50)
                ops = session_workload(txns=40, seed=5)
                client.append("c", ops[:100])
                client.append("c", ops[100:])
                client.verdict("c")
                snapshot = client.metrics
        assert snapshot["appends"] == 2
        assert snapshot["requests"] >= 4  # open + appends + verdict
        assert snapshot["retries"] == 0
        assert snapshot["redials"] == 0
        assert snapshot["sessions_resumed"] == 0
        assert snapshot["backoff_seconds"] == 0
        assert snapshot["append_ms"]["p50"] > 0
        assert (
            snapshot["append_ms"]["p50"]
            <= snapshot["append_ms"]["p99"]
        )


class TestEventLogE2E:
    def test_daemon_lifecycle_lands_in_the_event_log(self):
        stream = io.StringIO()
        obs = Observability.enabled(
            events=EventLog(stream), slow_chunk_ms=0.0001
        )
        with BackgroundService(port=0, obs=obs, metrics_port=0) as bg:
            drive_session(bg.tcp_address)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        names = [record["event"] for record in records]
        assert names[0] == "serve-start"
        assert "session-open" in names
        assert "slow-chunk" in names  # threshold set absurdly low
        assert "drain-begin" in names
        assert names[-1] == "drain-complete"
        for record in records:
            assert set(record) >= {"ts", "level", "event"}
        slow = next(r for r in records if r["event"] == "slow-chunk")
        assert slow["session"] == "obs-1"
        assert slow["spans"][-1]["name"] == "analyze"
