"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, build_serve_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "list-append"
        assert args.isolation == "serializable"
        assert args.model == "serializable"

    def test_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--fault", "cosmic-rays"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "acid"])


class TestMain:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["--quiet", "--txns", "100", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VALID" in out

    def test_buggy_run_exits_nonzero(self, capsys):
        code = main([
            "--quiet",
            "--txns", "500",
            "--isolation", "snapshot-isolation",
            "--fault", "tidb-retry",
            "--model", "snapshot-isolation",
            "--seed", "3",
        ])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_full_report_contains_explanations(self, capsys):
        code = main([
            "--txns", "500",
            "--isolation", "snapshot-isolation",
            "--fault", "tidb-retry",
            "--model", "snapshot-isolation",
            "--seed", "3",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "because" in out

    def test_windowed_fault(self, capsys):
        code = main([
            "--quiet",
            "--txns", "400",
            "--isolation", "serializable",
            "--fault", "yugabyte-stale-read",
            "--fault-window", "100",
            "--model", "strict-serializable",
            "--seed", "3",
        ])
        # The windowed stale reads violate strict serializability.
        assert code == 1

    def test_register_workload(self, capsys):
        code = main([
            "--quiet",
            "--workload", "rw-register",
            "--txns", "200",
            "--seed", "5",
        ])
        assert code == 0

    def test_timestamps_flag(self, capsys):
        code = main([
            "--quiet",
            "--txns", "200",
            "--isolation", "snapshot-isolation",
            "--model", "snapshot-isolation",
            "--timestamps",
            "--seed", "7",
        ])
        assert code == 0

    def test_dump_and_reload_history(self, tmp_path, capsys):
        path = tmp_path / "observation.jsonl"
        code = main([
            "--quiet",
            "--txns", "150",
            "--seed", "9",
            "--dump-history", str(path),
        ])
        generated = capsys.readouterr().out
        assert code == 0
        assert path.exists()
        code = main(["--quiet", "--in", str(path)])
        reloaded = capsys.readouterr().out
        assert code == 0
        assert reloaded == generated

    def test_profile_times_the_load(self, tmp_path, capsys):
        path = tmp_path / "observation.jsonl"
        main(["--quiet", "--txns", "50", "--dump-history", str(path)])
        capsys.readouterr()
        assert main(["--quiet", "--profile", "--in", str(path)]) == 0
        stages = capsys.readouterr().out.split("profile:")[1].split()
        assert stages[0] == "history/load"
        assert "index/scan" in stages

    def test_faulty_history_survives_the_wire(self, tmp_path, capsys):
        path = tmp_path / "faulty.jsonl"
        args = [
            "--txns", "500",
            "--isolation", "snapshot-isolation",
            "--fault", "tidb-retry",
            "--model", "snapshot-isolation",
            "--seed", "3",
        ]
        code = main(args + ["--dump-history", str(path)])
        direct = capsys.readouterr().out
        assert code == 1
        code = main(["--in", str(path), "--model", "snapshot-isolation"])
        reloaded = capsys.readouterr().out
        assert code == 1
        assert reloaded == direct


class TestFollowMode:
    def test_follow_matches_batch_verdict(self, tmp_path, capsys):
        path = tmp_path / "observation.jsonl"
        args = [
            "--txns", "400",
            "--isolation", "snapshot-isolation",
            "--fault", "tidb-retry",
            "--model", "snapshot-isolation",
            "--seed", "3",
        ]
        code = main(args + ["--dump-history", str(path)])
        batch = capsys.readouterr().out
        assert code == 1
        code = main([
            "--in", str(path),
            "--model", "snapshot-isolation",
            "--follow", "--chunk", "150",
        ])
        followed = capsys.readouterr().out
        assert code == 1
        # Per-chunk progress lines precede the batch-identical final report.
        assert followed.count("chunk ") >= 3
        assert followed.endswith(batch) or batch.strip() in followed

    def test_follow_from_stdin(self, tmp_path, capsys, monkeypatch):
        import io as _io

        path = tmp_path / "observation.jsonl"
        code = main(["--quiet", "--txns", "100", "--seed", "7",
                     "--dump-history", str(path)])
        capsys.readouterr()
        assert code == 0
        monkeypatch.setattr(
            "sys.stdin", _io.StringIO(path.read_text(encoding="utf-8"))
        )
        code = main(["--quiet", "--follow", "--chunk", "64", "--in", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VALID" in out

    def test_follow_generated_workload(self, capsys):
        code = main(["--txns", "120", "--seed", "5",
                     "--follow", "--chunk", "90"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chunk 1:" in out and "VALID" in out

    def test_follow_rejects_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["--follow", "--shards", "2"])

    def test_rejects_nonpositive_chunk(self, capsys):
        with pytest.raises(SystemExit):
            main(["--follow", "--chunk", "0"])


class TestInputErrors:
    """Bad input exits 2 with one ``error:`` line; 1 is kept for INVALID."""

    @pytest.fixture
    def malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        assert main(["--quiet", "--txns", "5", "--dump-history", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        del record["index"]
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def assert_input_error(capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_malformed_history_batch(self, malformed, capsys):
        capsys.readouterr()
        code = main(["--quiet", "--in", str(malformed)])
        self.assert_input_error(capsys, code)

    def test_malformed_history_follow(self, malformed, capsys):
        capsys.readouterr()
        code = main(["--quiet", "--follow", "--in", str(malformed)])
        self.assert_input_error(capsys, code)

    def test_missing_input_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        self.assert_input_error(capsys, main(["--quiet", "--in", missing]))
        self.assert_input_error(
            capsys, main(["--quiet", "--follow", "--in", missing])
        )

    def test_negative_txns(self, capsys):
        self.assert_input_error(capsys, main(["--quiet", "--txns", "-3"]))

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_rejects_nonpositive_fault_window(self, window, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--fault", "tidb-retry", "--fault-window", window])
        assert excinfo.value.code == 2
        assert "--fault-window must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["0", "-1"])
    def test_rejects_nonpositive_shards(self, shards, capsys):
        # No --shards value is accepted: analysis runs in one process and
        # there is no worker pool to size.
        with pytest.raises(SystemExit) as excinfo:
            main(["--shards", shards])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err


class TestFollowJson:
    """--json: per-chunk verdict deltas in the service's record shape."""

    def test_json_lines_are_verdict_records(self, tmp_path, capsys):
        path = tmp_path / "observation.jsonl"
        args = [
            "--txns", "400",
            "--isolation", "snapshot-isolation",
            "--fault", "tidb-retry",
            "--model", "snapshot-isolation",
            "--seed", "3",
        ]
        code = main(["--quiet"] + args + ["--dump-history", str(path)])
        capsys.readouterr()
        assert code == 1
        code = main([
            "--in", str(path),
            "--model", "snapshot-isolation",
            "--follow", "--chunk", "150", "--json", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 1
        records = [
            json.loads(line)
            for line in out.splitlines()
            if line.startswith("{")
        ]
        assert len(records) >= 3  # one per chunk
        for record in records:
            assert record["type"] == "verdict"
            assert record["model"] == "snapshot-isolation"
            assert set(record) >= {
                "chunk", "ops", "txns", "valid", "anomalies",
                "anomaly_types", "new_anomalies", "resolved",
                "reanalyzed_keys", "reused_keys",
            }
        assert [r["chunk"] for r in records] == list(
            range(1, len(records) + 1)
        )
        assert records[-1]["valid"] is False
        # The records are exactly the service's verdict replies (minus
        # the session id the daemon adds): re-stream the same chunks and
        # compare each printed line to update_record() of that chunk.
        from repro.core.incremental import StreamingChecker
        from repro.history import iter_op_chunks
        from repro.service.protocol import update_record

        checker = StreamingChecker(consistency_model="snapshot-isolation")
        with open(path, encoding="utf-8") as fh:
            expected = [
                update_record(checker.extend(chunk))
                for chunk in iter_op_chunks(fh, 150)
            ]
        assert records == expected

    def test_json_summary_parity(self, capsys):
        """The JSON lines carry what the text summary narrates."""
        code = main(["--txns", "120", "--seed", "5",
                     "--follow", "--chunk", "90", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        records = [
            json.loads(line) for line in out.splitlines()
            if line.startswith("{")
        ]
        assert records and all(r["valid"] for r in records)

    def test_json_requires_follow_or_connect(self, capsys):
        with pytest.raises(SystemExit):
            main(["--json", "--txns", "10"])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_serve_parser().parse_args(["--port", "7907"])
        assert args.port == 7907
        assert args.max_sessions == 64
        assert args.max_pending_ops == 50_000
        assert args.idle_timeout == 300.0

    def test_serve_requires_a_listener(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_rejects_nonpositive_chunk(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "7907", "--chunk", "0"])

    def test_connect_rejects_shards_and_profile(self, capsys):
        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:7907", "--shards", "2"])
        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:7907", "--profile"])

    def test_connect_refused_when_no_daemon(self, capsys):
        # Port 1 is never listening; the client fails loudly, not silently.
        with pytest.raises(OSError):
            main(["--quiet", "--txns", "10",
                  "--connect", "127.0.0.1:1"])
