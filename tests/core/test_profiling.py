"""Tests for the per-stage profiler and its CLI surface.

The profiler is load-bearing in two ways: benchmark records store its
``as_dict()`` snapshot, and its counters double as behavioural assertions
(SCC run counts, streaming cache hit rates, index interning sizes).  These
tests pin the accumulation semantics, the report format, and the
``--profile`` CLI flag end to end.
"""

import time

from repro import check
from repro.__main__ import main
from repro.core import Profile
from repro.core.profiling import stage
from repro.scenarios import figure4_history


class TestProfile:
    def test_stage_records_elapsed_time(self):
        profile = Profile()
        with profile.stage("work"):
            time.sleep(0.01)
        assert profile.stages["work"] >= 0.005

    def test_reentering_a_stage_accumulates(self):
        profile = Profile()
        for _ in range(3):
            with profile.stage("loop"):
                time.sleep(0.002)
        assert list(profile.stages) == ["loop"]
        assert profile.stages["loop"] >= 0.004

    def test_stages_nest_and_keep_first_entry_order(self):
        profile = Profile()
        with profile.stage("outer"):
            with profile.stage("inner"):
                pass
        with profile.stage("later"):
            pass
        # Stages are recorded as they *finish*: inner completes first.
        assert list(profile.stages) == ["inner", "outer", "later"]
        # The inner stage's time is also inside the outer stage's.
        assert profile.stages["outer"] >= profile.stages["inner"]

    def test_stage_records_time_when_the_block_raises(self):
        profile = Profile()
        try:
            with profile.stage("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "failing" in profile.stages

    def test_counters_accumulate(self):
        profile = Profile()
        profile.count("hits")
        profile.count("hits", 4)
        profile.count("misses", 0)
        assert profile.counters == {"hits": 5, "misses": 0}

    def test_as_dict_is_json_shaped(self):
        profile = Profile()
        with profile.stage("a"):
            pass
        profile.count("n", 2)
        snapshot = profile.as_dict()
        assert set(snapshot) == {"stages_ms", "counters"}
        assert snapshot["counters"] == {"n": 2}
        assert snapshot["stages_ms"]["a"] >= 0.0

    def test_report_lists_stages_and_counters(self):
        profile = Profile()
        with profile.stage("alpha"):
            pass
        profile.count("beta", 7)
        report = profile.report()
        assert report.startswith("profile:")
        assert "alpha" in report
        assert "ms" in report
        assert "counters:" in report
        assert "beta" in report and "7" in report

    def test_stage_helper_is_noop_without_profile(self):
        with stage(None, "anything"):
            pass  # must not raise, and there is nothing to record

    def test_stage_helper_delegates_to_profile(self):
        profile = Profile()
        with stage(profile, "named"):
            pass
        assert "named" in profile.stages


class TestCheckProfiling:
    def test_check_populates_pipeline_stages_and_counters(self):
        history = figure4_history(300, 4)
        history._index = None  # force a fresh, profiled index build
        profile = Profile()
        result = check(history, profile=profile)
        assert result.valid
        for name in (
            "analyze",
            "analyze/index",
            "index/scan",
            "analyze/columnar-screen",
            "analyze/fallback",
            "analyze/merge",
            "analyze/orders",
            "freeze",
            "cycle-search",
        ):
            assert name in profile.stages, name
        assert "analyze/keys" not in profile.stages
        assert profile.counters["index.txns"] == len(history.transactions)
        assert profile.counters["index.keys"] == len(history.index().slices)
        assert profile.counters["index.interned_values"] > 0
        assert profile.counters["graph.nodes"] > 0
        # Sub-stages are contained in their parents.
        assert (
            profile.stages["analyze"]
            >= profile.stages["analyze/columnar-screen"]
        )
        assert profile.stages["analyze/index"] >= profile.stages["index/scan"]

    def test_cached_index_records_no_build_stages(self):
        history = figure4_history(300, 4)
        history.index()  # warm the cache outside any profile
        profile = Profile()
        check(history, profile=profile)
        assert "index/scan" not in profile.stages


class TestColumnarProfiling:
    """The whole-index screen reports its stages and key accounting."""

    def test_list_append_screen_stages_and_key_accounting(self):
        history = figure4_history(600, 4)
        history._index = None
        profile = Profile()
        result = check(history, profile=profile)
        assert result.valid
        assert "analyze/columnar-screen" in profile.stages
        assert "analyze/fallback" in profile.stages
        assert "analyze/merge" in profile.stages
        # The screen replaces the per-key plan loop entirely.
        assert "analyze/keys" not in profile.stages
        counters = profile.counters
        assert counters["keyspace.columnar_keys"] > 0
        assert (
            counters["keyspace.columnar_keys"]
            + counters["keyspace.fallback_keys"]
            == counters["keyspace.keys"]
        )
        assert counters["keyspace.survivor_reads"] >= 0

    def test_rw_register_screen_stages_and_key_accounting(self):
        history = figure4_history(600, 4, workload="rw-register")
        history._index = None
        profile = Profile()
        result = check(history, workload="rw-register", profile=profile)
        assert result.valid
        # Registers run one whole-index pass too: no per-key plan loop.
        assert "analyze/columnar-screen" in profile.stages
        assert "analyze/keys" not in profile.stages
        counters = profile.counters
        assert counters["keyspace.columnar_keys"] == counters["keyspace.keys"]
        assert counters["keyspace.fallback_keys"] == 0
        assert counters["keyspace.survivor_reads"] == 0

    def test_sharded_list_append_check_starts_no_pool(self):
        # ``check`` accepts and ignores ``shards``: the check runs its
        # whole-index pass in process and reports no pool.
        history = figure4_history(600, 4)
        profile = Profile()
        assert check(history, shards=2, profile=profile).valid
        assert "keyspace.shards" not in profile.counters
        assert "analyze/columnar-screen" in profile.stages

    def test_small_histories_run_the_screen(self):
        # No size cut-over: a few dozen transactions take the same
        # whole-index pass as the largest history.
        history = figure4_history(30, 4)
        history._index = None
        profile = Profile()
        check(history, profile=profile)
        assert "analyze/columnar-screen" in profile.stages
        assert "analyze/keys" not in profile.stages
        assert profile.counters["keyspace.columnar_keys"] > 0


class TestProfileCLI:
    def test_profile_flag_prints_stage_table(self, capsys):
        code = main(["--quiet", "--txns", "100", "--seed", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "analyze" in out
        assert "counters:" in out

    def test_profile_flag_surfaces_columnar_screen_stage(self, capsys):
        code = main(["--quiet", "--txns", "600", "--seed", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analyze/columnar-screen" in out
        assert "keyspace.columnar_keys" in out

    def test_without_flag_no_profile_output(self, capsys):
        code = main(["--quiet", "--txns", "100", "--seed", "1"])
        assert code == 0
        assert "profile:" not in capsys.readouterr().out

    def test_profile_flag_with_streaming_follow(self, tmp_path, capsys):
        dump = tmp_path / "history.jsonl"
        code = main(
            [
                "--quiet",
                "--txns",
                "200",
                "--seed",
                "2",
                "--dump-history",
                str(dump),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "--quiet",
                "--profile",
                "--follow",
                "--chunk",
                "100",
                "--in",
                str(dump),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "stream/ingest" in out
