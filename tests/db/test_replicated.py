"""Tests for the replicated PSI substrate and its long forks."""

import pytest

from repro import check
from repro.core import RW, find_cycle_anomalies
from repro.core.objects import AppendList
from repro.db import ConflictAbort
from repro.db.replicated import ReplicatedDatabase
from repro.generator import RunConfig, WorkloadConfig, run_workload
from repro.history import HistoryBuilder, append, r


def make_db(lag=5, sites=2):
    return ReplicatedDatabase(AppendList(), sites=sites, replication_lag=lag)


class TestProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicatedDatabase(AppendList(), sites=0)
        with pytest.raises(ValueError):
            ReplicatedDatabase(AppendList(), replication_lag=-1)

    def test_site_range_checked(self):
        db = make_db()
        with pytest.raises(ValueError, match="out of range"):
            db.begin(site=7)

    def test_local_commit_immediately_visible_locally(self):
        db = make_db(lag=5)
        t = db.begin(site=0)
        db.execute(t, append("x", 1))
        db.commit(t)
        reader = db.begin(site=0)
        assert db.execute(reader, r("x")).value == (1,)

    def test_remote_commit_lags(self):
        db = make_db(lag=5)
        t = db.begin(site=0)
        db.execute(t, append("x", 1))
        db.commit(t)
        remote = db.begin(site=1)
        assert db.execute(remote, r("x")).value == ()

    def test_remote_commit_visible_after_lag(self):
        db = make_db(lag=2)
        t = db.begin(site=0)
        db.execute(t, append("x", 1))
        db.commit(t)  # seq 1, visible at site 1 from seq 3
        for i in range(3):
            filler = db.begin(site=0)
            db.execute(filler, append("fill", 10 + i))
            db.commit(filler)
        late = db.begin(site=1)  # start_seq = 4 >= 3
        assert db.execute(late, r("x")).value == (1,)

    def test_read_own_writes(self):
        db = make_db()
        t = db.begin(site=1)
        db.execute(t, append("x", 1))
        assert db.execute(t, r("x")).value == (1,)

    def test_write_over_unseen_version_aborts(self):
        db = make_db(lag=5)
        t0 = db.begin(site=0)
        db.execute(t0, append("x", 1))
        db.commit(t0)
        # Site 1 can't see x's latest version yet: writing x must abort
        # (PSI forbids lost updates).
        t1 = db.begin(site=1)
        db.execute(t1, append("x", 2))
        with pytest.raises(ConflictAbort, match="unseen version"):
            db.commit(t1)

    def test_lag_zero_behaves_like_si(self):
        db = make_db(lag=0)
        t0 = db.begin(site=0)
        db.execute(t0, append("x", 1))
        db.commit(t0)
        t1 = db.begin(site=1)
        assert db.execute(t1, r("x")).value == (1,)

    def test_abort_counts(self):
        db = make_db()
        t = db.begin(site=0)
        db.abort(t)
        assert db.aborts == 1


class TestLongFork:
    def observe(self):
        """The paper's §1 long fork, produced by actual replication lag."""
        db = make_db(lag=5)
        b = HistoryBuilder()

        def run(process, site, mops):
            txn = db.begin(site=site)
            executed = [db.execute(txn, m) for m in mops]
            db.commit(txn)
            b.invoke(process, mops)
            b.ok(process, executed)

        run(0, 0, [append("x", 1)])
        run(1, 1, [append("y", 1)])
        run(2, 0, [r("x"), r("y")])  # sees x, not y
        run(3, 1, [r("x"), r("y")])  # sees y, not x
        return b.build()

    def test_opposite_observations(self):
        h = self.observe()
        r0 = h.transactions[2]
        r1 = h.transactions[3]
        assert [m.value for m in r0.mops] == [(1,), ()]
        assert [m.value for m in r1.mops] == [(), (1,)]

    def test_elle_finds_g2(self):
        h = self.observe()
        result = check(
            h,
            consistency_model="serializable",
            realtime_edges=False,
            process_edges=False,
        )
        assert not result.valid
        assert "G2-item" in result.anomaly_types

    def test_cycle_has_two_antidependencies(self):
        from repro.core import analyze

        h = self.observe()
        analysis = analyze(
            h, workload="list-append", process_edges=False, realtime_edges=False
        )
        cycles = find_cycle_anomalies(analysis.graph)
        g2 = next(c for c in cycles if c.name == "G2-item")
        assert sum(1 for _u, _v, bit in g2.steps if bit == RW) >= 2


class TestRunnerIntegration:
    def run_psi(self, lag, seed=11):
        cfg = RunConfig(
            txns=800,
            concurrency=10,
            sites=2,
            replication_lag=lag,
            workload=WorkloadConfig(active_keys=4, max_writes_per_key=30),
            seed=seed,
        )
        return run_workload(cfg)

    def test_psi_run_valid_under_psi(self):
        result = check(
            self.run_psi(lag=4),
            consistency_model="parallel-snapshot-isolation",
            realtime_edges=False,
            process_edges=False,
        )
        assert result.valid, result.anomaly_types

    def test_psi_run_shows_only_g2(self):
        result = check(
            self.run_psi(lag=4),
            consistency_model="serializable",
            realtime_edges=False,
            process_edges=False,
        )
        assert set(result.anomaly_types) <= {"G2-item"}

    def test_faults_rejected_with_sites(self):
        from repro.db import TiDBRetry
        from repro.errors import GeneratorError

        with pytest.raises(GeneratorError, match="replicated substrate"):
            RunConfig(sites=2, faults=lambda rng: TiDBRetry(rng))

    def test_single_site_unchanged(self):
        cfg = RunConfig(
            txns=200,
            concurrency=4,
            workload=WorkloadConfig(active_keys=2, max_writes_per_key=20),
            seed=1,
        )
        result = check(
            run_workload(cfg), consistency_model="strict-serializable"
        )
        assert result.valid
