"""Chaos-harness tests: seeded fault campaigns + a real ``kill -9``.

The campaign tests run the deterministic in-process harness (every plan
kind, equivalence asserted against the ``Workload.replay`` ground truth
inside :func:`repro.resilience.chaos.run_chaos_once` itself).  The
process test delivers an actual SIGKILL to a live shard worker mid-stream
and asserts the engine recovers instead of hanging — the PR's headline
acceptance criterion.
"""

import multiprocessing as mp
import os
import signal

import pytest

from repro.resilience import RecoveryManager, ResilienceConfig
from repro.resilience.chaos import (
    CHAOS_PLAN_KINDS,
    ChaosConfig,
    ChaosPlan,
    run_chaos_campaign,
    run_chaos_once,
)
from repro.resilience.manager import SupervisionConfig
from repro.service import ShardedExecutor
from repro.service.shard import edge_shard
from repro.workloads import UpdateBatch
from repro.workloads.streams import request_stream

_FORK = "fork" in mp.get_all_start_methods()


def _edge_for_shard(shard, taken, n=32, shards=2):
    """A fresh edge the deterministic router sends to ``shard``."""
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in taken and edge_shard((a, b), shards) == shard:
                return (a, b)
    raise AssertionError("no free edge routes to the target shard")


class TestChaosCampaign:
    def test_every_plan_kind_recovers_exactly(self, tmp_path):
        """One seed per plan over the full catalogue: zero divergences."""
        cfg = ChaosConfig(requests=900, seeds=1, workdir=str(tmp_path))
        report = run_chaos_campaign(cfg)
        problems = [d for r in report.runs for d in r.divergences]
        assert report.ok, problems
        assert len(report.runs) == len(CHAOS_PLAN_KINDS)
        # every run actually exercised its fault (or, for the tail plan,
        # the post-run corruption path)
        for r in report.runs:
            if r.plan.kind != "corrupt_wal_tail":
                assert r.fired >= 1, r.plan.kind

    def test_campaign_is_deterministic(self, tmp_path):
        """Same seed, same plan → byte-identical outcome counters."""
        cfg = ChaosConfig(requests=600, seeds=1,
                          plans=("kill_pre_apply", "checkpoint_crash"))
        a = run_chaos_campaign(ChaosConfig(
            **{**cfg.__dict__, "workdir": str(tmp_path / "a")}))
        b = run_chaos_campaign(ChaosConfig(
            **{**cfg.__dict__, "workdir": str(tmp_path / "b")}))
        for ra, rb in zip(a.runs, b.runs):
            assert (ra.plan, ra.commits, ra.fired, ra.recoveries,
                    ra.quarantined) == (
                   rb.plan, rb.commits, rb.fired, rb.recoveries,
                   rb.quarantined)

    def test_divergence_is_reported_not_swallowed(self, tmp_path):
        """A plan that never fires must be flagged as a divergence."""
        cfg = ChaosConfig(requests=300, seeds=1)
        # at_seq far beyond the number of commits the run produces
        plan = ChaosPlan(kind="kill_pre_apply", shard=0, at_seq=10**6)
        res = run_chaos_once(cfg, plan, seed=0, workdir=str(tmp_path))
        assert not res.ok
        assert any("never fired" in d for d in res.divergences)

    def test_report_rows_aggregate_by_plan(self, tmp_path):
        cfg = ChaosConfig(requests=600, seeds=2,
                          plans=("drop_reply",), workdir=str(tmp_path))
        report = run_chaos_campaign(cfg)
        assert report.ok
        (row,) = report.rows()
        assert row["plan"] == "drop_reply"
        assert row["runs"] == 2
        assert row["divergences"] == 0


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
class TestRealProcessKill:
    def test_sigkill_mid_stream_does_not_hang_engine(self, tmp_path):
        """kill -9 a live worker: the batch is retried after restart and
        the engine converges — previously this hung forever on recv."""
        initial, _ = request_stream(32, 96, 1, seed=3)
        spec = {"kind": "spanner", "n": 32, "edges": initial, "seed": 11,
                "k": 2, "base_capacity": 16}
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        sup = SupervisionConfig(recv_deadline=2.0, backoff_base=0.01,
                                backoff_cap=0.05)
        ex = ShardedExecutor(spec, 2, processes=True,
                             supervision=sup, recovery=mgr)
        try:
            taken = set(initial)
            live = set(initial)
            for seq in range(1, 7):
                # route every batch at shard 0 — the one we will murder —
                # so the kill is guaranteed to land in the apply path
                edge = _edge_for_shard(0, taken)
                taken.add(edge)
                if seq == 4:
                    victim = ex._shards[0]
                    os.kill(victim.proc.pid, signal.SIGKILL)
                    victim.proc.join(timeout=2.0)
                    assert not victim.alive()
                batch = UpdateBatch(insertions=[edge])
                res = ex.apply(batch, seq=seq)
                mgr.log_applied(seq, batch)
                live.add(edge)
                if seq == 4:
                    assert 0 in res.recovered_shards
                    assert res.restarts >= 1
                    assert res.recovery_seconds > 0
            # the engine survived and the state is exactly the replay
            assert ex.graph_union() == live
            health = ex.health_check(restart=False)
            assert all(h.alive for h in health)
            assert ex.restarts_total >= 1
        finally:
            ex.close()
            mgr.close()

    def test_chaos_campaign_with_real_processes(self, tmp_path):
        """A slim campaign over real worker processes also converges."""
        cfg = ChaosConfig(requests=500, seeds=1, processes=True,
                          recv_deadline=2.0,
                          plans=("kill_pre_apply", "kill_post_apply"),
                          workdir=str(tmp_path))
        report = run_chaos_campaign(cfg)
        problems = [d for r in report.runs for d in r.divergences]
        assert report.ok, problems

    def test_crashing_worker_dies_on_one_stderr_line(self, capfd):
        """A backend that raises on a poison command ends the forked
        worker with one stderr line, no traceback; the parent still sees
        ShardDeadError."""
        from repro.service import ShardDeadError

        initial, _ = request_stream(32, 96, 1, seed=3)
        spec = {"kind": "spanner", "n": 32, "edges": initial, "seed": 11,
                "k": 2}
        ex = ShardedExecutor(spec, 1, processes=True, supervision=None)
        try:
            pid = ex._shards[0].proc.pid
            # deleting an edge the graph lacks crashes the backend
            absent = _edge_for_shard(0, set(initial), shards=1)
            with pytest.raises(ShardDeadError):
                ex.apply(UpdateBatch(deletions=[absent]))
        finally:
            ex.close()
        err = capfd.readouterr().err
        assert "Traceback" not in err
        assert f"worker pid={pid} died on 'update': KeyError(" in err


class TestReplicaChaosCampaign:
    def test_replica_plans_converge_exactly(self):
        from repro.resilience.chaos import (
            REPLICA_PLAN_KINDS,
            run_replica_chaos_campaign,
        )

        cfg = ChaosConfig(requests=300, seeds=2)
        report = run_replica_chaos_campaign(cfg)
        assert len(report.runs) == len(REPLICA_PLAN_KINDS) * 2
        assert report.ok, [r.divergences for r in report.runs
                           if not r.ok]
        assert report.divergence_count == 0
        kinds = {r.plan.kind for r in report.runs}
        assert kinds == set(REPLICA_PLAN_KINDS)
        # the crash plan restarts its replica from scratch at least once
        crash = [r for r in report.runs
                 if r.plan.kind == "replica_crash_catchup"]
        assert all(r.recoveries >= 1 for r in crash)

    def test_replica_campaign_is_deterministic(self):
        from repro.resilience.chaos import run_replica_chaos_campaign

        cfg = ChaosConfig(requests=200, seeds=1,
                          plans=("replica_lag",))
        a = run_replica_chaos_campaign(cfg)
        b = run_replica_chaos_campaign(cfg)
        assert [r.commits for r in a.runs] == [r.commits for r in b.runs]
        assert a.ok and b.ok


class TestNetChaosCampaign:
    """Wire faults through the in-process FaultProxy (``chaos --net``)."""

    def test_wire_plans_converge_exactly(self):
        from repro.resilience.chaos import run_net_chaos_campaign

        cfg = ChaosConfig(requests=250, seeds=1,
                          plans=("net_torn_frame", "net_partition",
                                 "net_reset"))
        report = run_net_chaos_campaign(cfg)
        assert len(report.runs) == 3
        assert report.ok, [r.divergences for r in report.runs
                           if not r.ok]
        rows = {row["plan"]: row for row in report.net_rows()}
        # every plan's targeted resilience path actually fired: a torn
        # ACK forces an idempotent replay, a partition forces retries,
        # a reset storm forces reconnects (handshake replay)
        assert rows["net_torn_frame"]["dedup_hits"] >= 1
        assert rows["net_partition"]["retries"] >= 1
        assert rows["net_reset"]["reconnects"] >= 1
        for row in rows.values():
            assert row["divergences"] == 0
            assert row["commits"] >= 1

    def test_hedged_reads_fire_under_latency(self):
        from repro.resilience.chaos import run_net_chaos_once

        cfg = ChaosConfig(requests=250, seeds=1)
        res = run_net_chaos_once(cfg, "net_latency", seed=0)
        assert res.ok, res.divergences
        assert res.hedged_reads >= 1

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_worker_kill_is_supervised(self):
        from repro.resilience.chaos import run_net_chaos_once

        cfg = ChaosConfig(requests=150, seeds=1)
        res = run_net_chaos_once(cfg, "net_worker_kill", seed=0)
        assert res.ok, res.divergences
        # the SIGKILLed pool worker was replaced and its task requeued
        assert res.restarts >= 1
