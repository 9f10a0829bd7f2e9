"""Tests for the differential chaos drill (:mod:`repro.serve.chaos`).

The drill itself is the assertion machine; these tests pin that it (a)
passes in the configurations CI runs, with failover genuinely
exercised, (b) fails loudly when failover cannot have happened and a
pass would be vacuous, and (c) produces a JSON-able, replayable report.
"""

from __future__ import annotations

import json

import pytest

from repro import SpMVEngine
from repro.fault import RetryPolicy
from repro.fault.injection import fault_scope
from repro.serve import (
    ChaosReport,
    HealthPolicy,
    ServeConfig,
    ServeFabric,
    chaos_plan,
    run_chaos_drill,
)
from repro.serve.chaos import _build_workload

# Small, fast drill workload shared by most tests: one request per
# (matrix, value version), eight in all.
FAST = dict(cap_nnz=2_000, requests_per_matrix=1)


class TestChaosPlan:
    def test_crash_budget_is_respected(self):
        plan = chaos_plan(seed=3, kills=1)
        assert plan.shard_crash(3) is True
        assert plan.shard_crash(3) is False  # budget of one spent
        assert [e.site for e in plan.events] == ["serve.shard_crash"]

    def test_crash_never_fires_on_last_live_shard(self):
        plan = chaos_plan(seed=3, kills=5)
        assert plan.shard_crash(1) is False
        assert plan.events == []

    def test_slow_returns_injected_delay(self):
        plan = chaos_plan(seed=3, kills=0, slows=1, slow_extra_s=0.4)
        assert plan.shard_slow(2) == pytest.approx(0.4)
        assert plan.shard_slow(2) is None


class TestChaosDrill:
    def test_kill_drill_passes_with_failover(self):
        report = run_chaos_drill(shards=3, seed=7, **FAST)
        assert report.passed
        assert report.matched == report.requests
        assert report.failovers > 0
        assert report.shard_crashes == 1
        assert report.live_shards == 2
        assert "serve.shard_crash" in report.fault_events

    def test_corrupt_shard_drill_passes(self):
        report = run_chaos_drill(
            shards=3, seed=11, kills=0, corrupt_shards=1, **FAST
        )
        assert report.passed
        assert report.matched == report.requests
        assert report.ejections >= 1
        assert report.failovers > 0

    def test_clean_drill_passes_without_failover_requirement(self):
        report = run_chaos_drill(shards=2, seed=1, kills=0, **FAST)
        assert report.require_failover is False
        assert report.passed
        assert report.failovers == 0

    def test_single_shard_never_requires_failover(self):
        # One shard: the crash site's n_live guard keeps it alive, and
        # require_failover defaults off so the drill isn't vacuously red.
        report = run_chaos_drill(shards=1, seed=1, kills=1, **FAST)
        assert report.require_failover is False
        assert report.passed

    def test_slowed_shard_latency_is_only_recorded(self):
        report = run_chaos_drill(shards=3, seed=7, kills=0, slows=1, **FAST)
        assert report.passed
        assert report.fault_events == ["serve.shard_slow"]
        assert report.matched == report.requests
        assert report.ejections == 0 and report.failovers == 0
        assert report.live_shards == 3
        shards = report.fabric_stats["shards"].values()
        slowed = [s for s in shards if s["slow_extra_s"] > 0]
        assert len(slowed) == 1
        assert slowed[0]["health"]["p99_latency_s"] >= 0.3

    def test_seed_replays_identically(self):
        a = run_chaos_drill(shards=3, seed=21, **FAST)
        b = run_chaos_drill(shards=3, seed=21, **FAST)
        assert a.passed and b.passed
        assert a.failovers == b.failovers
        assert a.fault_events == b.fault_events
        assert a.fabric_stats["shards"].keys() == b.fabric_stats["shards"].keys()

    def test_report_is_json_able(self):
        report = run_chaos_drill(shards=2, seed=2, kills=0, **FAST)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["kind"] == "chaos_report"
        assert blob["passed"] is True
        assert blob["requests"] == report.requests
        assert "PASS" in report.summary()


class TestAutoscaleTrajectory:
    """The pinned (round, action) sequence of an autoscaling in-process
    fabric, built as the drill builds its fabric, on the drill workload:
    up on the first round (8 requests over 3 replicas), one cooldown
    round, and down after two idle rounds."""

    @pytest.mark.parametrize(
        "kills, expected",
        [
            (0, [(1, "up"), (2, None), (3, None), (4, "down"),
                 (5, None), (6, None), (7, None), (8, None), (9, None)]),
            # The crash leaves the grown fleet at the built count.
            (1, [(1, "up")] + [(r, None) for r in range(2, 11)]),
        ],
    )
    def test_round_action_sequence(self, kills, expected):
        fabric = ServeFabric(
            3,
            engine_factory=lambda i: SpMVEngine(backend="fast"),
            serve_config=ServeConfig(batch_window_s=0.0),
            health_policy=HealthPolicy(window=8, min_samples=2),
            max_attempts=3,
            start=False,
            restart_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            autoscale=True,
        )
        try:
            for A, x, tenant in _build_workload(seed=7, **FAST):
                fabric.submit(A, x, tenant=tenant)
            with fault_scope(chaos_plan(7, kills=kills)):
                fabric.drain()
                fabric.tick(rounds=8)
            decisions = fabric.stats()["autoscaler"]["decisions"]
        finally:
            fabric.close(drain=False)
        assert [(d["round"], d["action"]) for d in decisions] == expected


class TestVacuousPassRejected:
    def test_required_failover_missing_fails(self):
        # Hand-built report: everything matched but no failover happened
        # although one was required -- must NOT pass.
        report = ChaosReport(
            seed=0, shards=3, requests=4, matched=4, mismatched=[],
            golden_errors=[], fabric_errors=[], failovers=0,
            shard_crashes=0, ejections=0, readmissions=0,
            live_shards=3, fault_events=[],
            require_failover=True, elapsed_s=0.1,
        )
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_mismatch_fails(self):
        report = ChaosReport(
            seed=0, shards=3, requests=4, matched=3, mismatched=[2],
            golden_errors=[], fabric_errors=[], failovers=5,
            shard_crashes=1, ejections=0, readmissions=0,
            live_shards=2, fault_events=["serve.shard_crash"],
            require_failover=True, elapsed_s=0.1,
        )
        assert not report.passed

    def test_lost_request_fails(self):
        report = ChaosReport(
            seed=0, shards=3, requests=4, matched=3, mismatched=[],
            golden_errors=[], fabric_errors=[(1, "ShardCrashError")],
            failovers=5, shard_crashes=1, ejections=0, readmissions=0,
            live_shards=2, fault_events=["serve.shard_crash"],
            require_failover=True, elapsed_s=0.1,
        )
        assert not report.passed
