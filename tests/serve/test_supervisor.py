"""Tests for shard supervision and autoscaling
(:mod:`repro.serve.supervisor`).

The supervisor half runs against real forked shards (restart ladders,
heartbeat miss budgets, orphan reaping are only meaningful against a
live OS); the autoscaler half is a pure policy state machine and is
tested as one.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.core.shm import reap_orphans
from repro.fault import FaultPlan
from repro.fault.injection import fault_scope
from repro.fault.retry import RetryPolicy
from repro.serve import (
    Autoscaler,
    ServeConfig,
    Shard,
    ShardSupervisor,
    serve_key,
)
from repro.serve import shard as shard_mod


@pytest.fixture(scope="module")
def engine():
    return SpMVEngine(device="gtx680", backend="fast")


@pytest.fixture(scope="module")
def system(engine):
    rng = np.random.default_rng(5)
    A = sparse.random(48, 48, density=0.1, random_state=5, format="csr")
    A.data = rng.standard_normal(A.nnz)
    x = rng.standard_normal(48)
    golden = engine.multiply(A, x).y
    prepared = engine.prepare(A)
    return A, x, golden, prepared


def make_worker(engine, prepared, processes=True):
    shard = Shard(
        "sup-test",
        engine,
        ServeConfig(batch_window_s=0.0),
        processes=processes,
        reply_timeout_s=30.0,
    )
    shard.prime(serve_key(engine, prepared.reference_csr()), prepared)
    return shard


def multiply(shard, A, x):
    future = shard.submit(serve_key(shard.engine, A), A, x)
    shard.drain()
    return future.result(timeout=0)


class TestRestartLadder:
    def test_tick_restarts_a_sigkilled_worker(self, engine, system):
        A, x, golden, prepared = system
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor(RetryPolicy(max_attempts=3, base_delay_s=0.0))
        try:
            worker.kill_process()
            assert not worker.alive
            sup.tick([worker])
            assert worker.alive
            assert sup.n_restarts == 1
            restart = [d for d in sup.decisions if d["action"] == "restart"]
            assert restart and restart[0]["exit_code"] < 0
            assert restart[0]["warm_mode"] == "shared"
            resp = multiply(worker, A, x)
            assert resp.cache_hit
            assert np.array_equal(resp.y, golden)
        finally:
            worker.close()

    def test_dead_and_retired_shards_are_skipped(self, engine, system):
        _, _, _, prepared = system
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor()
        try:
            worker.kill_process()
            worker.dead = True
            sup.tick([worker])
            assert not worker.alive and sup.n_restarts == 0
            worker.dead = False
            worker.retired = True
            sup.tick([worker])
            assert not worker.alive and sup.n_restarts == 0
        finally:
            worker.close()

    def test_in_process_servers_are_ignored(self, engine, system):
        # A live in-process shard answers every heartbeat: nothing to do.
        shard = make_worker(engine, system[3], processes=False)
        sup = ShardSupervisor()
        sup.tick([shard])
        assert sup.decisions == []
        shard.close()

    def test_exhausted_restarts_degrade_to_in_process(
        self, engine, system, monkeypatch
    ):
        A, x, golden, prepared = system
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor(RetryPolicy(max_attempts=2, base_delay_s=0.0))
        try:
            worker.kill_process()
            # Every fork fails from now on.
            monkeypatch.setattr(shard_mod._Pipe, "__init__", _raise_spawn)
            for _ in range(4):
                sup.tick([worker])
            assert sup.n_degraded == 1
            actions = [d["action"] for d in sup.decisions]
            assert actions.count("restart_failed") == 2
            assert actions[-1] == "degrade"
            # The fallback serves in-process, pre-warmed with the
            # shard's primed handles, still bit-identical.
            assert worker.alive and worker.pid is None
            resp = multiply(worker, A, x)
            assert resp.cache_hit
            assert np.array_equal(resp.y, golden)
            # Degraded shards are not degraded again.
            sup.tick([worker])
            assert sup.n_degraded == 1
        finally:
            worker.close()

    def test_arena_lost_restart_reships_csr(self, engine, system):
        A, x, golden, _ = system
        prepared = engine.prepare(A)
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor(RetryPolicy(max_attempts=3, base_delay_s=0.0))
        try:
            worker.kill_process()
            with fault_scope(FaultPlan.parse("serve.arena_lost:p=1.0,count=1")):
                sup.tick([worker])
            assert sup.n_arena_lost == 1
            restart = [d for d in sup.decisions if d["action"] == "restart"]
            assert restart[0]["warm_mode"] == "csr"
            resp = multiply(worker, A, x)
            assert resp.cache_hit
            assert np.array_equal(resp.y, golden)
        finally:
            worker.close()


def _raise_spawn(self, shard):
    raise OSError("fork refused for the test")


class TestHeartbeat:
    def test_silent_worker_is_killed_after_miss_budget(self, engine, system):
        A, x, golden, prepared = system
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor(RetryPolicy(max_attempts=3, base_delay_s=0.0))
        try:
            assert worker.inject_hang()
            ticks = 0
            # Pace the ticks: a genuinely responsive worker answers each
            # ping within the wait, a hung one never does -- the budget
            # must single it out.
            while sup.n_hang_kills == 0 and ticks < 10:
                sup.tick([worker])
                time.sleep(0.02)
                ticks += 1
            assert sup.n_hang_kills == 1
            assert any(d["action"] == "hang_kill" for d in sup.decisions)
            # Healing follows (same tick or the next one).
            sup.tick([worker])
            assert worker.alive
            assert sup.n_restarts == 1
            assert np.array_equal(multiply(worker, A, x).y, golden)
        finally:
            worker.close()

    def test_responsive_worker_is_never_killed(self, engine, system):
        A, x, _, prepared = system
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor()
        try:
            for _ in range(6):
                sup.tick([worker])
                time.sleep(0.02)
            assert worker.alive
            assert sup.n_hang_kills == 0
        finally:
            worker.close()


class TestOrphanReaping:
    def _orphan_name(self):
        # A genuinely dead pid: fork a child and let it exit.
        proc = multiprocessing.get_context("fork").Process(target=int)
        proc.start()
        proc.join()
        return f"reproshm-{proc.pid}-deadbeef"

    def test_reap_orphans_reclaims_dead_pid_segments(self):
        name = self._orphan_name()
        path = f"/dev/shm/{name}"
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 64)
        try:
            reaped = reap_orphans()
            assert name in reaped
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_and_foreign_segments_survive(self):
        own = f"reproshm-{os.getpid()}-cafecafe"
        foreign = "not-a-repro-segment"
        for fname in (own, foreign):
            with open(f"/dev/shm/{fname}", "wb") as fh:
                fh.write(b"\x00")
        try:
            reaped = reap_orphans()
            assert own not in reaped and foreign not in reaped
            assert os.path.exists(f"/dev/shm/{own}")
            assert os.path.exists(f"/dev/shm/{foreign}")
        finally:
            for fname in (own, foreign):
                os.unlink(f"/dev/shm/{fname}")

    def test_supervisor_reaps_on_restart(self, engine, system):
        _, _, _, prepared = system
        name = self._orphan_name()
        with open(f"/dev/shm/{name}", "wb") as fh:
            fh.write(b"\x00" * 64)
        worker = make_worker(engine, prepared)
        sup = ShardSupervisor(RetryPolicy(max_attempts=3, base_delay_s=0.0))
        try:
            worker.kill_process()
            sup.tick([worker])
            assert worker.alive
            assert sup.n_reaped >= 1
            assert not os.path.exists(f"/dev/shm/{name}")
            reap = [d for d in sup.decisions if d["action"] == "reap"]
            assert reap and name in reap[0]["segments"]
        finally:
            worker.close()
            if os.path.exists(f"/dev/shm/{name}"):
                os.unlink(f"/dev/shm/{name}")


class TestRestartBackoff:
    def test_default_delays_are_pinned(self):
        # 0.05 s, then 0.1 s, each scaled by its seeded jitter draw:
        # pinned float for float.
        assert ShardSupervisor().restart_policy.delays() == [
            0.05389738791278135,
            0.09161648078346375,
        ]


class TestAutoscaler:
    def test_scales_up_under_sustained_pressure(self):
        scaler = Autoscaler(2)
        assert (scaler.min_shards, scaler.max_shards) == (2, 3)
        # 4 requests over 2 replicas: load 2.0, the high-water mark.
        assert scaler.observe(
            queued=4, in_flight=0, live=2, open_breakers=0
        ) == "up"
        assert scaler.n_scale_ups == 1

    def test_load_below_high_water_is_steady(self):
        scaler = Autoscaler(2)
        assert scaler.observe(
            queued=3, in_flight=0, live=2, open_breakers=0
        ) is None
        assert scaler.decisions[-1]["reason"] == "steady"
        assert scaler.n_scale_ups == 0

    def test_scales_down_after_idle_streak_with_cooldown(self):
        scaler = Autoscaler(2)
        idle = dict(queued=0, in_flight=0, live=3, open_breakers=0)
        assert scaler.observe(
            queued=9, in_flight=0, live=2, open_breakers=0
        ) == "up"
        # Cooldown round: idle, but only observing.
        assert scaler.observe(**idle) is None
        assert scaler.decisions[-1]["reason"] == "cooldown"
        assert scaler.observe(**idle) is None
        assert scaler.observe(**idle) == "down"
        assert scaler.n_scale_downs == 1

    def test_respects_min_and_max_bounds(self):
        scaler = Autoscaler(2)
        # At the one extra replica already: no further growth.
        assert scaler.observe(
            queued=50, in_flight=0, live=3, open_breakers=0
        ) is None
        # At the built count: idle rounds never shrink below it.
        for _ in range(3):
            assert scaler.observe(
                queued=0, in_flight=0, live=2, open_breakers=0
            ) is None
        assert scaler.n_scale_ups == 0 and scaler.n_scale_downs == 0

    def test_decision_log_is_complete_and_typed(self):
        scaler = Autoscaler(2)
        scaler.observe(queued=9, in_flight=1, live=2, open_breakers=1)
        scaler.observe(queued=0, in_flight=0, live=3, open_breakers=0)
        assert len(scaler.decisions) == 2
        first = scaler.decisions[0]
        assert first["action"] == "up"
        assert first["queued"] == 9 and first["in_flight"] == 1
        assert first["open_breakers"] == 1
        assert first["load_per_replica"] == 5.0
        stats = scaler.stats()
        assert stats["rounds"] == 2
        assert stats["scale_ups"] == 1
