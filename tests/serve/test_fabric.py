"""Tests for the sharded serving fabric (:mod:`repro.serve.fabric`).

Deterministic (threadless) mode throughout unless a test is explicitly
about the pump thread: fabrics are built with ``start=False`` and
driven by :meth:`drain`, so routing, failover and scheduling depend
only on the submission order.

The shard lifecycle suites (failover, close/drain, restart) run over
both transports: each ``...Processes`` subclass reruns its parent's
cases with forked shards.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    ServerClosedError,
    ShardCrashError,
    ValidationError,
)
from repro.fault import BREAKER_CLOSED, BREAKER_OPEN
from repro.serve import (
    HealthPolicy,
    ServeConfig,
    ServeFabric,
    ShardRouter,
    serve_key,
)
from repro.util import as_csr


def make_matrix(seed: int, n: int = 120, density: float = 0.05):
    return sparse.random(n, n, density=density, random_state=seed, format="csr")


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FailFirstEngine(SpMVEngine):
    """Engine whose first ``failures`` dispatches fail."""

    def __init__(self, failures: int):
        super().__init__()
        self.failures = failures

    def _dispatch(self, method, *args, **kwargs):
        if self.failures > 0:
            self.failures -= 1
            raise ValidationError("failing shard: dispatch failed")
        return method(*args, **kwargs)

    def multiply(self, *args, **kwargs):
        return self._dispatch(super().multiply, *args, **kwargs)

    def multiply_many(self, *args, **kwargs):
        return self._dispatch(super().multiply_many, *args, **kwargs)


class FlakyEngine(SpMVEngine):
    """Engine whose dispatches fail until ``ok`` is flipped to True."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ok = False

    def multiply(self, *args, **kwargs):
        if not self.ok:
            raise ValidationError("flaky shard: dispatch failed")
        return super().multiply(*args, **kwargs)

    def multiply_many(self, *args, **kwargs):
        if not self.ok:
            raise ValidationError("flaky shard: dispatch failed")
        return super().multiply_many(*args, **kwargs)


def make_fabric(shards=2, **kwargs):
    kwargs.setdefault("serve_config", ServeConfig(batch_window_s=0.0))
    kwargs.setdefault("start", False)
    kwargs.setdefault("reply_timeout_s", 30.0)
    return ServeFabric(shards, **kwargs)


class OverTransport:
    """Builds the fabrics of a lifecycle suite on one shard transport."""

    processes = False

    def make(self, shards=2, **kwargs):
        return make_fabric(shards, processes=self.processes, **kwargs)


def matrices_owned_by(fabric, shard_name, count, n=120):
    """``count`` matrices whose serve keys the router assigns to
    ``shard_name``."""
    engine = fabric.shards[0].engine
    found = []
    for seed in range(200):
        A = make_matrix(seed, n=n)
        if fabric.router.owner(serve_key(engine, as_csr(A))) == shard_name:
            found.append(A)
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} seeds < 200 routed to {shard_name}")


def matrix_owned_by(fabric, shard_name, n=120):
    """A matrix whose serve key the router assigns to ``shard_name``."""
    return matrices_owned_by(fabric, shard_name, 1, n=n)[0]


class TestShardRouter:
    def test_deterministic_and_stable(self):
        a = ShardRouter(["shard-0", "shard-1", "shard-2"])
        b = ShardRouter(["shard-0", "shard-1", "shard-2"])
        for key in ("alpha", "beta", "gamma"):
            assert a.preference(key) == b.preference(key)

    def test_preference_is_full_permutation(self):
        names = [f"shard-{i}" for i in range(4)]
        router = ShardRouter(names)
        for key in ("k1", "k2", "k3", "k4", "k5"):
            pref = router.preference(key)
            assert sorted(pref) == sorted(names)
            assert pref[0] == router.owner(key)

    def test_keys_spread_over_shards(self):
        router = ShardRouter([f"shard-{i}" for i in range(3)])
        share = router.share([f"key-{i}" for i in range(300)])
        # Consistent hashing with vnodes: no shard starved, none hogging.
        assert all(count > 0 for count in share.values())
        assert max(share.values()) < 300

    def test_single_shard_owns_everything(self):
        router = ShardRouter(["only"])
        assert router.preference("whatever") == ["only"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardRouter([])
        with pytest.raises(ValidationError):
            ShardRouter(["a", "a"])


class TestFabricConfig:
    @pytest.mark.parametrize("kwargs", [{"shards": 0}, {"max_attempts": 0}])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ServeFabric(**kwargs, start=False)


class TestFabricServing:
    def test_responses_bit_identical_to_engine(self):
        fabric = make_fabric(3)
        engine = SpMVEngine()
        rng = np.random.default_rng(0)
        try:
            work = []
            for seed in range(4):
                A = make_matrix(seed)
                for _ in range(3):
                    x = rng.standard_normal(120)
                    work.append((A, x, fabric.submit(A, x)))
            fabric.drain()
            for A, x, fut in work:
                resp = fut.result(timeout=0)
                ref = engine.multiply(engine.prepare(A), x).y
                np.testing.assert_array_equal(resp.y, ref)
                assert resp.shard in {s.name for s in fabric.shards}
                assert resp.failovers == 0
        finally:
            fabric.close()

    def test_same_key_routes_to_one_shard(self):
        fabric = make_fabric(3)
        try:
            A = make_matrix(5)
            rng = np.random.default_rng(1)
            futs = [
                fabric.submit(A, rng.standard_normal(120)) for _ in range(6)
            ]
            fabric.drain()
            shards = {f.result(timeout=0).shard for f in futs}
            assert len(shards) == 1
        finally:
            fabric.close()

    def test_expired_deadline_fails_typed(self):
        fabric = make_fabric(2)
        try:
            fut = fabric.submit(make_matrix(2), np.ones(120), timeout_s=0.0)
            fabric.drain()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=0)
        finally:
            fabric.close()

    def test_threaded_mode_serves(self):
        fabric = ServeFabric(
            2, serve_config=ServeConfig(batch_window_s=0.0), start=True
        )
        try:
            A = make_matrix(3)
            rng = np.random.default_rng(2)
            xs = [rng.standard_normal(120) for _ in range(8)]
            futs = [fabric.submit(A, x) for x in xs]
            for x, fut in zip(xs, futs):
                resp = fut.result(timeout=60.0)
                np.testing.assert_array_equal(resp.y, resp.y)  # completed
        finally:
            fabric.close()
        assert fabric.n_responses == 8


class TestQuotas:
    """Tenant fairness: per-tenant queues dequeued in equal shares."""

    def test_weighted_fair_dequeue_order(self):
        fabric = make_fabric(2)
        try:
            A = make_matrix(1)
            for _ in range(3):
                fabric.submit(A, np.ones(120), tenant="a")
                fabric.submit(A, np.ones(120), tenant="b")
            # Stride scheduling: every tenant gets an equal share; ties
            # break lexicographically, so the order is exact.
            order = []
            with fabric._cond:
                for _ in range(6):
                    order.append(fabric._next_tenant_locked())
            assert order == ["a", "b", "a", "b", "a", "b"]
        finally:
            fabric.close(drain=False)

    def test_drained_tenants_are_forgotten(self):
        fabric = make_fabric(2)
        try:
            A = make_matrix(1)
            futs = [
                fabric.submit(A, np.ones(120), tenant=f"t{i}")
                for i in range(300)
            ]
            fabric.drain()
            for fut in futs:
                fut.result(timeout=0)
            with fabric._cond:
                assert fabric._queues == {}
                assert fabric._passes == {}
                assert fabric._tenant_pending == {}
            assert fabric.stats()["tenants"] == {}
            # A returning tenant starts at the current virtual time, as
            # a new one does.
            fabric.submit(A, np.ones(120), tenant="t0")
            with fabric._cond:
                assert fabric._passes["t0"] == fabric._vtime
            assert fabric.stats()["tenants"] == {"t0": {"pending": 1}}
        finally:
            fabric.close()

    def test_idle_tenant_earns_no_burst(self):
        fabric = make_fabric(2)
        try:
            A = make_matrix(1)
            # "busy" accumulates virtual time; "late" arrives afterwards
            # and must start at the current virtual time, not at zero.
            for _ in range(4):
                fabric.submit(A, np.ones(120), tenant="busy")
            fabric.drain()
            fabric.submit(A, np.ones(120), tenant="late")
            with fabric._cond:
                assert fabric._passes["late"] >= fabric._vtime
        finally:
            fabric.close()


class TestFailover(OverTransport):
    def test_kill_shard_mid_flight_fails_over(self):
        fabric = self.make(2, max_attempts=3)
        try:
            victim = "shard-0"
            A = matrix_owned_by(fabric, victim)
            rng = np.random.default_rng(3)
            xs = [rng.standard_normal(120) for _ in range(4)]
            futs = [fabric.submit(A, x) for x in xs]
            # Forward to the shard queues, then crash the owner with the
            # requests genuinely in flight.
            fabric._schedule()
            assert fabric.kill_shard(victim) == 4
            fabric.drain()
            engine = SpMVEngine()
            ref_prepared = engine.prepare(A)
            for x, fut in zip(xs, futs):
                resp = fut.result(timeout=0)
                assert resp.shard == "shard-1"
                assert resp.failovers == 1
                np.testing.assert_array_equal(
                    resp.y, engine.multiply(ref_prepared, x).y
                )
            assert fabric.n_failovers == 4
            assert fabric.n_shard_crashes == 1
            assert fabric.live_shards() == ["shard-1"]
        finally:
            fabric.close()

    def test_kill_is_idempotent(self):
        fabric = self.make(2)
        try:
            assert fabric.kill_shard("shard-0") == 0
            assert fabric.kill_shard("shard-0") == 0
            assert fabric.n_shard_crashes == 1
        finally:
            fabric.close()

    def test_no_live_shards_fails_typed(self):
        fabric = self.make(2)
        try:
            fabric.kill_shard("shard-0")
            fabric.kill_shard("shard-1")
            fut = fabric.submit(make_matrix(1), np.ones(120))
            fabric.drain()
            with pytest.raises((CircuitOpenError, ShardCrashError,
                                ServerClosedError)):
                fut.result(timeout=0)
        finally:
            fabric.close(drain=False)

    def test_dead_shard_not_routed_after_crash(self):
        fabric = self.make(2)
        try:
            fabric.kill_shard("shard-0")
            A = matrix_owned_by(fabric, "shard-0")
            fut = fabric.submit(A, np.ones(120))
            fabric.drain()
            resp = fut.result(timeout=0)
            # The dead owner is skipped; the ring successor serves, and
            # since the request was never forwarded to the dead shard
            # this is routing, not failover.
            assert resp.shard == "shard-1"
            assert resp.failovers == 0
        finally:
            fabric.close()


class TestEjectionReadmission:
    def _flaky_fabric(self, clock):
        flaky = {}

        def factory(index):
            if index == 1:
                engine = FlakyEngine()
                flaky["engine"] = engine
                return engine
            return SpMVEngine()

        fabric = make_fabric(
            2,
            engine_factory=factory,
            health_policy=HealthPolicy(window=8, min_samples=2),
            max_attempts=3,
            clock=clock,
        )
        return fabric, flaky

    def test_sick_shard_ejected_then_readmitted(self):
        clock = FakeClock()
        fabric, flaky = self._flaky_fabric(clock)
        try:
            A = matrix_owned_by(fabric, "shard-1")
            rng = np.random.default_rng(4)
            futs = [
                fabric.submit(A, rng.standard_normal(120)) for _ in range(4)
            ]
            fabric.drain()
            for fut in futs:
                fut.result(timeout=0)  # failed over to shard-0
            assert fabric.n_ejections >= 1
            assert fabric.breaker.state("shard-1") == BREAKER_OPEN
            assert fabric.live_shards() == ["shard-0"]

            # While ejected, the sick shard's key range routes elsewhere
            # without burning failovers.
            failovers_before = fabric.n_failovers
            fut = fabric.submit(A, rng.standard_normal(120))
            fabric.drain()
            assert fut.result(timeout=0).shard == "shard-0"
            assert fabric.n_failovers == failovers_before

            # Shard recovers; after the cooldown the next owner-keyed
            # request is the half-open probe and readmits it.
            flaky["engine"].ok = True
            clock.advance(11.0)
            fut = fabric.submit(A, rng.standard_normal(120))
            fabric.drain()
            assert fut.result(timeout=0).shard == "shard-1"
            assert fabric.n_readmissions == 1
            assert fabric.breaker.state("shard-1") == BREAKER_CLOSED
            assert sorted(fabric.live_shards()) == ["shard-0", "shard-1"]
            # Readmission reset the health window: old failures gone.
            assert fabric.shards[1].health.samples() == 1
        finally:
            fabric.close()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        fabric, flaky = self._flaky_fabric(clock)
        try:
            A = matrix_owned_by(fabric, "shard-1")
            rng = np.random.default_rng(5)
            futs = [
                fabric.submit(A, rng.standard_normal(120)) for _ in range(3)
            ]
            fabric.drain()
            assert fabric.breaker.state("shard-1") == BREAKER_OPEN
            # Still sick after the cooldown: the probe fails, the
            # circuit re-opens, and the request still succeeds elsewhere.
            clock.advance(11.0)
            fut = fabric.submit(A, rng.standard_normal(120))
            fabric.drain()
            assert fut.result(timeout=0).shard == "shard-0"
            assert fabric.breaker.state("shard-1") == BREAKER_OPEN
            assert fabric.n_readmissions == 0
        finally:
            fabric.close()

    def test_success_in_an_erroneous_window_ejects(self):
        # One failure then one success leaves a window at the 0.5 error
        # rate: the success itself ejects the shard.
        fabric = make_fabric(
            2,
            engine_factory=lambda i: (
                FailFirstEngine(1) if i == 1 else SpMVEngine()
            ),
            health_policy=HealthPolicy(window=4, min_samples=2),
            clock=FakeClock(),
        )
        rng = np.random.default_rng(1)
        try:
            futs = [
                fabric.submit(A, rng.standard_normal(120))
                for A in matrices_owned_by(fabric, "shard-1", 2)
            ]
            fabric.drain()
            assert [f.result(timeout=0).shard for f in futs] == [
                "shard-0", "shard-1",
            ]
            assert fabric.shards[1].health.error_rate() == 0.5
            assert fabric.n_ejections == 1
            assert fabric.breaker.state("shard-1") == BREAKER_OPEN
        finally:
            fabric.close()

    def test_late_success_does_not_readmit(self):
        # The owner fails its first two dispatches, and its health
        # window ejects it on the second, while a third request
        # forwarded before the ejection is still in flight.  That late
        # success must not close the circuit: only the half-open probe
        # readmits.
        fabric = make_fabric(
            2,
            engine_factory=lambda i: (
                FailFirstEngine(2) if i == 1 else SpMVEngine()
            ),
            health_policy=HealthPolicy(window=4, min_samples=2),
            clock=FakeClock(),
        )
        engine = SpMVEngine()
        rng = np.random.default_rng(0)
        try:
            work = []
            for A in matrices_owned_by(fabric, "shard-1", 3):
                x = rng.standard_normal(120)
                work.append((A, x, fabric.submit(A, x)))
            fabric.drain()
            served_by = [fut.result(timeout=0).shard for _, _, fut in work]
            assert served_by == ["shard-0", "shard-0", "shard-1"]
            for A, x, fut in work:
                np.testing.assert_array_equal(
                    fut.result(timeout=0).y,
                    engine.multiply(engine.prepare(A), x).y,
                )
            assert fabric.shards[1].ejected
            assert fabric.n_ejections == 1
            assert fabric.n_readmissions == 0
            assert fabric.breaker.state("shard-1") == BREAKER_OPEN
            assert fabric.live_shards() == ["shard-0"]
        finally:
            fabric.close()


class TestLifecycle(OverTransport):
    def test_close_fails_queued_futures(self):
        fabric = self.make(2)
        A = make_matrix(1)
        futs = [fabric.submit(A, np.ones(120)) for _ in range(3)]
        fabric.close(drain=False)
        for fut in futs:
            with pytest.raises(ServerClosedError):
                fut.result(timeout=0)
        with pytest.raises(ServerClosedError):
            fabric.submit(A, np.ones(120))

    def test_close_drain_completes_queued(self):
        fabric = self.make(2)
        A = make_matrix(1)
        futs = [fabric.submit(A, np.ones(120)) for _ in range(3)]
        fabric.close()  # drain=True
        for fut in futs:
            assert fut.result(timeout=0).y is not None

    def test_context_manager(self):
        with self.make(2) as fabric:
            fut = fabric.submit(make_matrix(1), np.ones(120))
            fabric.drain()
            fut.result(timeout=0)

    def test_stats_shape(self):
        fabric = self.make(2)
        try:
            A = make_matrix(1)
            fabric.submit(A, np.ones(120), tenant="t")
            fabric.drain()
            snap = fabric.stats()
            for key in (
                "requests", "responses", "failovers", "ejections", "readmissions", "shard_crashes", "live_shards",
                "shards", "tenants", "cache", "batches", "shed",
            ):
                assert key in snap
            assert snap["live_shards"] == 2
            assert set(snap["shards"]) == {"shard-0", "shard-1"}
            for shard_snap in snap["shards"].values():
                assert shard_snap["breaker"] == BREAKER_CLOSED
                assert "health" in shard_snap and "server" in shard_snap
            # A drained tenant is forgotten.
            assert "t" not in snap["tenants"]
        finally:
            fabric.close()

    def test_live_shards_gauge(self):
        from repro.obs import Observer

        obs = Observer()
        fabric = self.make(2, observer=obs)
        try:
            gauge = obs.metrics.get("fabric.live_shards")
            assert gauge is not None and gauge.value() == 2
            fabric.kill_shard("shard-0")
            assert gauge.value() == 1
        finally:
            fabric.close()


class TestShardLifecycle(OverTransport):
    def primed_fabric(self, **kwargs):
        fabric = self.make(2, **kwargs)
        A = make_matrix(7)
        fabric.prime(fabric.shards[0].engine.prepare(A))
        return fabric, A

    def test_kill_worker_then_tick_restarts_warm(self):
        fabric, A = self.primed_fabric()
        try:
            x = np.random.default_rng(8).standard_normal(120)
            before = fabric.multiply(A, x)
            assert fabric.kill_worker(before.shard) == 0
            assert not fabric._by_name[before.shard].alive
            fabric.tick()
            assert fabric.stats()["supervisor"]["restarts"] == 1
            after = fabric.multiply(A, x)
            assert after.shard == before.shard
            assert after.cache_hit
            assert np.array_equal(after.y, before.y)
        finally:
            fabric.close()

    def test_injected_hang_is_detected_and_restarted(self):
        fabric, A = self.primed_fabric(reply_timeout_s=1.0)
        try:
            rng = np.random.default_rng(9)
            golden = fabric.multiply(A, rng.standard_normal(120))
            owner = fabric._by_name[golden.shard]
            assert owner.inject_hang()
            x = rng.standard_normal(120)
            resp = fabric.multiply(A, x)
            assert resp.shard != owner.name and resp.failovers == 1
            assert owner.stats()["worker"]["hangs"] == 1
            fabric.tick()
            assert owner.alive
            again = fabric.multiply(A, x)
            assert again.shard == owner.name and again.cache_hit
            assert np.array_equal(again.y, resp.y)
        finally:
            fabric.close()

    def test_admission_counts_serve_requests_once(self):
        from repro.obs import Observer

        obs = Observer()
        fabric = self.make(2, observer=obs)
        try:
            fabric.multiply(make_matrix(1), np.ones(120))
            assert obs.metrics.get("serve.requests").value() == 1
        finally:
            fabric.close()


class TestFailoverProcesses(TestFailover):
    processes = True


class TestLifecycleProcesses(TestLifecycle):
    processes = True


class TestShardLifecycleProcesses(TestShardLifecycle):
    processes = True
