"""Tests for forked fabric shards (:mod:`repro.serve.shard`).

A :class:`Shard` with ``processes=True`` serves from a real forked
child behind a duplex pipe: these tests exercise the full lifecycle --
spawn, shared-memory prime, bit-identical serving, SIGKILL mid-flight,
hung-child detection, respawn with cache re-warm (shared and
CSR-fallback modes), graceful close -- against a live operating system,
not mocks.

Matrices are prepared once in the module-scoped fixture and primed into
every worker, so children never run the tuning search and the tests
stay fast.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.core.engine import PreparedMatrix
from repro.errors import (
    ServerClosedError,
    ServerOverloadedError,
    ShardCrashError,
    ValidationError,
)
from repro.serve import ServeConfig, Shard, serve_key
from repro.util import as_csr


@pytest.fixture(scope="module")
def engine():
    return SpMVEngine(device="gtx680", backend="fast")


@pytest.fixture(scope="module")
def system(engine):
    rng = np.random.default_rng(3)
    A = sparse.random(64, 64, density=0.08, random_state=3, format="csr")
    A.data = rng.standard_normal(A.nnz)
    xs = [rng.standard_normal(64) for _ in range(4)]
    golden = [engine.multiply(A, x).y for x in xs]
    prepared = engine.prepare(A)
    return A, xs, golden, prepared


def key_of(engine, matrix):
    if isinstance(matrix, PreparedMatrix):
        return serve_key(engine, matrix.reference_csr())
    return serve_key(engine, as_csr(matrix))


def submit(shard, matrix, x):
    """What the fabric does: key and validate once, then admit."""
    operand = matrix if isinstance(matrix, PreparedMatrix) else as_csr(matrix)
    return shard.submit(
        key_of(shard.engine, matrix), operand, np.asarray(x, dtype=np.float64)
    )


def multiply(shard, matrix, x):
    future = submit(shard, matrix, x)
    shard.drain()
    return future.result(timeout=0)


def make_shard(engine, prepared=None, reply_timeout_s=30.0, config=None):
    shard = Shard(
        "w-test",
        engine,
        config if config is not None else ServeConfig(batch_window_s=0.0),
        processes=True,
        reply_timeout_s=reply_timeout_s,
    )
    if prepared is not None:
        shard.prime(key_of(engine, prepared), prepared)
    return shard


class TestShardValidation:
    @pytest.mark.parametrize("reply_timeout_s", [0.0, -1.0])
    def test_rejects_bad_reply_timeout(self, engine, reply_timeout_s):
        with pytest.raises(ValidationError):
            Shard("bad", engine, reply_timeout_s=reply_timeout_s)


class TestRoundTrip:
    def test_bit_identical_to_direct_engine(self, engine, system):
        A, xs, golden, prepared = system
        shard = make_shard(engine, prepared)
        try:
            futures = [submit(shard, A, x) for x in xs]
            shard.drain()
            for f, g in zip(futures, golden):
                assert np.array_equal(f.result(timeout=0).y, g)
        finally:
            shard.close()

    def test_primed_key_serves_from_child_cache(self, engine, system):
        A, xs, golden, prepared = system
        shard = make_shard(engine, prepared)
        try:
            resp = multiply(shard, A, xs[0])
            assert resp.cache_hit, "primed key should be a child cache hit"
            assert np.array_equal(resp.y, golden[0])
            assert shard.stats()["worker"]["needop"] == 0
        finally:
            shard.close()

    def test_prepared_operand_submit(self, engine, system):
        _, xs, golden, prepared = system
        shard = make_shard(engine)
        try:
            resp = multiply(shard, prepared, xs[1])
            assert np.array_equal(resp.y, golden[1])
            # The operand handle is retained for restart re-warming.
            assert shard.stats()["worker"]["primed_keys"] >= 1
        finally:
            shard.close()

    def test_queue_depth_counts_queued_and_sent(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(engine, prepared)
        try:
            assert shard.queued() == 0
            submit(shard, A, xs[0])
            submit(shard, A, xs[1])
            assert shard.queued() == 2
            shard.drain()
            assert shard.queued() == 0
        finally:
            shard.close()


class TestAdmission:
    def test_overload_sheds_synchronously(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(
            engine, prepared,
            config=ServeConfig(batch_window_s=0.0, queue_depth=2),
        )
        try:
            submit(shard, A, xs[0])
            submit(shard, A, xs[1])
            with pytest.raises(ServerOverloadedError):
                submit(shard, A, xs[2])
            shard.drain()
        finally:
            shard.close()

    def test_closed_shard_refuses(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(engine, prepared)
        shard.close()
        with pytest.raises(ServerClosedError):
            submit(shard, A, xs[0])


class TestDeathAndRespawn:
    def test_sigkill_fails_inflight_with_shard_crash(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(engine, prepared)
        try:
            futures = [submit(shard, A, x) for x in xs]
            doomed = shard.kill_process()
            assert doomed == len(xs)
            assert not shard.alive
            assert shard.last_exit_code is not None and shard.last_exit_code < 0
            shard.drain()
            for f in futures:
                assert isinstance(
                    f.exception(timeout=0), ShardCrashError
                )
        finally:
            shard.close()

    def test_respawn_rewarns_shared_cache(self, engine, system):
        A, xs, golden, prepared = system
        shard = make_shard(engine, prepared)
        try:
            multiply(shard, A, xs[0])
            old_pid = shard.pid
            shard.kill_process()
            mode = shard.respawn()
            assert mode == "shared"
            assert shard.alive and shard.pid != old_pid
            resp = multiply(shard, A, xs[1])
            assert resp.cache_hit, "respawn should re-warm the primed key"
            assert np.array_equal(resp.y, golden[1])
            worker = shard.stats()["worker"]
            assert worker["spawns"] == 2
            assert worker["deaths"] == 1
        finally:
            shard.close()

    def test_respawn_falls_back_to_csr_when_arena_is_gone(self, engine):
        rng = np.random.default_rng(9)
        A = sparse.random(24, 24, density=0.2, random_state=9, format="csr")
        A.data = rng.standard_normal(A.nnz)
        x = rng.standard_normal(24)
        golden = engine.multiply(A, x).y
        prepared = engine.prepare(A)
        shard = make_shard(engine, prepared, reply_timeout_s=60.0)
        try:
            shard.kill_process()
            # Lose the shared segment between death and respawn: the
            # child's attach fails and the CSR arrays are shipped so it
            # re-prepares deterministically.
            prepared.arena._shm.unlink()
            mode = shard.respawn()
            assert mode == "csr"
            assert shard.stats()["worker"]["csr_reprimes"] == 1
            resp = multiply(shard, A, x)
            assert resp.cache_hit
            assert np.array_equal(resp.y, golden)
        finally:
            shard.close()
            prepared.release_shared()

    def test_hang_is_detected_and_killed(self, engine, system):
        A, xs, golden, prepared = system
        shard = make_shard(engine, prepared, reply_timeout_s=1.0)
        try:
            assert shard.inject_hang()
            future = submit(shard, A, xs[0])
            shard.drain()  # reply timeout -> hung -> SIGKILL
            assert not shard.alive
            assert isinstance(future.exception(timeout=0), ShardCrashError)
            assert shard.stats()["worker"]["hangs"] == 1
            assert shard.respawn() == "shared"
            assert np.array_equal(multiply(shard, A, xs[0]).y, golden[0])
        finally:
            shard.close()

    def test_permanent_kill_closes_shard(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(engine, prepared)
        future = submit(shard, A, xs[0])
        doomed = shard.kill(ShardCrashError("fabric kill", shard="w-test"))
        assert doomed == 1
        assert isinstance(future.exception(timeout=0), ShardCrashError)
        with pytest.raises(ServerClosedError):
            submit(shard, A, xs[0])


class TestLifecycle:
    def test_graceful_close_exits_zero(self, engine, system):
        A, xs, golden, prepared = system
        shard = make_shard(engine, prepared)
        future = submit(shard, A, xs[0])
        shard.close(drain=True)
        assert np.array_equal(future.result(timeout=0).y, golden[0])
        assert shard.last_exit_code == 0
        shard.close()  # idempotent

    def test_no_shared_memory_leak(self, engine, system):
        A, xs, _, _ = system
        before = set(glob.glob("/dev/shm/reproshm-*"))
        prepared = engine.prepare(A)
        shard = make_shard(engine, prepared)
        multiply(shard, A, xs[0])
        shard.kill_process()
        shard.respawn()
        multiply(shard, A, xs[1])
        shard.close()
        prepared.release_shared()
        assert set(glob.glob("/dev/shm/reproshm-*")) <= before

    def test_stats_shape_matches_server_contract(self, engine, system):
        A, xs, _, prepared = system
        shard = make_shard(engine, prepared)
        try:
            multiply(shard, A, xs[0])
            assert shard.ping()
            snap = shard.stats()
            for key in ("requests", "responses", "shed", "batches",
                        "batched_requests", "cache", "queued"):
                assert key in snap, key
            worker = snap["worker"]
            assert worker["alive"] is True
            assert worker["pid"] == shard.pid
            assert os.path.exists(f"/proc/{worker['pid']}")
        finally:
            shard.close()
