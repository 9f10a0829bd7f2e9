"""Solver sessions through the serve layer: bit-identity, failover,
value refresh, and the serve layer's fast-backend default.

The tentpole contract: a solve whose iterations stream through a server
or fabric is *bit-identical* -- every iterate, every residual, the
final solution -- to the in-process solve, under both backends and
under a seeded mid-solve shard crash.  The serve layer may add routing,
caching, batching and failover; it must never add semantics.
"""

import numpy as np
import pytest
from scipy import sparse

from repro import ServeFabric, SpMVEngine, SpMVServer, solve
from repro.errors import ReproError
from repro.fault import FaultPlan
from repro.fault.injection import fault_scope
from repro.serve import run_chaos_drill
from repro.solvers import SolverSession


def spd_system(n=150):
    A = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    return A, np.ones(n)


def nonsymmetric_system(n=120, seed=7):
    A = sparse.random(n, n, density=0.05, random_state=seed, format="csr")
    return (A + sparse.eye(n) * 10.0).tocsr(), np.ones(n)


def assert_bit_identical(direct, served):
    assert np.array_equal(direct.x, served.x)
    assert direct.history == served.history
    assert len(direct.iterates) == len(served.iterates)
    for d, s in zip(direct.iterates, served.iterates):
        assert np.array_equal(d, s)


class TestServedBitIdentity:
    @pytest.mark.parametrize("backend", ["faithful", "fast"])
    @pytest.mark.parametrize(
        "method,system", [("cg", spd_system), ("gmres", nonsymmetric_system)]
    )
    def test_server_matches_direct(self, backend, method, system):
        A, b = system()
        direct = solve(A, b, method=method, engine=SpMVEngine(backend=backend),
                       keep_iterates=True)
        server = SpMVServer(SpMVEngine(backend=backend), start=False)
        try:
            served = solve(A, b, method=method, server=server,
                           keep_iterates=True)
        finally:
            server.close()
        assert served.served and not direct.served
        assert_bit_identical(direct, served)

    def test_fabric_matches_direct(self):
        A, b = nonsymmetric_system()
        direct = solve(A, b, method="gmres", restart=30, keep_iterates=True)
        fabric = ServeFabric(3, start=False)
        try:
            served = solve(A, b, method="gmres", restart=30, server=fabric,
                           keep_iterates=True)
        finally:
            fabric.close()
        assert_bit_identical(direct, served)

    def test_session_prime_makes_iterations_cache_hits(self):
        A, b = spd_system()
        server = SpMVServer(start=False)
        try:
            res = solve(A, b, method="cg", server=server)
        finally:
            server.close()
        # The session primes its prepared matrix before the first
        # request, so every iteration hits the serve cache.
        assert res.cache_hits == res.spmv_count

    def test_threaded_server_also_identical(self):
        A, b = spd_system()
        direct = solve(A, b, method="cg", keep_iterates=True)
        server = SpMVServer()  # background pump thread
        try:
            served = solve(A, b, method="cg", server=server,
                           keep_iterates=True)
        finally:
            server.close()
        assert_bit_identical(direct, served)


class TestMidSolveFailover:
    def test_shard_crash_does_not_perturb_the_solve(self):
        A, b = spd_system()
        direct = solve(A, b, method="gmres", restart=30, keep_iterates=True)
        plan = FaultPlan.parse("serve.shard_crash:p=0.6,count=2,seed=7")
        fabric = ServeFabric(3, start=False)
        try:
            with fault_scope(plan):
                served = solve(A, b, method="gmres", restart=30,
                               server=fabric, keep_iterates=True)
        finally:
            fabric.close()
        assert served.failovers >= 1, "seeded crash produced no failover"
        assert_bit_identical(direct, served)

    def test_cg_under_crash_and_fast_backend(self):
        A, b = spd_system()
        direct = solve(A, b, method="cg", engine=SpMVEngine(backend="fast"),
                       keep_iterates=True)
        plan = FaultPlan.parse("serve.shard_crash:p=0.5,count=1,seed=11")
        fabric = ServeFabric(3, start=False)  # fast shards by default
        try:
            with fault_scope(plan):
                served = solve(A, b, method="cg", server=fabric,
                               keep_iterates=True)
        finally:
            fabric.close()
        assert served.failovers >= 1
        assert_bit_identical(direct, served)


class TestMidSolveWorkerDeath:
    """Satellite: real SIGKILLs of forked workers mid-solve.

    Unlike ``serve.shard_crash`` (permanent, in-process), a
    ``serve.worker_kill`` leaves the shard alive: the in-flight
    iteration fails over to a surviving worker and the supervisor
    respawns the dead one, re-warming the session's primed matrix from
    its shared-memory segments.  The solve must not notice any of it.
    """

    def test_worker_sigkill_does_not_perturb_the_solve(self):
        A, b = spd_system()
        direct = solve(A, b, method="cg", keep_iterates=True)
        plan = FaultPlan.parse("serve.worker_kill:p=0.6,count=2,seed=7")
        fabric = ServeFabric(
            3, start=False, processes=True,
            reply_timeout_s=30.0,
        )
        try:
            with fault_scope(plan):
                served = solve(A, b, method="cg", server=fabric,
                               keep_iterates=True)
            # Let the supervisor finish healing the killed workers.
            fabric.tick(rounds=4)
            stats = fabric.stats()
        finally:
            fabric.close()
        assert stats["worker_kills"] >= 1, "seeded kill never fired"
        assert served.failovers >= 1
        sup = stats["supervisor"]
        assert sup["restarts"] + sup["degraded"] >= 1
        assert_bit_identical(direct, served)

    def test_gmres_under_worker_kill(self):
        A, b = nonsymmetric_system()
        direct = solve(A, b, method="gmres", restart=30, keep_iterates=True)
        plan = FaultPlan.parse("serve.worker_kill:p=0.5,count=1,seed=3")
        fabric = ServeFabric(
            2, start=False, processes=True,
            reply_timeout_s=30.0,
        )
        try:
            with fault_scope(plan):
                served = solve(A, b, method="gmres", restart=30,
                               server=fabric, keep_iterates=True)
            fabric.tick(rounds=4)
            stats = fabric.stats()
        finally:
            fabric.close()
        assert stats["worker_kills"] >= 1
        assert served.failovers >= 1
        assert_bit_identical(direct, served)


class TestSessionValueRefresh:
    def test_refresh_gets_new_cache_entry_plan_reused(self):
        A, b = spd_system()
        server = SpMVServer(start=False)
        try:
            sess = SolverSession(A, server=server)
            first = sess.prepared
            r1 = sess.solve(b, method="cg")
            entries_before = len(server.cache)
            sess.update_values(A * 1.5)
            # New value digest -> new serve key -> a second cache entry;
            # the structural plan is the same object.
            assert len(server.cache) == entries_before + 1
            assert sess.prepared.point is first.point
            assert sess.prepared.fmt.flags is first.fmt.flags
            r2 = sess.solve(b, method="cg")
        finally:
            server.close()
        assert r1.converged and r2.converged
        A2 = (A * 1.5).tocsr()
        np.testing.assert_allclose(
            np.asarray(A2 @ r2.x).ravel(), b, atol=1e-7
        )
        assert sess.value_refreshes == 1

    def test_refreshed_solve_matches_fresh_system(self):
        A, b = spd_system()
        sess = SolverSession(A, engine=SpMVEngine(backend="fast"))
        sess.solve(b, method="cg")
        A2 = (A * 2.0).tocsr()
        sess.update_values(A2)
        refreshed = sess.solve(b, method="cg", keep_iterates=True)
        fresh = solve(A2, b, method="cg", engine=SpMVEngine(backend="fast"),
                      keep_iterates=True)
        assert_bit_identical(fresh, refreshed)


class TestSessionValidation:
    def test_prepared_without_engine_rejected(self):
        A, b = spd_system()
        eng = SpMVEngine()
        prep = eng.prepare(A)
        with pytest.raises(ReproError, match="engine"):
            SolverSession(prep)

    def test_bogus_server_rejected(self):
        A, _ = spd_system()
        with pytest.raises(ReproError, match="server"):
            SolverSession(A, server=object())

    def test_session_counters_accumulate_across_solves(self):
        A, b = spd_system()
        sess = SolverSession(A)
        r1 = sess.solve(b, method="cg")
        r2 = sess.solve(b, method="cg")
        assert sess.spmv_count == r1.spmv_count + r2.spmv_count
        # Per-solve results report deltas, not session totals.
        assert r2.spmv_count == r1.spmv_count


class TestServeBackendDefault:
    """The serve layer defaults to the fast backend (PR pin)."""

    def test_server_default_engine_is_fast(self):
        server = SpMVServer(start=False)
        try:
            assert server.engine.backend.name == "fast"
        finally:
            server.close()

    def test_fabric_default_shards_are_fast(self):
        fabric = ServeFabric(2, start=False)
        try:
            assert all(
                s.engine.backend.name == "fast" for s in fabric.shards
            )
        finally:
            fabric.close()

    def test_explicit_engine_is_respected(self):
        eng = SpMVEngine(backend="faithful")
        server = SpMVServer(eng, start=False)
        try:
            assert server.engine is eng
            assert server.engine.backend.name == "faithful"
        finally:
            server.close()

    def test_chaos_drill_still_passes_with_fast_default(self):
        # The drill's golden arbiter pins an explicit faithful engine;
        # the serve default flip must leave it bit-exact.
        report = run_chaos_drill(
            shards=3, seed=7, cap_nnz=2_000, requests_per_matrix=2, kills=1
        )
        assert report.passed, report.summary()
