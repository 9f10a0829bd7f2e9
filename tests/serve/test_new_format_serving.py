"""The new formats through the serve layer: shm, processes, solves.

Merge-path CSR and RG-CSR prepared matrices must survive every
transport the serve layer uses -- the in-process request path, the
shared-memory arena, pickling into forked workers, and a SIGKILL'd
worker being respawned and re-warmed from the arena -- without changing
a single output bit.  Every test compares against the direct
``engine.multiply`` (or the direct in-process solve) with
``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import ServeFabric, SpMVEngine, SpMVServer
from repro.fault import FaultPlan
from repro.fault.injection import fault_scope
from repro.formats import MergeCSRMatrix, RGCSRMatrix
from repro.solvers import SolverSession
from repro.tuning import TuningPoint

FORMAT_POINTS = {
    "merge_csr": (TuningPoint(base_format="merge_csr"), MergeCSRMatrix),
    "rgcsr": (TuningPoint(base_format="rgcsr"), RGCSRMatrix),
}


def spd_system(n=150):
    A = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    return A, np.ones(n)


def assert_solves_identical(direct, served):
    assert np.array_equal(direct.x, served.x)
    assert direct.history == served.history
    assert len(direct.iterates) == len(served.iterates)
    for d, s in zip(direct.iterates, served.iterates):
        assert np.array_equal(d, s)


class TestServedRequests:
    """In-process server path: served column == direct multiply."""

    @pytest.mark.parametrize("label", sorted(FORMAT_POINTS))
    def test_server_matches_direct(self, label, rng):
        point, fmt_cls = FORMAT_POINTS[label]
        A = sparse.random(160, 160, density=0.05, random_state=5,
                          format="csr")
        engine = SpMVEngine()
        prepared = engine.prepare(A, point=point)
        assert isinstance(prepared.fmt, fmt_cls)
        xs = [rng.standard_normal(160) for _ in range(5)]
        server = SpMVServer(engine, start=False)
        try:
            futs = [server.submit(prepared, x) for x in xs]
            server.drain()
            for x, fut in zip(xs, futs):
                expected = engine.multiply(prepared, x).y
                assert np.array_equal(fut.result().y, expected)
        finally:
            server.close()


class TestProcessWorkers:
    """Forked workers: the prepared matrix crosses as an arena handle."""

    def test_merge_csr_survives_worker_kill(self, rng):
        point, fmt_cls = FORMAT_POINTS["merge_csr"]
        A = sparse.random(200, 200, density=0.06, random_state=9,
                          format="csr")
        engine = SpMVEngine()
        prepared = engine.prepare(A, point=point)
        assert isinstance(prepared.fmt, fmt_cls)
        xs = [rng.standard_normal(200) for _ in range(8)]
        expected = [engine.multiply(prepared, x).y for x in xs]

        plan = FaultPlan.parse("serve.worker_kill:p=0.6,count=2,seed=7")
        fabric = ServeFabric(
            3, start=False, processes=True,
            reply_timeout_s=30.0,
        )
        try:
            with fault_scope(plan):
                got = [fabric.multiply(prepared, x).y for x in xs]
            # Let the supervisor finish healing the killed workers.
            fabric.tick(rounds=4)
            stats = fabric.stats()
        finally:
            fabric.close()
        assert stats["worker_kills"] >= 1, "seeded kill never fired"
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)

    def test_rgcsr_through_processes_clean(self, rng):
        point, fmt_cls = FORMAT_POINTS["rgcsr"]
        A = sparse.random(200, 200, density=0.06, random_state=10,
                          format="csr")
        engine = SpMVEngine()
        prepared = engine.prepare(A, point=point)
        assert isinstance(prepared.fmt, fmt_cls)
        xs = [rng.standard_normal(200) for _ in range(4)]
        expected = [engine.multiply(prepared, x).y for x in xs]
        fabric = ServeFabric(
            2, start=False, processes=True,
            reply_timeout_s=30.0,
        )
        try:
            got = [fabric.multiply(prepared, x).y for x in xs]
        finally:
            fabric.close()
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)


class TestSolverSessions:
    def test_cg_over_merge_csr_under_worker_kill(self):
        A, b = spd_system()
        point, fmt_cls = FORMAT_POINTS["merge_csr"]
        engine = SpMVEngine()
        prepared = engine.prepare(A, point=point)
        assert isinstance(prepared.fmt, fmt_cls)

        direct = SolverSession(prepared, engine=engine).solve(
            b, method="cg", keep_iterates=True
        )
        plan = FaultPlan.parse("serve.worker_kill:p=0.6,count=2,seed=7")
        fabric = ServeFabric(
            3, start=False, processes=True,
            reply_timeout_s=30.0,
        )
        try:
            sess = SolverSession(prepared, engine=engine, server=fabric)
            with fault_scope(plan):
                served = sess.solve(b, method="cg", keep_iterates=True)
            fabric.tick(rounds=4)
            stats = fabric.stats()
        finally:
            fabric.close()
        assert stats["worker_kills"] >= 1, "seeded kill never fired"
        assert direct.converged and served.converged
        assert_solves_identical(direct, served)

    def test_cg_over_rgcsr_served_in_process(self):
        A, b = spd_system()
        point, fmt_cls = FORMAT_POINTS["rgcsr"]
        engine = SpMVEngine()
        prepared = engine.prepare(A, point=point)
        assert isinstance(prepared.fmt, fmt_cls)
        direct = SolverSession(prepared, engine=engine).solve(
            b, method="cg", keep_iterates=True
        )
        server = SpMVServer(engine, start=False)
        try:
            served = SolverSession(
                prepared, engine=engine, server=server
            ).solve(b, method="cg", keep_iterates=True)
        finally:
            server.close()
        assert direct.converged and served.converged
        assert_solves_identical(direct, served)

    def test_value_refresh_preserves_merge_structure(self):
        A, b = spd_system()
        point, _ = FORMAT_POINTS["merge_csr"]
        engine = SpMVEngine()
        sess = SolverSession(engine.prepare(A, point=point), engine=engine)
        first = sess.prepared
        sess.solve(b, method="cg")
        A2 = (A * 2.0).tocsr()
        sess.update_values(A2)
        # Structure is shared by identity across the refresh.
        assert sess.prepared.fmt.row_ptr is first.fmt.row_ptr
        assert sess.prepared.fmt.col_index is first.fmt.col_index
        refreshed = sess.solve(b, method="cg", keep_iterates=True)
        fresh = SolverSession(
            engine.prepare(A2, point=point), engine=engine
        ).solve(b, method="cg", keep_iterates=True)
        assert_solves_identical(fresh, refreshed)
