"""The serve key path: an exact match on a resident matrix, a hash on a miss.

A submit or prime whose matrix is already resident takes the entry's key
from a byte-for-byte compare (:meth:`PreparedCache.match`) and carries
the entry itself; only a miss canonicalizes the matrix once and hashes it
through :func:`repro.serve.server.serve_key`.  The dispatcher's batch
window is work-conserving: it is held only while nothing else is queued.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import sparse

from repro import Observer, ServeConfig, SolverSession, SpMVEngine, SpMVServer
from repro.serve import cache as cache_module
from repro.serve import server as server_module
from repro.serve.cache import MATCH_CANDIDATES, PreparedCache
from repro.serve.server import serve_key
from repro.tuning import TuningPoint, matrix_fingerprint
from repro.util import as_csr, canonical_csr

#: An explicit tuning point: prepares without a tuning search.
POINT = TuningPoint(block_height=1, block_width=1, slice_count=1).with_kernel(
    workgroup_size=64
)
N = 60


def make_matrix(seed: int, n: int = N, density: float = 0.08):
    return sparse.random(n, n, density=density, random_state=seed, format="csr")


@pytest.fixture
def engine():
    return SpMVEngine(backend="fast")


@pytest.fixture
def server(engine):
    srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
    yield srv
    srv.close()


@pytest.fixture
def hashed(monkeypatch):
    """Calls of ``serve_key`` made through the server module."""
    calls = []
    real = server_module.serve_key

    def counting(engine, csr):
        calls.append(csr)
        return real(engine, csr)

    monkeypatch.setattr(server_module, "serve_key", counting)
    return calls


@pytest.fixture
def compares(monkeypatch):
    """Array compares made by :meth:`PreparedCache.match`."""
    calls = []
    real = cache_module._same_bits

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(cache_module, "_same_bits", counting)
    return calls


def queued_key(srv: SpMVServer) -> str:
    """The key of the request a threadless server queued last."""
    return srv._queue[-1].key


class TestCanonicalKey:
    @pytest.mark.parametrize(
        "data, indices, indptr",
        [
            ([1.0, 0.0], [0, 1], [0, 1, 2]),  # an explicit zero
            ([1.0, 2.0, 3.0], [1, 1, 0], [0, 2, 3]),  # a duplicate
            ([1.0, 2.0, 3.0], [1, 0, 1], [0, 2, 3]),  # unsorted columns
        ],
        ids=["explicit-zero", "duplicate", "unsorted"],
    )
    def test_non_canonical_csr_keys_like_its_canonical_form(
        self, engine, data, indices, indptr
    ):
        A = sparse.csr_matrix(
            (np.array(data), np.array(indices), np.array(indptr)), shape=(2, 2)
        )
        assert canonical_csr(A) is not A
        assert serve_key(engine, A) == serve_key(engine, as_csr(A))

    def test_canonical_csr_is_hashed_in_place(self, engine):
        A = make_matrix(1)
        assert canonical_csr(A) is A

    def test_stale_canonical_flag_is_not_trusted(self, engine):
        A = sparse.csr_matrix(
            (np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 2])), shape=(1, 2)
        )
        assert A.has_canonical_format  # scipy caches the flag...
        A.indices[:] = [1, 0]  # ...which an in-place edit leaves stale
        assert canonical_csr(A) is not A
        assert serve_key(engine, A) == serve_key(engine, as_csr(A))

    def test_fingerprint_and_key_values_are_unchanged(self, engine):
        # Strings computed before the fingerprint hashed buffers in place:
        # tuning-store entries keyed by them must stay valid.
        tri = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(7, 7), format="csr")
        gappy = sparse.csr_matrix(
            (np.arange(1.0, 6.0), np.array([3, 0, 2, 1, 3]), np.array([0, 1, 1, 3, 5])),
            shape=(4, 5),
        )
        assert matrix_fingerprint(tri) == "2b8c0be48f4e4f9ec865fb5f"
        assert matrix_fingerprint(gappy) == "0c3ea3572dd65cba351b9814"
        assert serve_key(engine, tri) == (
            "gtx680:pruned:2b8c0be48f4e4f9ec865fb5f:f4ef9165dfe737ac"
        )
        wide = gappy.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        assert matrix_fingerprint(wide) == "0c3ea3572dd65cba351b9814"


class TestResidentMatch:
    def test_resident_raw_csr_is_matched_not_hashed(self, engine, server, hashed):
        A = make_matrix(2)
        prepared = engine.prepare(A, point=POINT)
        key = server.prime(prepared)
        assert len(hashed) == 1
        x = np.random.default_rng(0).standard_normal(N)
        fut = server.submit(A.copy(), x)
        assert queued_key(server) == key
        server.drain()
        assert len(hashed) == 1
        assert fut.result().cache_hit
        assert np.array_equal(fut.result().y, engine.multiply(prepared, x).y)
        stats = server.stats()
        assert (stats["key_matched"], stats["key_hashed"]) == (1, 1)

    def test_key_counters_reach_the_observer(self, engine):
        obs = Observer()
        srv = SpMVServer(
            engine, ServeConfig(batch_window_s=0.0), observer=obs, start=False
        )
        A = make_matrix(19)
        srv.prime(engine.prepare(A, point=POINT))  # hashed
        srv.submit(A, np.ones(N))  # matched
        srv.submit(make_matrix(20), np.ones(N))  # hashed
        stats = srv.stats()
        assert obs.metrics.get("serve.key.matched").value() == stats["key_matched"] == 1
        assert obs.metrics.get("serve.key.hashed").value() == stats["key_hashed"] == 2
        srv.kill()

    def test_prepared_handle_matches_by_identity(self, engine, server, compares):
        prepared = engine.prepare(make_matrix(3), point=POINT)
        key = server.prime(prepared)
        compares.clear()
        server.submit(prepared, np.ones(N))
        assert queued_key(server) == key
        assert len(compares) == 3  # data, indices, indptr: each `is`
        assert server._queue[-1].prepared is prepared

    def test_prime_of_a_resident_matrix_is_matched(self, engine, server, hashed):
        A = make_matrix(4)
        key = server.prime(engine.prepare(A, point=POINT))
        twin = engine.prepare(A.copy(), point=POINT)
        assert server.prime(twin) == key
        assert len(hashed) == 1
        assert server.stats()["key_matched"] == 1

    def test_one_ulp_change_misses_and_gets_a_new_key(self, engine, server, hashed):
        A = make_matrix(5)
        prepared = engine.prepare(A, point=POINT)
        key = server.prime(prepared)
        B = A.copy()
        B.data[7] = np.nextafter(B.data[7], np.inf)
        x = np.random.default_rng(1).standard_normal(N)
        fut = server.submit(B, x)
        assert queued_key(server) != key
        assert queued_key(server) == serve_key(engine, as_csr(B))
        assert len(hashed) == 2
        server.drain()
        assert not fut.result().cache_hit
        expected = engine.multiply(engine.prepare(as_csr(B)), x).y
        assert np.array_equal(fut.result().y, expected)

    def test_caller_mutation_after_a_hit_submit(self, engine, server):
        A = make_matrix(6)
        prepared = engine.prepare(A, point=POINT)
        key = server.prime(prepared)
        caller = A.copy()
        x = np.random.default_rng(2).standard_normal(N)
        before = engine.multiply(prepared, x).y
        fut = server.submit(caller, x)
        assert server.stats()["key_matched"] == 1
        caller.data *= 3.0
        server.drain()
        assert np.array_equal(fut.result().y, before)
        fut2 = server.submit(caller, x)
        assert queued_key(server) != key
        server.drain()
        after = engine.multiply(engine.prepare(as_csr(caller)), x).y
        assert np.array_equal(fut2.result().y, after)
        assert not np.array_equal(after, before)

    def test_caller_mutation_after_a_miss_submit(self, engine, server):
        caller = make_matrix(7)
        x = np.random.default_rng(3).standard_normal(N)
        before = engine.multiply(engine.prepare(as_csr(caller)), x).y
        fut = server.submit(caller, x)
        key = queued_key(server)
        assert server.stats()["key_hashed"] == 1
        caller.data *= 3.0
        server.drain()
        assert np.array_equal(fut.result().y, before)
        fut2 = server.submit(caller, x)
        assert queued_key(server) != key
        server.drain()
        after = engine.multiply(engine.prepare(as_csr(caller)), x).y
        assert np.array_equal(fut2.result().y, after)

    def test_entry_evicted_before_dispatch_is_readmitted(
        self, engine, server, monkeypatch
    ):
        A = make_matrix(8)
        prepared = engine.prepare(A, point=POINT)
        key = server.prime(prepared)
        x = np.ones(N)
        fut = server.submit(A.copy(), x)
        server.cache.remove(key)

        def no_prepare(*args, **kwargs):
            raise AssertionError("a matched request must not prepare")

        monkeypatch.setattr(engine, "prepare", no_prepare)
        server.drain()
        assert np.array_equal(fut.result().y, engine.multiply(prepared, x).y)
        assert server.cache.peek(key) is prepared

    def test_at_most_four_compares_before_hashing(
        self, engine, server, hashed, compares
    ):
        A = make_matrix(9)
        rng = np.random.default_rng(4)
        current = engine.prepare(A, point=POINT)
        server.prime(current)
        history = [current]
        for _ in range(50):
            current = engine.update_values(current, rng.uniform(1.0, 2.0, A.nnz))
            server.prime(current)
            history.append(current)
        assert len(server.cache) == 51
        hashed.clear()
        compares.clear()
        fresh = A.copy()
        fresh.data = rng.uniform(1.0, 2.0, A.nnz)
        server.submit(fresh, np.ones(N))
        assert len(compares) <= MATCH_CANDIDATES == 4
        assert len(hashed) == 1

        # The second newest value set is among the candidates; an older
        # one is not, so it is hashed -- and still found resident.
        newer, older = history[-2].csr.copy(), history[10].csr.copy()
        hashed.clear()
        server.submit(newer, np.ones(N))
        assert len(hashed) == 0
        server.submit(older, np.ones(N))
        assert len(hashed) == 1
        assert server._queue[-1].key in server.cache
        server.drain()
        assert server.cache.misses == 1  # only the fresh value set


class TestNoStaleMatch:
    @pytest.mark.parametrize("how", ["evict", "remove", "clear", "kill"])
    def test_gone_entries_are_never_matched(self, engine, how):
        budget = 1 if how == "evict" else None
        srv = SpMVServer(
            engine,
            ServeConfig(batch_window_s=0.0, cache_budget_bytes=budget),
            start=False,
        )
        A, B = make_matrix(10), make_matrix(11)
        gone_key = srv.prime(engine.prepare(A, point=POINT))
        assert srv.cache.match(A).key == gone_key
        if how == "evict":
            srv.prime(engine.prepare(B, point=POINT))
        elif how == "remove":
            srv.cache.remove(gone_key)
        elif how == "clear":
            srv.cache.clear()
        else:
            srv.kill()
        assert srv.cache.match(A) is None
        assert srv.cache.match(A.copy()) is None
        if how == "evict":
            assert srv.cache.match(B) is not None
        srv.close()

    def test_replaced_key_is_matched_by_its_new_entry_only(self, engine):
        cache = PreparedCache()
        old = engine.prepare(make_matrix(12), point=POINT)
        new = engine.prepare(make_matrix(13), point=POINT)
        cache.put("k", old)
        cache.put("k", new)
        assert cache.match(old.csr) is None
        assert cache.match(new.csr).prepared is new

    def test_only_scipy_csr_is_matched(self, engine):
        cache = PreparedCache()
        prepared = engine.prepare(make_matrix(14), point=POINT)
        cache.put("k", prepared)
        assert cache.match(prepared.csr.tocoo()) is None
        assert cache.match(prepared.csr.toarray()) is None
        assert cache.match(sparse.csr_array(prepared.csr)).key == "k"

    def test_nan_values_match_as_bits(self, engine):
        A = make_matrix(15)
        A.data[3] = np.nan
        cache = PreparedCache()
        cache.put("k", engine.prepare(A, point=POINT))
        assert cache.match(A.copy()).key == "k"
        negated = A.copy()
        negated.data[3] = -negated.data[3]  # another NaN bit pattern
        assert cache.match(negated) is None


class TestWorkConservingWindow:
    def test_queued_work_for_another_key_ends_the_window(self, engine):
        A, B = make_matrix(16), make_matrix(17)
        srv = SpMVServer(engine, ServeConfig(batch_window_s=5.0))
        try:
            srv.prime(engine.prepare(A, point=POINT))
            srv.prime(engine.prepare(B, point=POINT))
            x = np.ones(N)
            t0 = time.monotonic()
            fa = srv.submit(A, x)
            time.sleep(0.05)  # the dispatcher holds A's window by now
            fb = srv.submit(B, x)
            assert np.allclose(fa.result(timeout=4.0).y, A @ x)
            assert time.monotonic() - t0 < 2.5
        finally:
            srv.close()  # ends the lone B's window
        assert np.allclose(fb.result(timeout=0).y, B @ x)

    def test_a_lone_request_still_waits_the_window(self, engine):
        A = make_matrix(18)
        with SpMVServer(engine, ServeConfig(batch_window_s=0.3)) as srv:
            srv.prime(engine.prepare(A, point=POINT))
            t0 = time.monotonic()
            fut = srv.submit(A, np.ones(N))
            fut.result(timeout=30)
            assert time.monotonic() - t0 >= 0.29


class TestServedSolve:
    def test_served_cg_hashes_no_key_after_priming(self, engine, server, hashed):
        n = 200
        A = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        session = SolverSession(
            engine.prepare(A, point=POINT), engine=engine, server=server
        )
        assert len(hashed) == 1  # the prime
        res = session.solve(np.ones(n), method="cg", tol=1e-10)
        assert res.converged
        assert len(hashed) == 1
        assert server.stats()["key_matched"] == res.spmv_count > 1

    def test_refreshes_from_one_reused_buffer(self, engine, server):
        # A time-stepping caller rewrites one value buffer in place and
        # refreshes the served session from it after every step: each
        # refreshed matrix must be served with its own values, never a
        # previous step's.
        n = 200
        A = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        session = SolverSession(
            engine.prepare(A, point=POINT), engine=engine, server=server
        )
        rng = np.random.default_rng(5)
        x, b = rng.standard_normal(n), np.ones(n)
        buf = np.empty(A.nnz)
        keys = set()
        for scale in (2.0, 3.0):
            buf[:] = A.data * scale
            keys.add(server.prime(session.update_values(buf)))
            current = session.prepared
            expected = engine.multiply(current, x).y
            assert np.array_equal(session.multiply(x), expected)
            fut = server.submit(A * scale, x)
            server.drain()
            assert np.array_equal(fut.result().y, expected)
            served = session.solve(b, method="cg", tol=1e-10)
            direct = SolverSession(current, engine=engine).solve(
                b, method="cg", tol=1e-10
            )
            assert served.converged
            assert np.array_equal(served.x, direct.x)
        assert len(keys) == 2
