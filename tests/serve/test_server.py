"""Unit tests for :class:`repro.serve.SpMVServer`.

Deterministic (threadless) mode throughout: servers are built with
``start=False`` and processed via :meth:`drain`, so batch formation
depends only on what is queued -- no timing races.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import (
    DeadlineExceeded,
    Observer,
    ServeConfig,
    ServerClosedError,
    ServerOverloadedError,
    SpMVEngine,
    SpMVServer,
    ValidationError,
)
from repro.fault import FaultPlan
from repro.serve import serve_key
from repro.util import as_csr


def make_matrix(seed: int, n: int = 120, density: float = 0.05):
    return sparse.random(n, n, density=density, random_state=seed, format="csr")


@pytest.fixture
def matrix():
    return make_matrix(1)


@pytest.fixture
def server():
    srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
    yield srv
    srv.close()


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TickingClock(FakeClock):
    """Advances a second per reading, so a shorter deadline expires
    between a request's enqueue and its dispatch."""

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestSubmitValidation:
    def test_wrong_length_rejected(self, server, matrix):
        with pytest.raises(ValidationError):
            server.submit(matrix, np.ones(7))

    def test_3d_rhs_rejected(self, server, matrix):
        with pytest.raises(ValidationError):
            server.submit(matrix, np.ones((120, 2, 2)))

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServeConfig(batch_window_s=-1.0)
        with pytest.raises(ValidationError):
            ServeConfig(queue_depth=0)

    def test_negative_timeout_and_budget_rejected_at_config(self):
        with pytest.raises(ValidationError, match="cache_budget_bytes"):
            ServeConfig(cache_budget_bytes=-5)
        ServeConfig(cache_budget_bytes=0)


class TestBatching:
    def test_same_matrix_requests_coalesce(self, server, matrix):
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal(120) for _ in range(6)]
        futs = [server.submit(matrix, x) for x in xs]
        server.drain()
        responses = [f.result() for f in futs]
        for x, r in zip(xs, responses):
            assert np.allclose(r.y, matrix @ x)
            assert r.batched and r.batch_size == 6
        assert server.n_batches == 1
        assert server.n_batched_requests == 6

    def test_different_matrices_do_not_coalesce(self, server):
        A, B = make_matrix(1), make_matrix(2)
        fa = server.submit(A, np.ones(120))
        fb = server.submit(B, np.ones(120))
        server.drain()
        assert not fa.result().batched
        assert not fb.result().batched
        assert server.n_batches == 2

    def test_max_batch_respected(self, matrix):
        srv = SpMVServer(
            start=False, config=ServeConfig(max_batch=4, batch_window_s=0.0)
        )
        futs = [server_submit for server_submit in (
            srv.submit(matrix, np.ones(120)) for _ in range(10)
        )]
        srv.drain()
        sizes = sorted(f.result().batch_size for f in futs)
        assert sizes == [2, 2, 4, 4, 4, 4, 4, 4, 4, 4]
        assert srv.n_batches == 3
        srv.close()

    def test_2d_request_dispatches_solo(self, server, matrix):
        X = np.random.default_rng(1).standard_normal((120, 3))
        f1 = server.submit(matrix, np.ones(120))
        f2 = server.submit(matrix, X)
        server.drain()
        assert not f2.result().batched
        assert np.allclose(f2.result().y, matrix @ X)
        # The 1-D request must not have been folded into the 2-D one.
        assert f1.result().y.ndim == 1

    def test_batch_columns_bit_identical_to_sequential(self, matrix):
        eng = SpMVEngine()
        srv = SpMVServer(eng, ServeConfig(batch_window_s=0.0), start=False)
        prepared = eng.prepare(matrix)
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal(120) for _ in range(5)]
        futs = [srv.submit(matrix, x) for x in xs]
        srv.drain()
        for x, f in zip(xs, futs):
            expected = eng.multiply(prepared, x).y
            assert np.array_equal(f.result().y, expected)  # bit-identical
        srv.close()

    def test_wide_batches_split_to_device_limit(self, matrix):
        obs = Observer()
        eng = SpMVEngine(observer=obs)
        prepared = eng.prepare(matrix)
        max_k = eng.max_batch_width(prepared)
        n = max_k + 3
        srv = SpMVServer(
            eng,
            ServeConfig(max_batch=n, batch_window_s=0.0),
            observer=obs,
            start=False,
        )
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal(120) for _ in range(n)]
        futs = [srv.submit(matrix, x) for x in xs]
        srv.drain()
        for x, f in zip(xs, futs):
            assert np.allclose(f.result().y, matrix @ x)
        # One coalesced batch, split into ceil(n / max_k) dispatches --
        # never a KernelConfigError, never a per-vector fallback.
        assert srv.n_batch_fallbacks == 0
        assert srv.n_batches == -(-n // max_k)
        spans = obs.tracer.find_all("serve.batch")
        assert len(spans) == 1
        assert spans[0].attrs["split_k"] == max_k
        srv.close()


class TestCaching:
    def test_hits_plus_misses_equals_requests(self, server, matrix):
        futs = [server.submit(matrix, np.ones(120)) for _ in range(7)]
        server.drain()
        for f in futs:
            f.result()
        assert server.cache.hits + server.cache.misses == 7
        assert server.cache.misses == 1  # one prepare for the whole burst

    def test_cache_hit_skips_prepare(self, matrix):
        obs = Observer()
        srv = SpMVServer(
            SpMVEngine(observer=obs),
            ServeConfig(batch_window_s=0.0),
            observer=obs,
            start=False,
        )
        srv.multiply(matrix, np.ones(120))
        prepares_before = len(obs.tracer.find_all("engine.prepare"))
        r = srv.multiply(matrix, np.ones(120))
        assert r.cache_hit
        assert len(obs.tracer.find_all("engine.prepare")) == prepares_before
        srv.close()

    def test_pre_prepared_matrix_admitted_without_tuning(self, matrix):
        obs = Observer()
        eng = SpMVEngine(observer=obs)
        prepared = eng.prepare(matrix)
        srv = SpMVServer(eng, ServeConfig(batch_window_s=0.0), observer=obs, start=False)
        prepares_before = len(obs.tracer.find_all("engine.prepare"))
        r = srv.multiply(prepared, np.ones(120))
        assert np.allclose(r.y, matrix @ np.ones(120))
        assert len(obs.tracer.find_all("engine.prepare")) == prepares_before
        srv.close()

    def test_same_structure_different_values_not_conflated(self, server):
        # The iterative-solver pattern: identical sparsity, refreshed
        # values.  The serve key hashes values, so the second matrix
        # must get its own prepare/cache entry and its own product --
        # and the two must never coalesce into one batch.
        A = make_matrix(1)
        B = A.copy()
        B.data = B.data * 2.0 + 1.0
        x = np.random.default_rng(7).standard_normal(120)
        fa = server.submit(A, x)
        fb = server.submit(B, x)
        server.drain()
        assert np.allclose(fa.result().y, A @ x)
        assert np.allclose(fb.result().y, B @ x)
        assert not np.allclose(fa.result().y, fb.result().y)
        assert not fa.result().batched and not fb.result().batched
        assert server.n_batches == 2
        assert server.cache.misses == 2

    def test_value_refresh_after_cache_hit_recomputes(self, server):
        # Sequential flavour of the same pattern: serve A, update the
        # values in place of a structural copy, serve again -- the
        # second answer must come from the new values, not the entry
        # cached for the old ones.
        A = make_matrix(2)
        x = np.ones(120)
        assert np.allclose(server.multiply(A, x).y, A @ x)
        A2 = A.copy()
        A2.data = A2.data + 0.5
        r = server.multiply(A2, x)
        assert np.allclose(r.y, A2 @ x)
        assert not r.cache_hit
        assert server.cache.misses == 2

    def test_eviction_under_tiny_budget(self):
        srv = SpMVServer(
            start=False,
            config=ServeConfig(batch_window_s=0.0, cache_budget_bytes=1),
        )
        A, B = make_matrix(1), make_matrix(2)
        srv.multiply(A, np.ones(120))
        srv.multiply(B, np.ones(120))
        assert srv.cache.evictions == 1
        assert len(srv.cache) == 1
        srv.close()


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, matrix):
        srv = SpMVServer(
            start=False,
            config=ServeConfig(queue_depth=3, batch_window_s=0.0),
        )
        for _ in range(3):
            srv.submit(matrix, np.ones(120))
        with pytest.raises(ServerOverloadedError) as exc_info:
            srv.submit(matrix, np.ones(120))
        assert exc_info.value.queue_depth == 3
        assert exc_info.value.pending == 3
        assert srv.n_shed == 1
        srv.drain()
        assert srv.n_responses == 3
        srv.close()

    def test_deadline_expired_in_queue(self, matrix):
        clock = FakeClock()
        srv = SpMVServer(
            start=False,
            config=ServeConfig(batch_window_s=0.0),
            clock=clock,
        )
        fut = srv.submit(matrix, np.ones(120), timeout_s=0.5)
        clock.advance(1.0)
        srv.drain()
        with pytest.raises(DeadlineExceeded):
            fut.result()
        assert srv.n_deadline_expired == 1
        srv.close()

    def test_live_requests_survive_expired_neighbours(self, matrix):
        clock = FakeClock()
        srv = SpMVServer(
            start=False, config=ServeConfig(batch_window_s=0.0), clock=clock
        )
        doomed = srv.submit(matrix, np.ones(120), timeout_s=0.1)
        healthy = srv.submit(matrix, np.ones(120))
        clock.advance(1.0)
        srv.drain()
        assert isinstance(doomed.exception(), DeadlineExceeded)
        assert np.allclose(healthy.result().y, matrix @ np.ones(120))
        srv.close()


class TestContainment:
    def test_batch_fallback_when_batch_dispatch_fails(self, matrix, monkeypatch):
        # A poisoned batch must not fail its members: when the coalesced
        # SpMM dispatch raises, the server re-runs each request alone.
        from repro.errors import KernelConfigError

        eng = SpMVEngine()
        srv = SpMVServer(eng, ServeConfig(batch_window_s=0.0), start=False)

        def boom(prepared, X):
            raise KernelConfigError("injected batch failure")

        monkeypatch.setattr(eng, "multiply_many", boom)
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal(120) for _ in range(4)]
        futs = [srv.submit(matrix, x) for x in xs]
        srv.drain()
        for x, f in zip(xs, futs):
            r = f.result()
            assert np.allclose(r.y, matrix @ x)
            assert not r.batched  # served by the per-vector fallback
        assert srv.n_batch_fallbacks == 1
        srv.close()

    def test_injected_fault_contained_by_engine(self, matrix):
        # A permissive engine's own fallback chain absorbs injected
        # faults; the served batch stays on the SpMM path and the
        # answers stay correct.
        eng = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("sync.stale_grp_sum", seed=7, count=None),
        )
        srv = SpMVServer(eng, ServeConfig(batch_window_s=0.0), start=False)
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal(120) for _ in range(4)]
        futs = [srv.submit(matrix, x) for x in xs]
        srv.drain()
        for x, f in zip(xs, futs):
            assert np.allclose(f.result().y, matrix @ x)
        assert srv.n_batch_fallbacks == 0
        srv.close()


class TestRunKeyed:
    """``run_keyed``: already keyed requests, as a shard sends them."""

    def test_one_drain_without_admission_or_counting(self, matrix):
        config = ServeConfig(batch_window_s=0.0, queue_depth=2)
        srv = SpMVServer(config=config, start=False, clock=TickingClock())
        csr = as_csr(matrix)
        key = serve_key(srv.engine, csr)
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal(120) for _ in range(3)]
        futures = srv.run_keyed(
            [(key, csr, None, x, None) for x in xs]
            + [(key, csr, None, np.ones(120), 0.5)]
        )
        assert all(f.done() for f in futures)
        assert isinstance(futures[-1].exception(), DeadlineExceeded)
        snap = srv.stats()
        # Four requests past a queue bound of 2: none shed, none counted,
        # and the three live ones coalesce into one dispatch.
        assert (snap["requests"], snap["shed"]) == (0, 0)
        assert (snap["batches"], snap["batched_requests"]) == (1, 3)
        twin = SpMVServer(config=ServeConfig(batch_window_s=0.0), start=False)
        expected = [twin.submit(matrix, x) for x in xs]
        twin.drain()
        for got, want in zip(futures, expected):
            assert np.array_equal(got.result().y, want.result().y)
        srv.close()
        twin.close()


class TestLifecycle:
    def test_submit_after_close_raises(self, matrix):
        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        srv.close()
        with pytest.raises(ServerClosedError):
            srv.submit(matrix, np.ones(120))

    def test_close_without_drain_fails_queued_futures(self, matrix):
        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        fut = srv.submit(matrix, np.ones(120))
        srv.close(drain=False)
        assert isinstance(fut.exception(), ServerClosedError)

    def test_close_with_drain_completes_queued_futures(self, matrix):
        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        fut = srv.submit(matrix, np.ones(120))
        srv.close(drain=True)
        assert np.allclose(fut.result().y, matrix @ np.ones(120))

    def test_close_idempotent(self):
        srv = SpMVServer(start=False)
        srv.close()
        srv.close()

    def test_context_manager(self, matrix):
        with SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0)) as srv:
            fut = srv.submit(matrix, np.ones(120))
        assert np.allclose(fut.result().y, matrix @ np.ones(120))

    def test_threaded_server_round_trip(self, matrix):
        with SpMVServer(config=ServeConfig(batch_window_s=0.001)) as srv:
            rng = np.random.default_rng(6)
            xs = [rng.standard_normal(120) for _ in range(8)]
            futs = [srv.submit(matrix, x) for x in xs]
            for x, f in zip(xs, futs):
                assert np.allclose(f.result(timeout=60).y, matrix @ x)

    def test_drain_waits_out_the_batch_window(self, matrix):
        # Regression: the dispatcher pops requests before waiting out
        # the batch window; drain() must not observe that gap (empty
        # queue, nothing in flight) and return early.
        srv = SpMVServer(config=ServeConfig(batch_window_s=0.2))
        fut = srv.submit(matrix, np.ones(120))
        srv.drain()
        assert fut.done()
        assert np.allclose(fut.result().y, matrix @ np.ones(120))
        srv.close()

    def test_future_timeout(self, matrix):
        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        fut = srv.submit(matrix, np.ones(120))
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)  # never drained
        srv.close()

    def test_future_timeout_is_typed_and_picklable(self, matrix):
        import pickle

        from repro.errors import ServeTimeout

        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        fut = srv.submit(matrix, np.ones(120))
        with pytest.raises(ServeTimeout) as exc_info:
            fut.result(timeout=0.01)
        assert exc_info.value.waited_s == pytest.approx(0.01)
        assert isinstance(exc_info.value, TimeoutError)  # stdlib-compatible
        with pytest.raises(ServeTimeout):
            fut.exception(timeout=0.01)
        clone = pickle.loads(pickle.dumps(exc_info.value))
        assert isinstance(clone, ServeTimeout)
        assert str(clone) == str(exc_info.value)
        srv.close(drain=False)

    def test_threaded_close_without_drain_fails_queued_futures(self, matrix):
        # Regression: close(drain=False) on a *threaded* server must
        # fail still-queued futures promptly -- even while the
        # dispatcher is stuck mid-batch -- instead of leaving result()
        # callers blocked forever.
        import threading

        release = threading.Event()
        started = threading.Event()

        class BlockingEngine(SpMVEngine):
            def multiply(self, *args, **kwargs):
                started.set()
                release.wait(10.0)
                return super().multiply(*args, **kwargs)

            def multiply_many(self, *args, **kwargs):
                started.set()
                release.wait(10.0)
                return super().multiply_many(*args, **kwargs)

        srv = SpMVServer(
            BlockingEngine(), ServeConfig(batch_window_s=0.0, max_batch=1)
        )
        in_flight = srv.submit(matrix, np.ones(120))
        assert started.wait(10.0)  # dispatcher is mid-batch on in_flight
        queued = srv.submit(matrix, np.ones(120))
        closer = threading.Thread(target=lambda: srv.close(drain=False))
        closer.start()
        # The queued future fails promptly, while the dispatcher is
        # still blocked on the in-flight batch.
        assert isinstance(queued.exception(timeout=5.0), ServerClosedError)
        assert not in_flight.done()
        # The in-flight batch still completes -- the work was already
        # "on the device" when the server was killed.
        release.set()
        closer.join(10.0)
        assert not closer.is_alive()
        assert np.allclose(
            in_flight.result(timeout=5.0).y, matrix @ np.ones(120)
        )

    def test_kill_fails_queued_with_custom_error(self, matrix):
        from repro.errors import ShardCrashError

        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))
        srv.multiply(matrix, np.ones(120))  # populate the cache
        fut = srv.submit(matrix, np.ones(120))
        doomed = srv.kill(ShardCrashError("shard died", shard="shard-0"))
        assert doomed == 1
        with pytest.raises(ShardCrashError) as exc_info:
            fut.result(timeout=0)
        assert exc_info.value.shard == "shard-0"
        # A killed shard loses its device memory: the cache is dropped.
        assert len(srv.cache) == 0
        with pytest.raises(ServerClosedError):
            srv.submit(matrix, np.ones(120))

    def test_unexpected_exception_contained(self, matrix, monkeypatch):
        # A non-ReproError escaping the dispatch path must resolve the
        # batch's futures (and count an internal error), not kill the
        # dispatcher with callers blocked.
        srv = SpMVServer(start=False, config=ServeConfig(batch_window_s=0.0))

        def boom(*args, **kwargs):
            raise RuntimeError("unexpected bug in prepare")

        monkeypatch.setattr(srv.engine, "prepare", boom)
        fut = srv.submit(matrix, np.ones(120))
        srv.drain()
        with pytest.raises(RuntimeError):
            fut.result(timeout=0)
        assert srv.n_internal_errors == 1
        assert srv.stats()["internal_errors"] == 1
        monkeypatch.undo()
        # The server keeps serving afterwards.
        fut2 = srv.submit(matrix, np.ones(120))
        srv.drain()
        assert np.allclose(fut2.result(timeout=0).y, matrix @ np.ones(120))
        srv.close()


class TestObservability:
    def test_serve_metrics_reconcile_with_plain_counters(self, matrix):
        obs = Observer()
        srv = SpMVServer(
            SpMVEngine(observer=obs),
            ServeConfig(batch_window_s=0.0),
            observer=obs,
            start=False,
        )
        futs = [srv.submit(matrix, np.ones(120)) for _ in range(5)]
        srv.drain()
        for f in futs:
            f.result()
        m = obs.metrics
        assert m.get("serve.requests").value() == srv.n_requests == 5
        assert m.get("serve.responses").value() == srv.n_responses == 5
        assert m.get("serve.batches").value() == srv.n_batches
        assert (
            m.get("serve.cache.hits").value()
            + m.get("serve.cache.misses").value()
            == 5
        )
        spans = obs.tracer.find_all("serve.batch")
        assert len(spans) == srv.n_batches
        assert sum(s.attrs["size"] for s in spans) == 5
        srv.close()

    def test_explicit_observer_installed_on_engine(self):
        obs = Observer()
        srv = SpMVServer(observer=obs, start=False)
        assert srv.engine.observer is obs
        srv.close()

    def test_stats_shape(self, server, matrix):
        server.multiply(matrix, np.ones(120))
        snap = server.stats()
        for field in (
            "requests", "responses", "shed", "batches", "batched_requests",
            "batch_fallbacks", "deadline_expiries", "queued", "cache",
        ):
            assert field in snap
        assert snap["requests"] == 1
        assert snap["cache"]["misses"] == 1
