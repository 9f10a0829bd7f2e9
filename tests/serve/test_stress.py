"""Concurrency stress: many client threads against one threaded server.

Invariants pinned here:

* no lost responses -- every submitted request's future completes;
* no duplicated or cross-wired responses -- each answer matches *its own*
  request's ``A @ x``;
* the per-request cache accounting reconciles exactly:
  ``cache.hits + cache.misses == admitted requests``;
* the ``serve.*`` metrics reconcile with the tracer:
  ``serve.batches == #serve.batch spans`` and the span ``size``
  attributes sum to the admitted request count.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro import Observer, ServeConfig, ServerOverloadedError, SpMVEngine, SpMVServer
from repro.tuning import TuningStore

N = 100
N_THREADS = 8
REQUESTS_PER_THREAD = 12


@pytest.fixture(scope="module")
def matrices():
    return [
        sparse.random(N, N, density=0.05, random_state=seed, format="csr")
        for seed in (1, 2, 3)
    ]


def run_stress(server, matrices):
    """Fire N_THREADS * REQUESTS_PER_THREAD requests; return outcomes."""
    results = []  # (matrix_index, x, future)
    lock = threading.Lock()
    shed = [0]
    start = threading.Barrier(N_THREADS)

    def client(tid: int) -> None:
        rng = np.random.default_rng(1000 + tid)
        start.wait()
        for i in range(REQUESTS_PER_THREAD):
            m = (tid + i) % len(matrices)
            x = rng.standard_normal(N)
            try:
                fut = server.submit(matrices[m], x)
            except ServerOverloadedError:
                with lock:
                    shed[0] += 1
                continue
            with lock:
                results.append((m, x, fut))

    threads = [
        threading.Thread(target=client, args=(tid,)) for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.drain()
    return results, shed[0]


class TestStress:
    def test_no_lost_or_crosswired_responses(self, matrices):
        obs = Observer()
        engine = SpMVEngine(observer=obs)
        # Warm the tuner outside the clock: the stress run then measures
        # pure serving behaviour, not three tuning searches.
        prepared = [engine.prepare(A) for A in matrices]
        # Keep batches within every matrix's device shared-memory width so
        # dispatches are never chunked -- then one serve.batch span maps
        # to exactly one counted dispatch and the equality below is exact.
        max_batch = min([16] + [engine.max_batch_width(p) for p in prepared])
        server = SpMVServer(
            engine,
            ServeConfig(
                max_batch=max_batch, batch_window_s=0.001, queue_depth=4096
            ),
            observer=obs,
            start=True,
        )
        try:
            results, shed = run_stress(server, matrices)
            total = N_THREADS * REQUESTS_PER_THREAD
            assert shed == 0  # queue_depth ample: nothing shed
            assert len(results) == total

            # Every future completes with its own request's answer.
            for m, x, fut in results:
                r = fut.result(timeout=120)
                assert np.allclose(r.y, matrices[m] @ x, rtol=1e-9, atol=1e-9)

            # Counter reconciliation: responses cover every admitted
            # request exactly once.
            assert server.n_requests == total
            assert server.n_responses == total

            # Cache accounting: one logical lookup per request.
            assert server.cache.hits + server.cache.misses == total
            assert server.cache.misses == len(matrices)
            assert server.cache.hits == total - len(matrices)

            # Tracer reconciliation: one serve.batch span per formed
            # batch, and their sizes partition the admitted requests.
            spans = obs.tracer.find_all("serve.batch")
            assert len(spans) == server.n_batches + server.n_batch_fallbacks
            assert sum(s.attrs["size"] for s in spans) == total

            m = obs.metrics
            assert m.get("serve.requests").value() == total
            assert m.get("serve.responses").value() == total
            assert (
                m.get("serve.cache.hits").value()
                + m.get("serve.cache.misses").value()
                == total
            )
        finally:
            server.close()

    def test_resident_matches_race_evictions(self, matrices, tmp_path):
        """Clients key by exact match while a one-entry budget evicts
        under them: every answer is still its own request's, no key count
        is lost, and the match index ends consistent with the entries."""
        engine = SpMVEngine(
            backend="fast", plan_store=TuningStore(tmp_path / "plans.json")
        )
        # Warm the store: a miss after an eviction re-converts, never re-tunes.
        prepared = [engine.prepare(A) for A in matrices]
        server = SpMVServer(
            engine,
            ServeConfig(
                max_batch=8, batch_window_s=0.0005, queue_depth=4096,
                cache_budget_bytes=1,
            ),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for p in prepared:
                server.prime(p)
            results, shed = run_stress(server, matrices)
            total = N_THREADS * REQUESTS_PER_THREAD
            assert shed == 0 and len(results) == total
            for m, x, fut in results:
                r = fut.result(timeout=120)
                assert np.array_equal(r.y, engine.multiply(prepared[m], x).y)
            assert server.n_key_matched + server.n_key_hashed == total + len(matrices)
            assert server.cache.evictions >= len(matrices) - 1
            cache = server.cache
            with cache._lock:
                indexed = sorted(k for keys in cache._index.values() for k in keys)
                assert indexed == sorted(cache._entries)
        finally:
            sys.setswitchinterval(interval)
            server.close()

    def test_backpressure_under_tiny_queue(self, matrices):
        """With queue_depth=2 some requests must shed -- and every
        admitted one still completes correctly."""
        engine = SpMVEngine()
        for A in matrices:
            engine.prepare(A)
        server = SpMVServer(
            engine,
            ServeConfig(max_batch=4, batch_window_s=0.0, queue_depth=2),
            start=True,
        )
        try:
            results, shed = run_stress(server, matrices)
            total = N_THREADS * REQUESTS_PER_THREAD
            assert len(results) + shed == total
            assert server.n_requests == len(results)
            assert server.n_shed == shed
            for m, x, fut in results:
                r = fut.result(timeout=120)
                assert np.allclose(r.y, matrices[m] @ x, rtol=1e-9, atol=1e-9)
            assert server.n_responses == len(results)
        finally:
            server.close()

    def test_concurrent_submit_and_close(self, matrices):
        """Closing while clients submit never loses an admitted future:
        each either completes or fails with a typed server error."""
        from repro import ServerClosedError

        engine = SpMVEngine()
        engine.prepare(matrices[0])
        server = SpMVServer(
            engine, ServeConfig(max_batch=8, batch_window_s=0.001), start=True
        )
        futs = []
        lock = threading.Lock()
        stop = threading.Event()

        def client():
            rng = np.random.default_rng(0)
            while not stop.is_set():
                try:
                    f = server.submit(matrices[0], rng.standard_normal(N))
                except (ServerClosedError, ServerOverloadedError):
                    return
                with lock:
                    futs.append(f)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        # Let some traffic through, then close mid-flight.
        while True:
            with lock:
                if len(futs) >= 20:
                    break
        server.close(drain=True)
        stop.set()
        for t in threads:
            t.join()
        completed = 0
        for f in futs:
            exc = f.exception(timeout=60)
            if exc is None:
                completed += 1
            else:
                assert isinstance(exc, ServerClosedError)
        assert completed >= 20
