"""Property-based tests on the serving layer.

For arbitrary sparse matrices, arbitrary request vectors, and arbitrary
interleavings of requests across matrices, micro-batched serving returns
-- per request -- the **bit-identical** vector a sequential
``engine.multiply`` would, for BCCOO and BCCOO+ under both scan
strategies, on both backends.  This is the serving layer's
differential invariant driven by generated inputs instead of the fixed
grid in ``tests/serve/test_differential.py``.  It also pins the key
path: however a caller builds its CSR, a submit keys and serves the
canonical form.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro import ServeConfig, SpMVEngine, SpMVServer
from repro.serve.server import serve_key
from repro.tuning import TuningPoint
from repro.util import as_csr


@st.composite
def problems(draw):
    """A pool of matrices plus an interleaved request schedule.

    Patterns, values and vectors come from a drawn seed, the values and
    vectors as full-mantissa standard normals: small "nice" floats add
    exactly in any order, and sparse blocks hold too few products to
    have one, so neither can tell one summation order from another.
    """
    nrows = draw(st.integers(4, 24))
    ncols = draw(st.integers(4, 24))
    n_matrices = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [
        sparse.random(
            nrows,
            ncols,
            density=draw(st.floats(0.05, 1.0)),
            format="csr",
            random_state=rng,
            data_rvs=rng.standard_normal,
        )
        for _ in range(n_matrices)
    ]
    # Interleaving: which matrix each successive request targets.
    schedule = draw(
        st.lists(st.integers(0, n_matrices - 1), min_size=1, max_size=12)
    )
    xs = [rng.standard_normal(ncols) for _ in schedule]
    return mats, schedule, xs


@st.composite
def points(draw):
    """BCCOO or BCCOO+ under either scan strategy / compute strategy."""
    height = draw(st.sampled_from([1, 2, 4]))
    strategy = draw(st.sampled_from([1, 2]))
    # Strategy 1's default 16 registers per lane overflow the device's
    # register file at height 4.
    registers = {"reg_size": 8} if strategy == 1 and height == 4 else {}
    return TuningPoint(
        block_height=height,
        block_width=draw(st.sampled_from([1, 2, 4])),
        slice_count=draw(st.sampled_from([1, 2, 4])),
    ).with_kernel(
        workgroup_size=64,
        strategy=strategy,
        scan_mode=draw(st.sampled_from(["matrix", "tree"])),
        **registers,
    )


@given(
    problem=problems(),
    point=points(),
    backend=st.sampled_from(["faithful", "fast"]),
)
@settings(max_examples=40, deadline=None)
def test_batched_serving_bit_identical_to_sequential(problem, point, backend):
    mats, schedule, xs = problem
    engine = SpMVEngine(backend=backend)
    prepared = [engine.prepare(A, point=point) for A in mats]
    srv = SpMVServer(
        engine,
        ServeConfig(max_batch=len(schedule), batch_window_s=0.0),
        start=False,
    )
    futs = [
        srv.submit(prepared[m], x) for m, x in zip(schedule, xs)
    ]
    srv.drain()
    for m, x, fut in zip(schedule, xs, futs):
        served = fut.result().y
        sequential = engine.multiply(prepared[m], x).y
        assert np.array_equal(served, sequential)
    # No lost or duplicated responses, and the per-request cache
    # accounting reconciles exactly.
    assert srv.n_responses == len(schedule)
    assert srv.cache.hits + srv.cache.misses == len(schedule)
    srv.close()


@given(problem=problems())
@settings(max_examples=25, deadline=None)
def test_served_answers_match_scipy(problem):
    """Auto-tuned end-to-end: served output equals the scipy product."""
    mats, schedule, xs = problem
    engine = SpMVEngine()
    prepared = [engine.prepare(A) for A in mats]
    srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
    futs = [srv.submit(prepared[m], x) for m, x in zip(schedule, xs)]
    srv.drain()
    for m, x, fut in zip(schedule, xs, futs):
        assert np.allclose(
            fut.result().y, mats[m] @ x, rtol=1e-9, atol=1e-9
        )
    srv.close()


@st.composite
def raw_csrs(draw):
    """A CSR as a caller may build it: explicit zeros, duplicate and
    unsorted columns and NaN values allowed, int32 or int64 indices."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, float("nan")]),
        st.floats(-50, 50, allow_nan=False),
    )
    rows = draw(
        st.lists(
            st.lists(st.tuples(st.integers(0, ncols - 1), value), max_size=6),
            min_size=nrows,
            max_size=nrows,
        )
    )
    A = sparse.csr_matrix(
        (
            np.array([v for row in rows for _, v in row], dtype=np.float64),
            np.array([c for row in rows for c, _ in row], dtype=np.int64),
            np.cumsum([0] + [len(row) for row in rows]),
        ),
        shape=(nrows, ncols),
    )
    if draw(st.booleans()):
        # scipy narrows index arrays on construction; widen them again.
        A.indices = A.indices.astype(np.int64)
        A.indptr = A.indptr.astype(np.int64)
    return A


@given(A=raw_csrs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_submit_keys_and_serves_the_canonical_form(A, seed):
    """Hashed before the matrix is resident, matched or hashed after: a
    submit always uses ``serve_key(engine, as_csr(A))`` and serves the
    product of that canonical matrix."""
    engine = SpMVEngine()
    canonical = as_csr(A)
    key = serve_key(engine, canonical)
    x = np.random.default_rng(seed).standard_normal(A.shape[1])
    srv = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
    futs = [srv.submit(A, x)]
    assert srv._queue[-1].key == key
    # A fixed point: NaN values fail the tuner's winner check.
    point = TuningPoint().with_kernel(workgroup_size=64)
    prepared = engine.prepare(canonical, point=point)
    assert srv.prime(prepared) == key
    futs.append(srv.submit(A, x))
    assert srv._queue[-1].key == key
    srv.drain()
    direct = engine.multiply(prepared, x).y
    for fut in futs:
        assert fut.result().cache_hit
        assert np.array_equal(fut.result().y, direct, equal_nan=True)
    assert srv.stats()["key_hashed"] >= 2
    srv.close()
