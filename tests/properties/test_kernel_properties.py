"""Property-based tests on the yaSpMV kernel.

The strongest invariant in the repository: for arbitrary matrices and
arbitrary valid launch configurations, the closed-form fast kernel, the
faithful Figures-9-12 executor, and scipy's reference multiply agree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.formats import BCCOOMatrix
from repro.gpu import GTX680
from repro.kernels import YaSpMVConfig, YaSpMVKernel, yaspmv_faithful
from repro.kernels.yaspmv import LaunchPlan, block_products

KERNEL = YaSpMVKernel()


@st.composite
def problem(draw):
    nrows = draw(st.integers(1, 30))
    ncols = draw(st.integers(1, 30))
    nnz = draw(st.integers(1, 60))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1),
                st.integers(0, ncols - 1),
                st.floats(-50, 50, allow_nan=False).filter(lambda v: v != 0),
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    r, c, v = zip(*entries)
    A = sparse.coo_matrix((v, (r, c)), shape=(nrows, ncols)).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    x = np.array(
        draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False),
                min_size=ncols,
                max_size=ncols,
            )
        )
    )
    return A, x


@st.composite
def configs(draw):
    strategy = draw(st.sampled_from([1, 2]))
    return YaSpMVConfig(
        workgroup_size=32,
        strategy=strategy,
        reg_size=draw(st.sampled_from([1, 2, 4])),
        shm_size=draw(st.sampled_from([0, 1])),
        tile_size=draw(st.sampled_from([1, 2, 4, 8])),
        result_cache_multiple=draw(st.sampled_from([1, 2])),
        fine_grain=draw(st.booleans()),
        cross_wg=draw(st.sampled_from(["adjacent", "second_kernel"])),
        use_texture=draw(st.booleans()),
    )


@st.composite
def block_shapes(draw):
    return draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 4]))


class TestKernelAgreement:
    @given(p=problem(), cfg=configs(), blocks=block_shapes())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_faithful_equals_scipy(self, p, cfg, blocks):
        A, x = p
        if A.nnz == 0:
            return
        h, w = blocks
        fmt = BCCOOMatrix.from_scipy(A, block_height=h, block_width=w)
        fast = KERNEL.run(fmt, x, GTX680, config=cfg).y
        slow = yaspmv_faithful(fmt, x, cfg)
        expected = A @ x
        np.testing.assert_allclose(fast, expected, rtol=1e-8, atol=1e-6)
        np.testing.assert_allclose(slow, fast, rtol=1e-9, atol=1e-9)

    @given(p=problem(), cfg=configs())
    @settings(max_examples=40, deadline=None)
    def test_stats_invariants(self, p, cfg):
        A, x = p
        if A.nnz == 0:
            return
        fmt = BCCOOMatrix.from_scipy(A)
        stats = KERNEL.run(fmt, x, GTX680, config=cfg).stats
        assert stats.dram_read_bytes > 0
        assert stats.flops >= 2 * fmt.nblocks  # at least the products
        assert stats.n_workgroups >= 1
        assert 0 < stats.simd_efficiency <= 1
        # Equal tiles: never an imbalance profile.
        assert stats.workgroup_work is None


class TestSpMMAgreement:
    @given(p=problem(), k=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_spmm_equals_column_multiplies(self, p, k):
        A, x = p
        if A.nnz == 0:
            return
        rng = np.random.default_rng(abs(hash((A.nnz, k))) % (1 << 31))
        X = rng.standard_normal((A.shape[1], k))
        fmt = BCCOOMatrix.from_scipy(A)
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=4)
        multi = KERNEL.run_multi(fmt, X, GTX680, config=cfg)
        np.testing.assert_allclose(multi.y, A @ X, rtol=1e-8, atol=1e-6)
        for j in range(k):
            single = KERNEL.run(fmt, X[:, j], GTX680, config=cfg).y
            np.testing.assert_allclose(multi.y[:, j], single, atol=1e-12)


#: Signed zeros, subnormals, magnitudes whose products overflow, +-inf
#: and NaN; any other double besides.
SPECIAL = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e308, -1.7e308,
         float("inf"), float("-inf"), float("nan")]
    ),
    st.floats(1e300, 1.7e308) | st.floats(-1.7e308, -1e300),
    st.floats(),
)


@st.composite
def block_problems(draw):
    """``nb`` diagonal ``h x w`` blocks, their values and a ``k``-column
    block of vectors: mixed magnitudes, whose sums round differently in
    another order, with :data:`SPECIAL` values sprinkled in."""
    h, w = draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([1, 2, 4]))
    nb, k = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):
        a = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 41, shape)
        flat = a.reshape(-1)
        slots = st.tuples(st.integers(0, flat.size - 1), SPECIAL)
        for i, v in draw(st.lists(slots, max_size=flat.size)):
            flat[i] = v
        return a

    return operand((nb, h, w)), operand((nb * w, k))


def _sequential_products(values, X):
    """``s = 0.0; for j: s += v * x`` per (block, lane, column)."""
    nb, h, w = values.shape
    out = np.empty((nb, h, X.shape[1]))
    for b in range(nb):
        for lane in range(h):
            for c in range(X.shape[1]):
                s = 0.0
                for j in range(w):
                    s += float(values[b, lane, j]) * float(X[b * w + j, c])
                out[b, lane, c] = s
    return out


def _same_bytes(a, b) -> bool:
    """Byte equality, signed zeros included.  Which NaN an addition of two
    NaNs returns is left open by IEEE 754, so NaNs compare by position."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.where(np.isnan(a), 0.0, a).tobytes() == np.where(
        np.isnan(b), 0.0, b
    ).tobytes()


class TestBlockProductOrder:
    """Every block product is one thread's sequential sum from +0 over
    ``j = 0..w-1``: the kernel's products for a vector and for a block,
    the faithful executor's and the format's reference multiply."""

    @given(p=block_problems())
    @settings(max_examples=80, deadline=None)
    def test_one_order_everywhere(self, p):
        values, X = p
        nb, h, w = values.shape
        expected = _sequential_products(values, X)
        # One block per block row, so each product is its own output.
        A = sparse.block_diag([np.ones((h, w))] * nb, format="csr")
        fmt = BCCOOMatrix.from_scipy(A, block_height=h, block_width=w)
        fmt.values[:nb] = values
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=1)
        plan = LaunchPlan(fmt, cfg)
        with np.errstate(all="ignore"):
            block = block_products(plan, X)[:nb]
            assert _same_bytes(block, expected)
            for c in range(X.shape[1]):
                x = np.ascontiguousarray(X[:, c])
                assert _same_bytes(block_products(plan, x)[:nb], expected[:, :, c])
                y = yaspmv_faithful(fmt, x, cfg)
                assert _same_bytes(y, expected[:, :, c].ravel())
                y = fmt.multiply(x)
                assert _same_bytes(y, expected[:, :, c].ravel())
