"""Tests for the multi-vector (SpMM) extension."""

import numpy as np
import pytest

from repro import SpMVEngine
from repro.errors import KernelConfigError
from repro.formats import BCCOOMatrix, BCCOOPlusMatrix
from repro.gpu import GTX680, TimingModel
from repro.kernels import YaSpMVConfig
from repro.kernels.yaspmv import YaSpMVKernel
from repro.tuning import TuningPoint

KERNEL = YaSpMVKernel()
SMALL = YaSpMVConfig(workgroup_size=32, tile_size=4)


class TestNumerics:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_dense_product(self, k, random_matrix, rng):
        A = random_matrix(nrows=80, ncols=60, density=0.1)
        X = rng.standard_normal((60, k))
        fmt = BCCOOMatrix.from_scipy(A, block_height=2, block_width=2)
        res = KERNEL.run_multi(fmt, X, GTX680, config=SMALL)
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)

    @pytest.mark.parametrize(
        "h, w", [(1, 1), (2, 1), (2, 2), (1, 4), (4, 4)],
        ids=["1x1", "2x1", "2x2", "1x4", "4x4"],
    )
    def test_matches_column_by_column(self, h, w, random_matrix, rng):
        # Each block's products add in one order for a vector and for a
        # block, so every column is the SpMV of that column, bit for bit.
        # Dense enough that a width-4 block row holds several products.
        A = random_matrix(density=0.4)
        X = rng.standard_normal((A.shape[1], 5))
        fmt = BCCOOMatrix.from_scipy(A, block_height=h, block_width=w)
        multi = KERNEL.run_multi(fmt, X, GTX680, config=SMALL).y
        for j in range(5):
            single = KERNEL.run(fmt, X[:, j], GTX680, config=SMALL).y
            assert np.array_equal(multi[:, j], single)

    def test_bccoo_plus(self, random_matrix, rng):
        A = random_matrix(nrows=50, ncols=120, density=0.1)
        X = rng.standard_normal((120, 4))
        fmt = BCCOOPlusMatrix.from_scipy(A, slice_count=4)
        res = KERNEL.run_multi(fmt, X, GTX680, config=SMALL)
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)

    def test_rejects_1d(self, random_matrix, rng):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        with pytest.raises(KernelConfigError, match="2-D"):
            KERNEL.run_multi(fmt, rng.standard_normal(fmt.ncols), GTX680, config=SMALL)

    def test_rejects_wrong_rows(self, random_matrix, rng):
        fmt = BCCOOMatrix.from_scipy(random_matrix(ncols=50))
        with pytest.raises(KernelConfigError, match="columns"):
            KERNEL.run_multi(fmt, rng.standard_normal((49, 2)), GTX680, config=SMALL)


class TestAmortization:
    def test_matrix_stream_read_once(self, random_matrix, rng):
        A = random_matrix(nrows=300, ncols=300, density=0.05)
        fmt = BCCOOMatrix.from_scipy(A)
        tm = TimingModel(GTX680)
        t1 = tm.estimate(
            KERNEL.run_multi(fmt, rng.standard_normal((300, 1)), GTX680, config=SMALL).stats
        ).t_total
        t8 = tm.estimate(
            KERNEL.run_multi(fmt, rng.standard_normal((300, 8)), GTX680, config=SMALL).stats
        ).t_total
        # Eight RHS must cost far less than eight sequential multiplies.
        assert t8 < 5 * t1
        assert t8 > t1  # but not free

    def test_flops_scale_with_k(self, random_matrix, rng):
        A = random_matrix()
        fmt = BCCOOMatrix.from_scipy(A)
        s1 = KERNEL.run_multi(fmt, rng.standard_normal((A.shape[1], 1)), GTX680, config=SMALL).stats
        s4 = KERNEL.run_multi(fmt, rng.standard_normal((A.shape[1], 4)), GTX680, config=SMALL).stats
        assert s4.flops == pytest.approx(4 * s1.flops)

    def test_shared_memory_blowup_guarded(self, random_matrix, rng):
        fmt = BCCOOMatrix.from_scipy(random_matrix(), block_height=4)
        cfg = YaSpMVConfig(workgroup_size=512, strategy=2, result_cache_multiple=2)
        with pytest.raises(KernelConfigError, match="shared"):
            KERNEL.run_multi(
                fmt, rng.standard_normal((fmt.ncols, 64)), GTX680, config=cfg
            )


class TestEngineIntegration:
    def test_multiply_many(self, random_matrix, rng):
        A = random_matrix(nrows=100, ncols=100, density=0.08)
        X = rng.standard_normal((100, 6))
        eng = SpMVEngine(GTX680)
        prep = eng.prepare(A, point=TuningPoint())
        res = eng.multiply_many(prep, X)
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)
        assert res.nnz == A.nnz * 6
        assert res.gflops > 0
