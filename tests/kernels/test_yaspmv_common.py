"""Tests for the shared kernel preparation machinery."""

import numpy as np
import pytest

from repro.formats import BCCOOMatrix
from repro.kernels import YaSpMVConfig
from repro.kernels.yaspmv import LaunchPlan, block_products
from repro.kernels.yaspmv_common import prepare


class TestPrepare:
    def test_pads_to_workgroup_work(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        cfg = YaSpMVConfig(workgroup_size=64, tile_size=8)
        padded = prepare(fmt, cfg)
        assert padded.nb_padded % cfg.workgroup_work == 0
        assert padded.nb_valid == fmt.nblocks
        assert padded.n_workgroups == padded.nb_padded // cfg.workgroup_work

    def test_padding_blocks_are_inert(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        cfg = YaSpMVConfig(workgroup_size=64, tile_size=8)
        padded = prepare(fmt, cfg)
        tail = slice(padded.nb_valid, None)
        assert not padded.stops[tail].any()  # continue flags only
        assert np.all(padded.values[tail] == 0.0)

    def test_thread_and_workgroup_views(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=4)
        padded = prepare(fmt, cfg)
        assert padded.thread_stops().shape == (padded.n_threads_total, 4)
        assert padded.workgroup_stops().shape == (
            padded.n_workgroups,
            cfg.workgroup_work,
        )

    def test_strategy1_tile_is_reg_plus_shm(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        cfg = YaSpMVConfig(workgroup_size=32, strategy=1, reg_size=5, shm_size=3)
        padded = prepare(fmt, cfg)
        assert padded.tile == 8


class TestBlockContributions:
    def test_against_dense_reference(self, paper_matrix_a, rng):
        fmt = BCCOOMatrix.from_scipy(paper_matrix_a, block_height=2, block_width=2)
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=1)
        x = rng.standard_normal(8)
        contribs = block_products(LaunchPlan(fmt, cfg), x)

        # Each block's contribution equals the dense sub-block product.
        dense = paper_matrix_a.toarray()
        cols = fmt.columns()[: fmt.nblocks]
        rows = fmt.block_rows()
        for b in range(fmt.nblocks):
            r0, c0 = rows[b] * 2, cols[b] * 2
            expected = dense[r0 : r0 + 2, c0 : c0 + 2] @ x[c0 : c0 + 2]
            np.testing.assert_allclose(contribs[b], expected, atol=1e-12)

    def test_gather_stream_shape(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix(), block_width=4)
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=2)
        plan = LaunchPlan(fmt, cfg)
        gather = plan.gather_flat
        assert gather.shape == (plan.nb_padded * 4,)
        assert gather.min() >= 0
        assert gather.max() < fmt.ncols

    def test_edge_blocks_clamped(self, rng):
        # 5 columns with width-4 blocks: the right edge block reads
        # clamped indices but contributes exactly.
        from scipy import sparse

        A = sparse.random(6, 5, density=0.5, random_state=0, format="csr")
        fmt = BCCOOMatrix.from_scipy(A, block_width=4)
        cfg = YaSpMVConfig(workgroup_size=32, tile_size=1)
        x = rng.standard_normal(5)
        contribs = block_products(LaunchPlan(fmt, cfg), x)
        total = np.zeros(fmt.n_block_rows)
        np.add.at(total, fmt.block_rows(), contribs[: fmt.nblocks, 0])
        np.testing.assert_allclose(total[: A.shape[0]], (A @ x), atol=1e-12)
