"""Tests for incremental value refresh: ``with_values`` at the format,
prepared-matrix and backend layers.

The contract under test: for a matrix with *identical sparsity
structure* but new values, swapping values into an existing
format/prepared matrix must be exactly equivalent to converting the new
matrix from scratch (``np.array_equal``, not allclose) while reusing
every structural artifact -- bit flags, column storage, tuning point,
and the fast backend's cached gather/scan plan.
"""

import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.backends import get_backend
from repro.errors import ValidationError
from repro.formats import BCCOOMatrix, BCCOOPlusMatrix
from repro.tuning import TuningPoint


def make_matrix(n=60, density=0.08, seed=3):
    A = sparse.random(n, n, density=density, random_state=seed, format="csr")
    A = A + sparse.eye(n)  # zero-free diagonal keeps every row populated
    return A.tocsr()


def rescaled(A, factor=1.5, seed=9):
    """Same structure, fresh values (none of them zero)."""
    B = A.copy().tocsr()
    rng = np.random.default_rng(seed)
    B.data = B.data * factor + rng.uniform(0.1, 1.0, size=B.data.shape)
    return B


class TestBCCOOWithValues:
    #: Value refreshes the format has had before a case runs.  A fresh
    #: conversion (0) maps entries to slots with a searchsorted lookup;
    #: :class:`TestRefreshedBCCOOWithValues` reruns every case at 1.
    generation = 0

    def convert(self, A, **kw):
        """``A`` as BCCOO, refreshed ``generation`` times from itself."""
        fmt = BCCOOMatrix.from_scipy(A, **kw)
        for _ in range(self.generation):
            fmt = fmt.with_values(A)
        return fmt

    @pytest.mark.parametrize("bh,bw", [(1, 1), (2, 2), (1, 4), (4, 2)])
    def test_matches_fresh_conversion(self, bh, bw):
        A = make_matrix()
        B = rescaled(A)
        fmt = self.convert(A, block_height=bh, block_width=bw)
        swapped = fmt.with_values(B)
        fresh = BCCOOMatrix.from_scipy(B, block_height=bh, block_width=bw)
        assert np.array_equal(swapped.values, fresh.values)

    def test_structural_arrays_shared(self):
        A = make_matrix()
        fmt = self.convert(A, block_height=2, block_width=2)
        swapped = fmt.with_values(rescaled(A))
        # The structure is reused by identity, not rebuilt: only the
        # value buffer is new.
        assert swapped.flags is fmt.flags
        assert swapped.col_block is fmt.col_block
        assert swapped.values is not fmt.values

    def test_multiply_equals_new_matrix(self):
        A = make_matrix()
        B = rescaled(A)
        fmt = self.convert(A, block_height=2, block_width=2)
        x = np.random.default_rng(0).standard_normal(A.shape[1])
        y = fmt.with_values(B).to_scipy() @ x
        np.testing.assert_allclose(y, B @ x, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        A = make_matrix(60)
        fmt = self.convert(A)
        with pytest.raises(ValidationError, match="shape"):
            fmt.with_values(make_matrix(50))

    def test_nnz_mismatch_rejected(self):
        A = make_matrix()
        fmt = self.convert(A)
        B = A.copy()
        B.data[0] = 0.0  # canonicalization eliminates explicit zeros
        with pytest.raises(ValidationError, match="nnz"):
            fmt.with_values(B)

    def test_structure_mismatch_rejected(self):
        A = make_matrix()
        fmt = self.convert(A, block_height=1, block_width=1)
        B = A.tocoo()
        # Same nnz, but one entry moved to a column the format has no
        # block for.
        cols = B.col.copy()
        free = set(range(A.shape[1])) - set(
            B.col[B.row == B.row[0]]
        )
        cols[0] = sorted(free)[-1]
        moved = sparse.coo_matrix(
            (B.data, (B.row, cols)), shape=A.shape
        ).tocsr()
        with pytest.raises(ValidationError, match="structure"):
            fmt.with_values(moved)


class TestRefreshedBCCOOWithValues(TestBCCOOWithValues):
    """Every case again on a once-refreshed format, which carries the
    entry-to-slot map of its pattern."""

    generation = 1

    @pytest.mark.parametrize("bh,bw", [(1, 1), (2, 2), (1, 4), (4, 2)])
    def test_same_pattern_skips_the_slot_search(self, bh, bw, monkeypatch):
        A = make_matrix()
        fmt = self.convert(A, block_height=bh, block_width=bw)
        searches = []
        value_slots = BCCOOMatrix._value_slots

        def counting(*args):
            searches.append(args)
            return value_slots(*args)

        monkeypatch.setattr(BCCOOMatrix, "_value_slots", counting)
        fmt.with_values(rescaled(A))
        assert searches == []


class TestBCCOOPlusWithValues:
    @pytest.mark.parametrize("slices", [2, 4])
    def test_matches_fresh_conversion(self, slices):
        A = make_matrix(80)
        B = rescaled(A)
        fmt = BCCOOPlusMatrix.from_scipy(
            A, block_height=2, block_width=1, slice_count=slices
        )
        swapped = fmt.with_values(B)
        fresh = BCCOOPlusMatrix.from_scipy(
            B, block_height=2, block_width=1, slice_count=slices
        )
        assert np.array_equal(swapped.stacked.values, fresh.stacked.values)

    def test_multiply_equals_new_matrix(self):
        A = make_matrix(80)
        B = rescaled(A)
        fmt = BCCOOPlusMatrix.from_scipy(
            A, block_height=1, block_width=1, slice_count=4
        )
        x = np.random.default_rng(1).standard_normal(A.shape[1])
        y = fmt.with_values(B).to_scipy() @ x
        np.testing.assert_allclose(y, B @ x, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        fmt = BCCOOPlusMatrix.from_scipy(make_matrix(80), slice_count=2)
        with pytest.raises(ValidationError, match="shape"):
            fmt.with_values(make_matrix(60))


class TestPreparedWithValues:
    @pytest.fixture(scope="class")
    def engine(self):
        return SpMVEngine("gtx680")

    @pytest.mark.parametrize(
        "point",
        [
            TuningPoint(),
            TuningPoint(block_height=2, block_width=2),
            TuningPoint(slice_count=4),
        ],
        ids=["bccoo-1x1", "bccoo-2x2", "bccoo+"],
    )
    def test_multiply_matches_fresh_prepare(self, engine, point):
        A = make_matrix(100)
        B = rescaled(A)
        prep = engine.prepare(A, point=point)
        refreshed = engine.update_values(prep, B)
        fresh = engine.prepare(B, point=point)
        x = np.random.default_rng(2).standard_normal(A.shape[1])
        y_refreshed = engine.multiply(refreshed, x).y
        y_fresh = engine.multiply(fresh, x).y
        assert np.array_equal(y_refreshed, y_fresh)

    def test_structural_plan_reused_by_identity(self, engine):
        A = make_matrix(100)
        prep = engine.prepare(A, point=TuningPoint(block_height=2))
        refreshed = engine.update_values(prep, rescaled(A))
        assert refreshed.point is prep.point
        assert refreshed.tuning is prep.tuning
        assert refreshed.fmt.flags is prep.fmt.flags

    def test_accepts_raw_value_vector(self, engine):
        # A 1-D array is interpreted as the new data of the canonical
        # CSR (one value per stored non-zero, in CSR order).
        A = make_matrix(60)
        prep = engine.prepare(A, point=TuningPoint())
        csr = prep.reference_csr()
        new_data = csr.data * 2.0
        refreshed = engine.update_values(prep, new_data)
        x = np.ones(A.shape[1])
        np.testing.assert_allclose(
            engine.multiply(refreshed, x).y, 2.0 * (csr @ x),
            rtol=1e-12, atol=1e-14,
        )

    def test_raw_value_vector_is_copied(self, engine):
        # A caller may reuse one buffer for every refresh: rewriting it
        # must not reach a matrix already refreshed from it.
        A = make_matrix(60)
        prep = engine.prepare(A, point=TuningPoint())
        buf = prep.reference_csr().data * 2.0
        refreshed = engine.update_values(prep, buf)
        kept = refreshed.csr.data.copy()
        buf *= 3.0
        assert not np.shares_memory(refreshed.csr.data, buf)
        assert np.array_equal(refreshed.csr.data, kept)

    def test_zero_in_value_vector_rejected(self, engine):
        # Canonicalization would drop the explicit zero, changing the
        # structure -- on a fresh and on a refreshed prepared matrix.
        A = make_matrix(60)
        prep = engine.prepare(A, point=TuningPoint())
        data = prep.reference_csr().data
        refreshed = engine.update_values(prep, data * 2.0)
        zeroed = data.copy()
        zeroed[5] = 0.0
        for source in (prep, refreshed):
            with pytest.raises(ValidationError, match="nnz"):
                engine.update_values(source, zeroed)

    def test_wrong_value_vector_length_rejected(self, engine):
        A = make_matrix(60)
        prep = engine.prepare(A, point=TuningPoint())
        with pytest.raises(ValidationError, match="non-zero"):
            engine.update_values(prep, np.ones(A.nnz + 3))

    def test_not_a_prepared_matrix_rejected(self, engine):
        with pytest.raises(ValidationError, match="PreparedMatrix"):
            engine.update_values(make_matrix(10), make_matrix(10))


class TestFastPlanMigration:
    def test_plan_migrated_not_rebuilt(self):
        fast = get_backend("fast")
        engine = SpMVEngine("gtx680", backend="fast")
        A = make_matrix(100)
        prep = engine.prepare(A, point=TuningPoint())
        x = np.random.default_rng(4).standard_normal(A.shape[1])
        engine.multiply(prep, x)  # builds and caches the fast plan

        before = fast.n_value_refreshes
        refreshed = engine.update_values(prep, rescaled(A))
        assert fast.n_value_refreshes == before + 1

        y_refreshed = engine.multiply(refreshed, x).y
        y_faithful = (
            SpMVEngine("gtx680", backend="faithful")
            .multiply(refreshed, x).y
        )
        assert np.array_equal(y_refreshed, y_faithful)

    @pytest.mark.parametrize("backend", ["fast"])
    def test_refresh_matches_fresh_prepare(self, backend):
        engine = SpMVEngine("gtx680", backend=backend)
        A = make_matrix(100)
        B = rescaled(A)
        prep = engine.prepare(A, point=TuningPoint(block_height=2))
        x = np.random.default_rng(5).standard_normal(A.shape[1])
        engine.multiply(prep, x)
        refreshed = engine.update_values(prep, B)
        fresh = engine.prepare(B, point=TuningPoint(block_height=2))
        assert np.array_equal(
            engine.multiply(refreshed, x).y, engine.multiply(fresh, x).y
        )

    @pytest.mark.parametrize(
        "point",
        [TuningPoint(), TuningPoint(block_height=2), TuningPoint(slice_count=2)],
        ids=["1x1", "2x1", "bccoo+"],
    )
    def test_replaced_plans_die_with_their_format(self, point):
        # A time-varying solve refreshes values every step: the plan of
        # each replaced format must go with it, not pile up.
        fast = get_backend("fast")
        engine = SpMVEngine("gtx680", backend="fast")
        A = make_matrix(100)
        x = np.random.default_rng(6).standard_normal(A.shape[1])
        gc.collect()
        before = fast.plan_count()
        prep = engine.prepare(A, point=point)
        engine.multiply(prep, x)
        first = weakref.ref(prep.fmt)
        for step in range(5):
            prep = engine.update_values(prep, rescaled(A, 1.0 + step))
            engine.multiply(prep, x)
        gc.collect()
        assert first() is None
        assert fast.plan_count() - before == 1

    def test_cold_refresh_is_a_noop_migration(self):
        # No multiply ran, so there is no plan to migrate -- the refresh
        # must still produce a correct prepared matrix.
        engine = SpMVEngine("gtx680", backend="fast")
        A = make_matrix(60)
        prep = engine.prepare(A, point=TuningPoint())
        B = rescaled(A)
        refreshed = engine.update_values(prep, B)
        x = np.ones(A.shape[1])
        np.testing.assert_allclose(
            engine.multiply(refreshed, x).y, B @ x, rtol=1e-12, atol=1e-14
        )
