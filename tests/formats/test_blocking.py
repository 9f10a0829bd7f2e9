"""Tests for non-zero block extraction."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.errors import FormatError
from repro.formats import FP32, FP64
from repro.formats.bccoo import counted_footprint
from repro.formats.blocking import (
    BlockLayout,
    BlockOrders,
    blocks_to_coo_arrays,
    extract_blocks,
)
from repro.formats.footprint import BLOCK_HEIGHTS, BLOCK_WIDTHS
from repro.obs.stages import StageClock, stage_scope


class TestExtractBlocks:
    def test_paper_example_2x2(self, paper_matrix_a):
        layout = extract_blocks(paper_matrix_a, 2, 2)
        assert layout.nblocks == 5
        assert layout.block_row.tolist() == [0, 0, 1, 1, 1]
        assert layout.block_col.tolist() == [1, 3, 0, 2, 3]

    def test_paper_example_block_values(self, paper_matrix_a):
        layout = extract_blocks(paper_matrix_a, 2, 2)
        # First block is [[a, 0], [d, e]] = [[1, 0], [4, 5]].
        np.testing.assert_array_equal(layout.values[0], [[1, 0], [4, 5]])
        # Second block is [[b, c], [f, 0]] = [[2, 3], [6, 0]].
        np.testing.assert_array_equal(layout.values[1], [[2, 3], [6, 0]])

    def test_1x1_blocks_equal_coo(self, random_matrix):
        A = random_matrix()
        layout = extract_blocks(A, 1, 1)
        coo = A.tocoo()
        coo.sum_duplicates()
        assert layout.nblocks == coo.nnz
        assert layout.fill_ratio == 1.0

    def test_row_major_order(self, random_matrix):
        A = random_matrix(nrows=50, ncols=50, density=0.2)
        layout = extract_blocks(A, 3, 2)
        key = layout.block_row.astype(np.int64) * layout.n_block_cols + layout.block_col
        assert (np.diff(key) > 0).all()

    def test_fill_ratio_at_least_one(self, random_matrix):
        A = random_matrix()
        for h, w in [(1, 1), (2, 2), (3, 4), (4, 1)]:
            layout = extract_blocks(A, h, w)
            assert layout.fill_ratio >= 1.0

    def test_nnz_preserved(self, random_matrix):
        A = random_matrix()
        for h, w in [(2, 2), (4, 4)]:
            assert extract_blocks(A, h, w).nnz == A.nnz

    def test_non_divisible_dimensions(self):
        # 5x7 matrix with 2x2 blocks: ragged edges must round-trip.
        A = sparse.random(5, 7, density=0.5, random_state=0, format="csr")
        layout = extract_blocks(A, 2, 2)
        rows, cols, data = blocks_to_coo_arrays(layout)
        back = sparse.coo_matrix((data, (rows, cols)), shape=(6, 8)).tocsr()
        np.testing.assert_allclose(back[:5, :7].toarray(), A.toarray())

    def test_invalid_block_dims(self, paper_matrix_a):
        with pytest.raises(FormatError):
            extract_blocks(paper_matrix_a, 0, 2)
        with pytest.raises(FormatError):
            extract_blocks(paper_matrix_a, 2, -1)

    def test_empty_matrix(self):
        A = sparse.csr_matrix((8, 8))
        layout = extract_blocks(A, 2, 2)
        assert layout.nblocks == 0
        rows, cols, data = blocks_to_coo_arrays(layout)
        assert rows.size == cols.size == data.size == 0

    def test_stored_values_counts_fill(self, paper_matrix_a):
        layout = extract_blocks(paper_matrix_a, 2, 2)
        assert layout.stored_values == 5 * 4
        assert layout.nnz == 16
        assert layout.fill_ratio == pytest.approx(20 / 16)


class TestBlockLayoutValidate:
    def _layout(self, **overrides):
        base = dict(
            shape=(4, 4),
            block_height=2,
            block_width=2,
            block_row=np.array([0, 1], dtype=np.int32),
            block_col=np.array([0, 1], dtype=np.int32),
            values=np.zeros((2, 2, 2)),
        )
        base.update(overrides)
        return BlockLayout(**base)

    def test_valid_passes(self):
        self._layout().validate()

    def test_wrong_values_shape(self):
        with pytest.raises(FormatError, match="values shape"):
            self._layout(values=np.zeros((2, 3, 2))).validate()

    def test_unordered_blocks(self):
        with pytest.raises(FormatError, match="row-major"):
            self._layout(
                block_row=np.array([1, 0], dtype=np.int32),
                block_col=np.array([0, 0], dtype=np.int32),
            ).validate()

    def test_out_of_range_block_col(self):
        with pytest.raises(FormatError, match="block_col"):
            self._layout(block_col=np.array([0, 9], dtype=np.int32)).validate()


def _reference_blocks(matrix, h, w):
    """The extractor's definition: ``np.unique`` over block keys and an
    accumulating scatter."""
    from repro.util import as_csr

    coo = as_csr(matrix).tocoo()
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    nbc = -(-coo.shape[1] // w)
    keys, inverse = np.unique((rows // h) * nbc + cols // w, return_inverse=True)
    values = np.zeros((keys.shape[0], h, w))
    np.add.at(values, (inverse, rows % h, cols % w), coo.data)
    return keys // nbc, keys % nbc, values


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(0, 400),
    st.integers(1, 4),
    st.sampled_from([1, 2, 4]),
    st.integers(0, 2**32 - 1),
)
def test_extraction_equals_unique_definition(nrows, ncols, n, h, w, seed):
    # Duplicates, explicit zeros and unsorted entries included.
    rng = np.random.default_rng(seed)
    data = rng.choice([0.0, 1.5, -2.0, 3.25], size=n)
    A = sparse.coo_matrix(
        (data, (rng.integers(0, nrows, n), rng.integers(0, ncols, n))),
        shape=(nrows, ncols),
    )
    layout = extract_blocks(A, h, w)
    brow, bcol, values = _reference_blocks(A, h, w)
    assert np.array_equal(layout.block_row, brow)
    assert np.array_equal(layout.block_col, bcol)
    assert np.array_equal(layout.values, values)
    assert layout.block_row.dtype == layout.block_col.dtype == np.int32


@st.composite
def _blockable(draw):
    """A raw COO matrix -- duplicates, explicit zeros, empty rows and
    columns -- that is one row, one column, narrow, or wider than 65,535
    block columns at some block width."""
    kind = draw(st.sampled_from(["row", "column", "narrow", "wide"]))
    nrows = 1 if kind == "row" else draw(st.integers(1, 40))
    if kind == "column":
        ncols = 1
    elif kind == "wide":
        ncols = draw(st.integers(65_536, 300_000))
    else:
        ncols = draw(st.integers(1, 60))
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Wide draws cluster some entries, so blocks share columns.
    span = min(ncols, draw(st.sampled_from([ncols, 40])))
    base = int(rng.integers(0, ncols - span + 1))
    data = rng.choice([0.0, 1.5, -2.0, 3.25], size=n)
    rows = rng.integers(0, nrows, n)
    cols = base + rng.integers(0, span, n)
    return sparse.coo_matrix((data, (rows, cols)), shape=(nrows, ncols))


@settings(max_examples=120, deadline=None)
@given(_blockable())
@example(sparse.coo_matrix(np.ones((1, 9))))
@example(sparse.coo_matrix(np.ones((9, 1))))
@example(sparse.coo_matrix((np.ones(3), ([0, 2, 2], [0, 70_000, 299_999])), shape=(3, 300_000)))
def test_shared_orders_equal_independent_extraction(A):
    """One :class:`BlockOrders` -- one sort per block height -- serves the
    layouts and counted footprints of all twelve (h, w), each equal to
    an independent extraction of that (h, w)."""
    clock = StageClock()
    with stage_scope(clock):
        orders = BlockOrders(A)
        dims = [(h, w) for h in BLOCK_HEIGHTS for w in BLOCK_WIDTHS]
        keys = {(h, w): k for h, w, k in orders.keys_by_dim(dims)}
        layouts = {(h, w): extract_blocks(orders, h, w) for h, w in dims}
    assert clock.counts == {"key_sorts": 3}
    for (h, w), layout in layouts.items():
        brow, bcol, values = _reference_blocks(A, h, w)
        assert np.array_equal(layout.block_row, brow)
        assert np.array_equal(layout.block_col, bcol)
        assert np.array_equal(layout.values, values)
        fresh = extract_blocks(A, h, w)
        for name in ("block_row", "block_col", "values"):
            assert np.array_equal(getattr(layout, name), getattr(fresh, name))
        nbc = -(-A.shape[1] // w)
        reference_keys = brow.astype(np.int64) * nbc + bcol
        assert np.array_equal(keys[h, w], reference_keys)
        for sizes in (FP32, FP64):
            shared = counted_footprint(keys[h, w], A.shape, h, w, sizes)
            own = counted_footprint(reference_keys, A.shape, h, w, sizes)
            assert shared.arrays == own.arrays


def test_orders_use_the_narrowest_index_dtype():
    A = sparse.random(300, 300, density=0.03, random_state=0, format="csr")
    orders = BlockOrders(A)
    assert orders.order(1) is None
    assert orders.order(2).dtype == np.uint16
    assert orders.order(2) is orders.order(2)
    assert BlockOrders.coerce(orders) is orders
    # A canonical CSR is not copied.
    assert orders.csr is A
