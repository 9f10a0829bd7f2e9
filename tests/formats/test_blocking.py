"""Tests for non-zero block extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.errors import FormatError
from repro.formats.blocking import BlockLayout, blocks_to_coo_arrays, extract_blocks


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
