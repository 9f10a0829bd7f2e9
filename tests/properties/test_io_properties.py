"""Property-based tests on Matrix Market IO."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.matrices import read_matrix_market, write_matrix_market


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 25))
    ncols = draw(st.integers(1, 25))
    nnz = draw(st.integers(1, 50))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1),
                st.integers(0, ncols - 1),
                st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0),
            ),
            min_size=nnz,
            max_size=nnz,
        )
    )
    r, c, v = zip(*entries)
    A = sparse.coo_matrix((v, (r, c)), shape=(nrows, ncols)).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


class TestMatrixMarketProperties:
    @given(A=small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_write_read_identity(self, A, tmp_path_factory):
        path = tmp_path_factory.mktemp("mm") / "m.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert B.shape == A.shape
        np.testing.assert_allclose(B.toarray(), A.toarray(), rtol=1e-15)

