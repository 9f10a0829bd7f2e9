"""Tests for the shared utility helpers."""

import numpy as np
import pytest
from scipy import sparse

from repro import util


class TestCeilDiv:
    def test_values(self):
        assert util.ceil_div(0, 4) == 0
        assert util.ceil_div(1, 4) == 1
        assert util.ceil_div(4, 4) == 1
        assert util.ceil_div(5, 4) == 2

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            util.ceil_div(4, 0)
        with pytest.raises(ValueError):
            util.ceil_div(-1, 4)

    def test_round_up(self):
        assert util.round_up(5, 4) == 8
        assert util.round_up(8, 4) == 8
        assert util.round_up(0, 4) == 0


class TestCanonicalization:
    def test_as_csr_merges_duplicates(self):
        A = sparse.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))),
            shape=(2, 2),
        )
        csr = util.as_csr(A)
        assert csr.nnz == 1
        assert csr[0, 1] == 3.0

    def test_as_csr_drops_explicit_zeros(self):
        A = sparse.csr_matrix(
            (np.array([0.0, 5.0]), (np.array([0, 1]), np.array([0, 1]))),
            shape=(2, 2),
        )
        assert util.as_csr(A).nnz == 1

    def test_as_csr_from_dense(self):
        csr = util.as_csr(np.eye(3))
        assert csr.nnz == 3

    def test_as_coo_sorted_row_major(self, rng):
        A = sparse.random(30, 30, density=0.3, random_state=1)
        coo = util.as_coo_sorted(A)
        key = coo.row.astype(np.int64) * 30 + coo.col
        assert (np.diff(key) > 0).all()


class TestSegments:
    def test_run_lengths(self):
        vals, lens = util.run_lengths(np.array([3, 3, 5, 5, 5, 2]))
        assert vals.tolist() == [3, 5, 2]
        assert lens.tolist() == [2, 3, 1]

    def test_run_lengths_empty(self):
        vals, lens = util.run_lengths(np.array([]))
        assert vals.size == 0 and lens.size == 0


class TestPadding:
    def test_check_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            util.check_1d("x", np.zeros((2, 2)))
