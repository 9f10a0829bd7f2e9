"""Matrix reordering -- the related-work alternative to format design.

Section 7 contrasts yaSpMV with "compression and reordering techniques"
(Pichel et al. [14], Buluc et al. [2]): permuting rows/columns to
improve locality, at the price of "changing the inherent locality of
the original matrix".  This module provides the two standard
reorderings so that trade-off can actually be measured against BCCOO
(see ``benchmarks/bench_ablations.py``):

* :func:`reverse_cuthill_mckee` -- bandwidth-minimizing permutation
  (symmetric RCM over ``A + A^T``);
* :func:`sort_rows_by_length` -- the degree-sort used by row-binning
  SpMV schemes (improves warp regularity for row-based kernels, but
  scrambles vector locality).

Both return the permuted matrix *and* the permutations, since a real
user must apply them to the vector and un-permute the result:
``y = P_r^T @ (A_perm @ (P_c @ x))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util import as_csr

__all__ = ["Reordering", "reverse_cuthill_mckee", "sort_rows_by_length"]


@dataclass
class Reordering:
    """A permuted matrix with its row/column permutations.

    ``row_perm[i]`` is the original row placed at permuted position
    ``i`` (and likewise for columns), so for the original problem
    ``y = A @ x``::

        y_perm = matrix @ x[col_perm]
        y = empty;  y[row_perm] = y_perm
    """

    matrix: object  # csr_matrix
    row_perm: np.ndarray
    col_perm: np.ndarray

    def apply_to_vector(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[self.col_perm]

    def restore_result(self, y_perm: np.ndarray) -> np.ndarray:
        y = np.empty_like(y_perm)
        y[self.row_perm] = y_perm
        return y

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference: the full permute-multiply-restore round trip."""
        return self.restore_result(self.matrix @ self.apply_to_vector(x))


def reverse_cuthill_mckee(matrix) -> Reordering:
    """Symmetric RCM reordering (rows and columns permuted alike).

    Works on any square matrix; the ordering is computed on the
    symmetrized pattern ``A + A^T``.
    """
    # Imported here: csgraph loads scipy.sparse.linalg and scipy.linalg,
    # which nothing else in the package needs.
    from scipy.sparse import csgraph

    csr = as_csr(matrix)
    if csr.shape[0] != csr.shape[1]:
        raise ValueError(
            f"RCM needs a square matrix, got {csr.shape}"
        )
    pattern = csr + csr.T
    perm = np.asarray(
        csgraph.reverse_cuthill_mckee(pattern.tocsr(), symmetric_mode=True)
    ).astype(np.int64)
    permuted = as_csr(csr[perm][:, perm])
    return Reordering(matrix=permuted, row_perm=perm, col_perm=perm)


def sort_rows_by_length(matrix) -> Reordering:
    """Sort rows by non-zero count (descending); columns untouched.

    The binning trick of SELL-style schemes: adjacent rows get similar
    lengths, so warps of a row-based kernel stop diverging.
    """
    csr = as_csr(matrix)
    lengths = np.diff(csr.indptr)
    perm = np.argsort(-lengths, kind="stable").astype(np.int64)
    permuted = as_csr(csr[perm])
    return Reordering(
        matrix=permuted,
        row_perm=perm,
        col_perm=np.arange(csr.shape[1], dtype=np.int64),
    )
