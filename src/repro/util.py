"""Small shared utilities used across the :mod:`repro` package.

Everything in here is deliberately dependency-free (NumPy only) and
vectorized; these helpers sit on hot paths of the format converters and the
simulated kernels.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

__all__ = [
    "ceil_div",
    "round_up",
    "as_csr",
    "canonical_csr",
    "as_coo_sorted",
    "run_lengths",
    "check_1d",
]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``, ``b > 0``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires b > 0, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires a >= 0, got {a}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round ``a`` up to the nearest multiple of ``multiple``."""
    return ceil_div(a, multiple) * multiple


def as_csr(matrix) -> _sp.csr_matrix:
    """Coerce any scipy-sparse / dense input to canonical CSR.

    The result has sorted indices, no duplicates, and no explicit zeros --
    the baseline every format converter in :mod:`repro.formats` assumes.
    """
    if _sp.issparse(matrix):
        csr = matrix.tocsr()
    else:
        csr = _sp.csr_matrix(np.asarray(matrix))
    csr = csr.copy()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def canonical_csr(matrix) -> _sp.csr_matrix:
    """``matrix`` itself when it already is the CSR :func:`as_csr` returns,
    else ``as_csr(matrix)``.

    The check reads the arrays rather than trusting scipy's cached
    ``has_canonical_format`` flag, which goes stale when a caller edits
    the arrays in place; only a non-canonical input is copied.
    """
    if _sp.issparse(matrix) and matrix.format == "csr" and _is_canonical(matrix):
        return matrix
    return as_csr(matrix)


def _is_canonical(csr) -> bool:
    """Sorted, duplicate-free columns in every row, no stored zero, and
    no storage past ``indptr[-1]``."""
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    nnz = int(indptr[-1])
    if indptr[0] != 0 or indices.shape[0] != nnz or data.shape[0] != nnz:
        return False
    if not data.all():
        return False
    if nnz < 2:
        return True
    rising = indices[1:] > indices[:-1]
    # The column index may fall (or repeat) only where a new row starts.
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < nnz)] - 1] = True
    return bool(rising.all())


def as_coo_sorted(matrix) -> _sp.coo_matrix:
    """Coerce input to COO with entries sorted in row-major order."""
    coo = as_csr(matrix).tocoo()
    # CSR -> COO already yields row-major ordering with sorted columns.
    return coo


def run_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode ``values`` -> ``(run_values, run_lengths)``.

    >>> run_lengths(np.array([3, 3, 5, 5, 5, 2]))
    (array([3, 5, 2]), array([2, 3, 1]))
    """
    values = np.asarray(values)
    if values.size == 0:
        return values[:0], np.empty(0, dtype=np.int64)
    change = np.empty(values.size, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    lengths = np.diff(np.concatenate((starts, [values.size])))
    return values[starts], lengths


def check_1d(name: str, arr: np.ndarray) -> np.ndarray:
    """Validate that ``arr`` is one-dimensional; return it as ndarray."""
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr
