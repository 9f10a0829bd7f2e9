"""Non-zero block extraction shared by all blocked formats.

A *non-zero block* of size ``h x w`` is an aligned tile of the matrix that
contains at least one non-zero.  Blocked formats (BCOO/BCCOO, BCSR, BELL)
store every such tile densely, so a block containing zeros pays *fill-in*:
explicitly stored zeros.  The trade-off the paper's auto-tuner explores is
exactly fill-in (more value bytes) against index compression (one
row/column index per block instead of per non-zero).

The extractor is fully vectorized: one pass of integer arithmetic over the
COO triplets, one stable sort of the block keys for block discovery (none
for one-row blocks, whose keys a row-major COO already orders), and one
scatter for the dense payload.  The key pass alone (:func:`block_keys`)
counts the blocks without building their payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from ..util import canonical_csr, ceil_div

__all__ = ["BlockLayout", "block_keys", "block_keys_by_dim", "extract_blocks",
           "blocks_to_coo_arrays"]


@dataclass
class BlockLayout:
    """Dense storage of the non-zero blocks of a matrix.

    Blocks are ordered row-major by ``(block_row, block_col)`` -- the order
    every blocked format in this package assumes.

    Attributes
    ----------
    shape:
        Logical (unpadded) matrix shape.
    block_height, block_width:
        Tile dimensions ``h`` and ``w``.
    block_row, block_col:
        Per-block coordinates in units of blocks, ``int32``.
    values:
        ``(nblocks, h, w)`` float64 array; positions that were zero in the
        source matrix hold explicit ``0.0`` (fill-in).
    """

    shape: tuple[int, int]
    block_height: int
    block_width: int
    block_row: np.ndarray
    block_col: np.ndarray
    values: np.ndarray

    @property
    def nblocks(self) -> int:
        return int(self.block_row.shape[0])

    @property
    def n_block_rows(self) -> int:
        return ceil_div(self.shape[0], self.block_height)

    @property
    def n_block_cols(self) -> int:
        return ceil_div(self.shape[1], self.block_width)

    @property
    def stored_values(self) -> int:
        """Number of value slots stored, including fill-in zeros."""
        return self.nblocks * self.block_height * self.block_width

    @property
    def nnz(self) -> int:
        """True non-zero count (fill-in excluded)."""
        return int(np.count_nonzero(self.values))

    @property
    def fill_ratio(self) -> float:
        """Stored slots divided by true non-zeros (>= 1; 1 = no fill-in)."""
        nnz = self.nnz
        return self.stored_values / nnz if nnz else 1.0

    def validate(self) -> None:
        """Check internal consistency; raises :class:`FormatError`."""
        nb = self.nblocks
        if self.block_col.shape != (nb,):
            raise FormatError("block_row/block_col length mismatch")
        if self.values.shape != (nb, self.block_height, self.block_width):
            raise FormatError(
                f"values shape {self.values.shape} != "
                f"({nb}, {self.block_height}, {self.block_width})"
            )
        if nb:
            key = self.block_row.astype(np.int64) * self.n_block_cols + self.block_col
            if np.any(np.diff(key) <= 0):
                raise FormatError("blocks are not strictly row-major ordered")
            if self.block_row.min() < 0 or self.block_row.max() >= self.n_block_rows:
                raise FormatError("block_row out of range")
            if self.block_col.min() < 0 or self.block_col.max() >= self.n_block_cols:
                raise FormatError("block_col out of range")


def block_keys(
    rows: np.ndarray,
    cols: np.ndarray,
    n_block_cols: int,
    block_height: int,
    block_width: int,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The key pass of :func:`extract_blocks`: which aligned block each
    entry falls in, keyed ``block_row * n_block_cols + block_col``.

    ``rows`` and ``cols`` are the ``int64`` coordinates of a canonical
    CSR's entries in row-major order.  Returns ``(keys, order, first)``:
    the ascending distinct keys, one per non-zero block; the stable
    permutation that sorts the entries' keys (``None`` for one-row
    blocks, whose keys row-major order already sorts); and the mask of
    each block's first entry in that sorted order.
    """
    key = (rows // block_height) * n_block_cols + cols // block_width
    order = None if block_height == 1 else np.argsort(key, kind="stable")
    sorted_key = key if order is None else key[order]
    first = np.ones(sorted_key.shape, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    return sorted_key[first], order, first


def block_keys_by_dim(matrix, dims):
    """``(h, w, keys)`` per ``(h, w)`` in ``dims``: :func:`block_keys`'
    distinct keys of ``matrix``'s canonical CSR, one per block of
    ``extract_blocks(matrix, h, w)``, from one read of its coordinates."""
    coo = canonical_csr(matrix).tocoo()
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    for h, w in dims:
        keys, _, _ = block_keys(rows, cols, ceil_div(coo.shape[1], w), h, w)
        yield h, w, keys


def extract_blocks(matrix, block_height: int, block_width: int) -> BlockLayout:
    """Extract the aligned ``h x w`` non-zero blocks of ``matrix``.

    Parameters
    ----------
    matrix:
        Anything :func:`repro.util.as_csr` accepts.
    block_height, block_width:
        Tile dimensions; must be positive.

    Returns
    -------
    BlockLayout
        Blocks in row-major order with dense fill-in payload.
    """
    if block_height < 1 or block_width < 1:
        raise FormatError(
            f"block dimensions must be >= 1, got {block_height}x{block_width}"
        )
    # Canonical CSR (no duplicates, no stored zeros) read in row-major
    # order: every (block, in-block position) below is written once.
    coo = canonical_csr(matrix).tocoo()
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    data = coo.data.astype(np.float64)

    n_block_cols = ceil_div(coo.shape[1], block_width)
    unique_keys, order, first = block_keys(
        rows, cols, n_block_cols, block_height, block_width
    )
    nblocks = unique_keys.shape[0]
    block_of = np.cumsum(first) - 1
    if order is not None:
        inverse = np.empty_like(block_of)
        inverse[order] = block_of
        block_of = inverse

    values = np.zeros((nblocks, block_height, block_width), dtype=np.float64)
    slot = (block_of * block_height + rows % block_height) * block_width
    values.reshape(-1)[slot + cols % block_width] = data

    layout = BlockLayout(
        shape=(int(coo.shape[0]), int(coo.shape[1])),
        block_height=int(block_height),
        block_width=int(block_width),
        block_row=(unique_keys // n_block_cols).astype(np.int32),
        block_col=(unique_keys % n_block_cols).astype(np.int32),
        values=values,
    )
    layout.validate()
    return layout


def blocks_to_coo_arrays(
    layout: BlockLayout,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a :class:`BlockLayout` back to element COO triplets.

    Fill-in zeros are dropped, making the round trip lossless with respect
    to the original matrix.

    Returns ``(rows, cols, data)``.
    """
    h, w = layout.block_height, layout.block_width
    nb = layout.nblocks
    if nb == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)

    base_r = layout.block_row.astype(np.int64) * h
    base_c = layout.block_col.astype(np.int64) * w
    in_r, in_c = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")

    rows = (base_r[:, None, None] + in_r[None]).ravel()
    cols = (base_c[:, None, None] + in_c[None]).ravel()
    data = layout.values.ravel()

    mask = data != 0.0
    return rows[mask], cols[mask], data[mask]
