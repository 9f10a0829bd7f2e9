"""Non-zero block extraction shared by all blocked formats.

A *non-zero block* of size ``h x w`` is an aligned tile of the matrix that
contains at least one non-zero.  Blocked formats (BCOO/BCCOO, BCSR, BELL)
store every such tile densely, so a block containing zeros pays *fill-in*:
explicitly stored zeros.  The trade-off the paper's auto-tuner explores is
exactly fill-in (more value bytes) against index compression (one
row/column index per block instead of per non-zero).

The extractor is fully vectorized: one stable sort of the entries per
block height (:class:`BlockOrders`; none for one-row blocks, whose keys
row-major order already sorts), shared by every block width, then one
pass of integer arithmetic for block discovery and one scatter for the
dense payload.  The key pass alone (:meth:`BlockOrders.keys_by_dim`)
counts the blocks without building their payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from ..obs.stages import active_stages
from ..util import canonical_csr, ceil_div

__all__ = ["BlockLayout", "BlockOrders", "extract_blocks", "blocks_to_coo_arrays"]


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


class BlockOrders:
    """A canonical CSR and, per block height ``h``, the stable order that
    sorts its entries by ``(row // h, col)``.

    ``col // w`` never decreases as ``col`` grows, so that one order also
    sorts the block keys ``(row // h) * n_block_cols + col // w`` of
    every block width ``w``: each height is sorted once, on first use,
    and every width, the block-size ranking and every layout extraction
    reuse it.  One-row blocks need no sort, since row-major order
    already sorts their keys.  Only the orders are kept, in the
    narrowest unsigned dtype that indexes the entries; each sort counts
    as one ``key_sorts`` on the active stage clock.

    Functions that take a matrix to block (:func:`extract_blocks`,
    :func:`~repro.formats.footprint.bccoo_block_candidates`, the tuner's
    search spaces and format cache) also take its :class:`BlockOrders`
    (:meth:`coerce`), so a tune sorts each height once for all of them.
    Within a block, the entries come in column order rather than in
    row-major order; each (block, slot) is written once, so the
    layouts do not depend on it.
    """

    def __init__(self, matrix):
        self.csr = canonical_csr(matrix)
        self._orders: dict[int, np.ndarray] = {}

    @classmethod
    def coerce(cls, matrix) -> "BlockOrders":
        """``matrix`` itself when it is a :class:`BlockOrders`, else the
        orders of its canonical CSR."""
        return matrix if isinstance(matrix, cls) else cls(matrix)

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    def order(self, block_height: int) -> np.ndarray | None:
        """The stable permutation sorting the entries by ``(row //
        block_height, col)``, or ``None`` for one-row blocks."""
        if block_height == 1:
            return None
        order = self._orders.get(block_height)
        if order is None:
            rows, cols = self._coordinates()
            key = (rows // block_height) * self.csr.shape[1] + cols
            order = np.argsort(key, kind="stable").astype(
                np.min_scalar_type(max(key.shape[0] - 1, 0))
            )
            self._orders[block_height] = order
            clock = active_stages()
            if clock is not None:
                clock.count("key_sorts")
        return order

    def _coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries' ``int64`` rows and columns, in row-major order."""
        indptr = self.csr.indptr
        rows = np.repeat(
            np.arange(self.csr.shape[0], dtype=np.int64), np.diff(indptr)
        )
        return rows, self.csr.indices.astype(np.int64)

    def _sorted(self, block_height: int):
        """``(rows, cols, order)``: the coordinates in :meth:`order`."""
        rows, cols = self._coordinates()
        order = self.order(block_height)
        if order is not None:
            rows, cols = rows[order], cols[order]
        return rows, cols, order

    def keys_by_dim(self, dims):
        """``(h, w, keys)`` per ``(h, w)`` in ``dims``: the ascending
        distinct block keys, one per block of ``extract_blocks(matrix,
        h, w)``.  Consecutive dims of one height share its sorted
        coordinates."""
        height = None
        for h, w in dims:
            if h != height:
                height = h
                rows, cols, _ = self._sorted(h)
                block_rows = rows // h
            key = block_rows * ceil_div(self.csr.shape[1], w) + cols // w
            yield h, w, _distinct(key)[0]

    def layout(self, block_height: int, block_width: int) -> "BlockLayout":
        """The :class:`BlockLayout` of :func:`extract_blocks`."""
        if block_height < 1 or block_width < 1:
            raise FormatError(
                f"block dimensions must be >= 1, got {block_height}x{block_width}"
            )
        rows, cols, order = self._sorted(block_height)
        data = self.csr.data if order is None else self.csr.data[order]
        shape = self.csr.shape
        n_block_cols = ceil_div(shape[1], block_width)
        keys, first = _distinct(
            (rows // block_height) * n_block_cols + cols // block_width
        )
        block_of = np.cumsum(first) - 1
        values = np.zeros(
            (keys.shape[0], block_height, block_width), dtype=np.float64
        )
        slot = (block_of * block_height + rows % block_height) * block_width
        values.reshape(-1)[slot + cols % block_width] = data

        layout = BlockLayout(
            shape=(int(shape[0]), int(shape[1])),
            block_height=int(block_height),
            block_width=int(block_width),
            block_row=(keys // n_block_cols).astype(np.int32),
            block_col=(keys % n_block_cols).astype(np.int32),
            values=values,
        )
        layout.validate()
        return layout


def _distinct(sorted_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an ascending key array and the mask of
    each one's first occurrence."""
    first = np.ones(sorted_key.shape, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    return sorted_key[first], first


def extract_blocks(matrix, block_height: int, block_width: int) -> BlockLayout:
    """Extract the aligned ``h x w`` non-zero blocks of ``matrix``.

    Parameters
    ----------
    matrix:
        Anything :func:`repro.util.as_csr` accepts, or its
        :class:`BlockOrders` (whose sort of ``block_height`` is reused).
    block_height, block_width:
        Tile dimensions; must be positive.

    Returns
    -------
    BlockLayout
        Blocks in row-major order with dense fill-in payload.
    """
    return BlockOrders.coerce(matrix).layout(block_height, block_width)


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
