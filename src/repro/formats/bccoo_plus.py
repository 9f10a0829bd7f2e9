"""BCCOO+ -- vertically sliced BCCOO (paper section 2.3).

The matrix is cut into ``slice_count`` vertical slices which are stacked
top-down into a tall matrix ``B`` (Figure 4a); BCCOO is then applied to
``B``, **except** that column indices keep their coordinates in the
*original* matrix so the kernel can index the multiplied vector directly.

The win: all blocks of slice ``s`` read only the vector window
``x[s*W : (s+1)*W]``, so vector accesses gain locality (texture-cache hit
rate).  The cost: each slice produces its own partial result vector, so a
temporary buffer of ``slice_count * nrows`` values and an extra *combine*
kernel are needed (Figure 5) -- which is why the auto-tuner picks BCCOO+
only when the locality win dominates (the paper's tuner selects it for a
single matrix, LP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp

from ..errors import FormatError, ValidationError
from ..util import as_coo_sorted, as_csr, ceil_div
from .base import FP32, ByteSizes, Footprint, SparseFormat, register_format
from .bccoo import BCCOOMatrix, auto_col_storage
from .blocking import BlockLayout, extract_blocks

__all__ = ["BCCOOPlusMatrix", "StackedLayout"]


@dataclass(frozen=True)
class StackedLayout:
    """The block layout of BCCOO+'s stacked matrix: the stacked blocks,
    their column indices in the original matrix, and the slicing."""

    blocks: BlockLayout
    col_override: np.ndarray
    #: The original matrix's shape.
    shape: tuple[int, int]
    slice_count: int
    slice_width: int


def _stacked_view(layout: StackedLayout) -> dict:
    """The stacked matrix as its BCCOO sees it: its own row count, the
    original matrix's columns and the blocks' original column indices."""
    return {
        "shape": (layout.blocks.shape[0], layout.shape[1]),
        "col_override": layout.col_override,
    }


@register_format
class BCCOOPlusMatrix(SparseFormat):
    """Vertical-slice-stacked BCCOO with original-matrix column indices.

    Attributes
    ----------
    stacked:
        The :class:`BCCOOMatrix` of the stacked matrix ``B``.  Its shape is
        ``(slice_count * padded_rows, original_cols)`` and its column
        indices are original-matrix block columns.
    slice_count, slice_width:
        Number of vertical slices and each slice's width in elements
        (a multiple of the block width).
    """

    name = "bccoo+"

    def __init__(self, shape, stacked: BCCOOMatrix, slice_count: int, slice_width: int):
        super().__init__(shape)
        self.stacked = stacked
        self.slice_count = int(slice_count)
        self.slice_width = int(slice_width)
        if self.slice_count < 1:
            raise FormatError(f"slice_count must be >= 1, got {slice_count}")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scipy(
        cls,
        matrix,
        slice_count: int = 2,
        block_height: int = 1,
        block_width: int = 1,
        bit_word_dtype=np.uint32,
        pad_multiple: int = 1,
        col_storage: str = "auto",
        delta_tile_size: int = 16,
        **params,
    ) -> "BCCOOPlusMatrix":
        layout = cls.stacked_layout(matrix, slice_count, block_height, block_width)
        return cls.from_stacked_layout(
            layout,
            bit_word_dtype=bit_word_dtype,
            pad_multiple=pad_multiple,
            col_storage=col_storage,
            delta_tile_size=delta_tile_size,
        )

    @staticmethod
    def stacked_layout(
        matrix, slice_count: int, block_height: int, block_width: int
    ) -> "StackedLayout":
        """Slice ``matrix``, extract each slice's blocks and stack them:
        the block layout every BCCOO+ build of these dimensions shares."""
        csr = as_csr(matrix)
        nrows, ncols = csr.shape
        if slice_count < 1:
            raise FormatError(f"slice_count must be >= 1, got {slice_count}")

        # Slice width: cover all columns, aligned to the block width so a
        # block never straddles a slice boundary.
        width_blocks = ceil_div(ceil_div(ncols, block_width), slice_count)
        slice_width = max(width_blocks, 1) * block_width

        padded_block_rows = ceil_div(nrows, block_height)

        parts: list[BlockLayout] = []
        col_orig: list[np.ndarray] = []
        row_stacked: list[np.ndarray] = []
        for s in range(slice_count):
            c0 = s * slice_width
            c1 = min(c0 + slice_width, ncols)
            if c0 >= ncols:
                break
            sub = csr[:, c0:c1]
            if sub.nnz == 0:
                continue
            layout = extract_blocks(sub, block_height, block_width)
            parts.append(layout)
            # Column indices in the ORIGINAL matrix (paper: "the column
            # index array is generated based on the block coordinates in
            # the original matrix").
            col_orig.append(layout.block_col + c0 // block_width)
            row_stacked.append(layout.block_row + s * padded_block_rows)

        if parts:
            merged = BlockLayout(
                shape=(
                    slice_count * padded_block_rows * block_height,
                    ncols,
                ),
                block_height=block_height,
                block_width=block_width,
                block_row=np.concatenate(row_stacked).astype(np.int32),
                block_col=np.concatenate(
                    [p.block_col for p in parts]
                ).astype(np.int32),
                values=np.concatenate([p.values for p in parts]),
            )
            override = np.concatenate(col_orig).astype(np.int32)
        else:
            merged = BlockLayout(
                shape=(slice_count * padded_block_rows * block_height, ncols),
                block_height=block_height,
                block_width=block_width,
                block_row=np.empty(0, dtype=np.int32),
                block_col=np.empty(0, dtype=np.int32),
                values=np.empty((0, block_height, block_width), dtype=np.float64),
            )
            override = np.empty(0, dtype=np.int32)
        return StackedLayout(merged, override, (nrows, ncols), slice_count, slice_width)

    @classmethod
    def from_stacked_layout(
        cls,
        layout: "StackedLayout",
        bit_word_dtype=np.uint32,
        pad_multiple: int = 1,
        col_storage: str = "auto",
        delta_tile_size: int = 16,
    ) -> "BCCOOPlusMatrix":
        """Build BCCOO+ from a :meth:`stacked_layout`."""
        stacked = BCCOOMatrix.from_block_layout(
            layout.blocks,
            bit_word_dtype=bit_word_dtype,
            pad_multiple=pad_multiple,
            col_storage=col_storage,
            delta_tile_size=delta_tile_size,
            **_stacked_view(layout),
        )
        return cls(layout.shape, stacked, layout.slice_count, layout.slice_width)

    @staticmethod
    def auto_col_storage(layout: "StackedLayout", delta_tile_size: int) -> str:
        """The column storage :meth:`from_stacked_layout` picks for
        ``col_storage="auto"`` (see :func:`~repro.formats.bccoo.auto_col_storage`)."""
        return auto_col_storage(layout.blocks, delta_tile_size, **_stacked_view(layout))

    # ------------------------------------------------------------------ #
    # Incremental value refresh
    # ------------------------------------------------------------------ #

    def with_values(self, matrix) -> "BCCOOPlusMatrix":
        """Value-only rebuild; see :meth:`BCCOOMatrix.with_values`.

        Entries are mapped into the stacked coordinate system (slice ``s``
        shifts block rows by ``s * padded_block_rows`` while column indices
        stay in the original matrix) and scattered through the stacked
        format's structural arrays.
        """
        coo = as_coo_sorted(matrix)
        if coo.shape != self.shape:
            raise ValidationError(
                f"with_values shape mismatch: format is {self.shape}, "
                f"new matrix is {coo.shape}"
            )
        if int(coo.nnz) != self.nnz:
            raise ValidationError(
                f"with_values nnz mismatch: format holds {self.nnz} "
                f"non-zeros, new matrix has {coo.nnz}"
            )
        h, w = self.block_height, self.block_width
        rows = coo.row.astype(np.int64)
        cols = coo.col.astype(np.int64)
        pbr = self.padded_rows_per_slice // h
        s = cols // self.slice_width
        stacked_brow = rows // h + s * pbr
        keys = stacked_brow * self.stacked.n_block_cols + cols // w
        slots = self.stacked._value_slots(keys, rows % h, cols % w)
        values = np.zeros_like(self.stacked.values)
        values.reshape(-1)[slots] = coo.data
        stacked = self.stacked._twin(values, None)
        return BCCOOPlusMatrix(self.shape, stacked, self.slice_count, self.slice_width)

    # ------------------------------------------------------------------ #
    # Introspection / combine
    # ------------------------------------------------------------------ #

    @property
    def block_height(self) -> int:
        return self.stacked.block_height

    @property
    def block_width(self) -> int:
        return self.stacked.block_width

    @property
    def nblocks(self) -> int:
        return self.stacked.nblocks

    @property
    def nnz(self) -> int:
        return self.stacked.nnz

    @property
    def padded_rows_per_slice(self) -> int:
        """Stacked-row stride of one slice, in element rows."""
        return ceil_div(self.nrows, self.block_height) * self.block_height

    @property
    def temp_buffer_rows(self) -> int:
        """Rows of the intermediate result buffer the combine kernel reads."""
        return self.slice_count * self.padded_rows_per_slice

    def combine(self, y_stacked: np.ndarray) -> np.ndarray:
        """Host reference of the combine kernel: sum slice partials (Figure 5).

        ``y_stacked`` holds one value per stacked row, or a row of ``k``
        values for a multi-vector product.
        """
        stride = self.padded_rows_per_slice
        if y_stacked.shape[0] != self.slice_count * stride:
            raise FormatError(
                f"stacked result length {y_stacked.shape[0]} != "
                f"{self.slice_count} * {stride}"
            )
        folded = y_stacked.reshape(
            (self.slice_count, stride) + y_stacked.shape[1:]
        ).sum(axis=0)
        return folded[: self.nrows]

    def validate(self):
        """Run the runtime invariant checkers (stacked + slice checks).

        Returns a :class:`repro.fault.ValidationReport`.
        """
        from ..fault.validation import validate_format

        return validate_format(self)

    # ------------------------------------------------------------------ #
    # SparseFormat interface
    # ------------------------------------------------------------------ #

    def to_scipy(self) -> _sp.csr_matrix:
        b = self.stacked.to_scipy().tocoo()
        stride = self.padded_rows_per_slice
        rows = b.row % stride
        keep = rows < self.nrows
        return _sp.coo_matrix(
            (b.data[keep], (rows[keep], b.col[keep])), shape=self.shape
        ).tocsr()

    def footprint(
        self, sizes: ByteSizes = FP32, tile_size: int | None = None
    ) -> Footprint:
        """Stacked BCCOO footprint plus the temporary slice-result buffer."""
        fp = self.stacked.footprint(sizes, tile_size=tile_size)
        fp.add("slice_temp_buffer", self.temp_buffer_rows * sizes.value)
        return fp

    def multiply(self, x: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        y_stacked = self.stacked.multiply(x)
        # stacked.multiply returns stacked.nrows values already.
        return self.combine(y_stacked)

    # ------------------------------------------------------------------ #
    # Shared-memory export (serve process mode)
    # ------------------------------------------------------------------ #

    def share_arrays(self) -> dict[str, np.ndarray]:
        """The stacked BCCOO's arrays (the slices carry none of their own)."""
        return self.stacked.share_arrays()

    def shm_meta(self) -> dict:
        """Scalar metadata reconstructing the instance around shared arrays."""
        return {
            "format": self.name,
            "shape": self.shape,
            "slice_count": self.slice_count,
            "slice_width": self.slice_width,
            "stacked": self.stacked.shm_meta(),
        }

    @classmethod
    def from_shared(cls, meta: dict, arrays: dict) -> "BCCOOPlusMatrix":
        """Rebuild from :meth:`shm_meta` + adopted arena views."""
        stacked = BCCOOMatrix.from_shared(meta["stacked"], arrays)
        return cls(
            tuple(meta["shape"]), stacked, meta["slice_count"], meta["slice_width"]
        )
