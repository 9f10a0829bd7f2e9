"""Blocked Compressed Common Coordinate (BCCOO) -- the paper's new format.

BCCOO = blocked COO (section 2.2, Figure 2) with two compressions:

1. the per-block **row-index array becomes a bit-flag array** (one bit per
   block, ``0`` = row stop), a 32x reduction over ``int32`` row indices;
2. the per-block **column-index array** is stored as ``unsigned short``
   when the matrix is narrow enough (section 4), or delta-compressed to
   ``int16`` with a fallback sentinel (section 2.2), or kept as ``int32``.

The value payload is dense per block; for block height ``h > 1`` each
intra-block row conceptually lives in its own value array (Figure 2's two
value rows) -- we store ``(nblocks, h, w)`` and let the device layer pick
the physical interleaving (the online/offline transpose tuning knob).

All arrays are padded to a multiple of ``pad_multiple`` (the workgroup
working set) with zero blocks and continue flags so kernels never branch
on array ends (section 2.2).

Empty block rows are handled with a ``nonempty_block_rows`` map from stop
ordinal to actual block row; it is the identity (and is not stored) when
every block row is occupied.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy import sparse as _sp

from ..errors import FormatError, ValidationError
from ..util import as_csr, ceil_div, round_up
from .base import FP32, ByteSizes, Footprint, SparseFormat, register_format
from .bitflags import (
    BitFlagArray,
    first_result_entries,
    pack,
    reconstruct_row_ordinals,
    stops_from_block_rows,
)
from .blocking import BlockLayout, blocks_to_coo_arrays, extract_blocks
from .delta import DeltaColumns, compress_columns, decompress_columns

__all__ = ["BCCOOMatrix", "COL_STORAGE_MODES", "block_dots", "counted_footprint"]

#: Valid column-index storage modes.
COL_STORAGE_MODES = ("auto", "int32", "ushort", "delta")

#: Matrices narrower than this use raw unsigned-short column indices
#: (paper section 4: "if the width of a sparse matrix is less than 65535").
USHORT_LIMIT = 65535
#: :meth:`BCCOOMatrix.from_scipy`'s delta segment length.
_DELTA_TILE = 16


def _auto_col_storage(
    n_block_cols: int, cols: np.ndarray, delta_tile_size: int
) -> str:
    """The ``"auto"`` column storage of blocks whose row-major block
    columns are ``cols``: ``ushort`` up to :data:`USHORT_LIMIT` block
    columns; past it, ``delta`` only when delta compression actually
    compresses (Table 1's "Col_index compress" decision), else ``int32``
    for scattered columns."""
    if n_block_cols <= USHORT_LIMIT:
        return "ushort"
    tile = max(delta_tile_size, 1)
    nb = cols.shape[0]
    probe = np.zeros(round_up(max(nb, 1), tile), dtype=np.int64)
    probe[:nb] = cols
    # Break-even: streaming shorts (2 B) plus the touched fraction of
    # the int32 fallback array must undercut streaming raw int32 (4 B).
    # A 128 B transaction holds 32 indices, so the touched fraction is
    # 1 - (1-p)^32 and delta wins only for p below ~2%.
    p = compress_columns(probe, tile).fallback_fraction
    touched = 1.0 - (1.0 - min(p, 1.0)) ** 32
    return "delta" if 2.0 + 4.0 * touched < 4.0 else "int32"


def block_dots(values: np.ndarray, xg: np.ndarray) -> np.ndarray:
    """Each block's dot products, in the kernel's order.

    ``values`` is ``(nb, h, w)`` and ``xg`` the vector elements each
    block reads, ``(nb, w)`` or ``(nb, w, k)``.  Lane ``l`` of block
    ``b`` (and column ``c``) is one thread's sequential sum ``s = 0.0;
    for j in range(w): s += values[b, l, j] * xg[b, j(, c)]``, so SpMV
    and every SpMM column add in one order.  ``np.einsum`` does not
    guarantee that: at ``w = 4`` its vector form computes
    ``(p0 + p2) + (p1 + p3)``.  Returns ``(nb, h)`` or ``(nb, h, k)``.
    """
    if xg.ndim == 2:
        def term(j):
            return values[:, :, j] * xg[:, None, j]
    else:
        def term(j):
            # An outer product per block: one multiply per element, no
            # reduction, and faster than the broadcast form.
            return np.einsum("bh,bk->bhk", values[:, :, j], xg[:, j, :])
    out = term(0)
    out += 0.0  # the sum starts from +0: a -0 first product becomes +0
    for j in range(1, values.shape[2]):
        out += term(j)
    return out


def _delta_tile(nblocks_padded: int, delta_tile_size: int) -> int:
    """The delta segment length: ``delta_tile_size``, or the largest
    divisor of the padded block count below it, since compression
    segments must tile the padded array exactly."""
    tile = delta_tile_size
    while nblocks_padded % tile != 0:
        tile -= 1
    return tile


def _footprint(
    sizes: ByteSizes,
    nblocks_padded: int,
    block_area: int,
    col_storage: str,
    delta_tiles: int | None,
    flag_bytes: int,
    row_map_entries: int | None,
) -> Footprint:
    """The BCCOO byte formula (see :meth:`BCCOOMatrix.footprint`);
    ``row_map_entries`` is ``None`` when the row map is the identity and
    is not stored."""
    fp = Footprint()
    fp.add("values", nblocks_padded * block_area * sizes.value)
    if col_storage == "int32":
        fp.add("col_index", nblocks_padded * sizes.index)
    else:
        fp.add("col_index", nblocks_padded * sizes.short)
        if col_storage == "delta":
            fp.add("tile_start_cols", delta_tiles * sizes.index)
    fp.add("bit_flags", flag_bytes)
    if row_map_entries is not None:
        fp.add("row_map", row_map_entries * sizes.index)
    return fp


def counted_footprint(
    keys: np.ndarray,
    shape: tuple[int, int],
    block_height: int,
    block_width: int,
    sizes: ByteSizes = FP32,
) -> Footprint:
    """``BCCOOMatrix.from_scipy(A, block_height, block_width).footprint(sizes)``
    from ``A``'s distinct block keys alone, building no format.

    ``keys`` are the ascending ``block_row * n_block_cols + block_col``
    keys of ``A``'s non-zero blocks (:func:`~repro.formats.blocking.block_keys`).
    At :meth:`~BCCOOMatrix.from_scipy`'s defaults -- ``uint32`` words,
    no extra padding, ``auto`` column storage, delta tile 16 -- the
    footprint reads only the block count, the non-empty block-row count
    and, past :data:`USHORT_LIMIT` block columns, the column storage
    that :func:`_auto_col_storage` probes from the block columns.
    """
    nb = keys.shape[0]
    n_block_cols = ceil_div(shape[1], block_width)
    # One bit per block, padded to whole uint32 words.
    nblocks_padded = round_up(max(nb, 1), 32)
    mode = "ushort"
    if n_block_cols > USHORT_LIMIT:
        mode = _auto_col_storage(n_block_cols, keys % n_block_cols, _DELTA_TILE)
    block_rows = keys // n_block_cols
    nonempty = int(np.count_nonzero(np.diff(block_rows))) + 1 if nb else 0
    return _footprint(
        sizes,
        nblocks_padded,
        block_height * block_width,
        mode,
        nblocks_padded // _delta_tile(nblocks_padded, _DELTA_TILE),
        nblocks_padded // 8,
        nonempty if nonempty < ceil_div(shape[0], block_height) else None,
    )


class _SlotMap:
    """Where each stored entry of one canonical CSR pattern lands in a
    BCCOO value array: ``values.reshape(-1)[slots] = csr.data``.

    Holds its own copy of the pattern it was computed for, never a
    format, so it can ride along with every value-refreshed twin.
    """

    __slots__ = ("indptr", "indices", "slots")

    def __init__(self, csr, slots: np.ndarray):
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.slots = slots

    def data_of(self, matrix, shape) -> np.ndarray | None:
        """``matrix``'s data vector if it is a ``shape`` CSR with this
        pattern and no stored zero (so it is already canonical), else
        ``None``."""
        if not (
            _sp.issparse(matrix)
            and matrix.format == "csr"
            and matrix.shape == shape
        ):
            return None
        data = matrix.data
        if (
            data.shape == self.indices.shape
            and np.array_equal(matrix.indptr, self.indptr)
            and np.array_equal(matrix.indices, self.indices)
            and np.count_nonzero(data) == data.shape[0]
        ):
            return data
        return None


@register_format
class BCCOOMatrix(SparseFormat):
    """The paper's BCCOO format.

    Parameters are normally supplied through :meth:`from_scipy`; the raw
    constructor is for tests and internal use.
    """

    name = "bccoo"

    def __init__(
        self,
        shape,
        block_height: int,
        block_width: int,
        flags: BitFlagArray,
        col_block: np.ndarray,
        values: np.ndarray,
        nonempty_block_rows: np.ndarray,
        col_storage: str,
        delta: DeltaColumns | None,
        nnz: int,
    ):
        super().__init__(shape)
        self.block_height = int(block_height)
        self.block_width = int(block_width)
        self.flags = flags
        self.col_block = np.asarray(col_block, dtype=np.int32)
        self.values = np.asarray(values, dtype=np.float64)
        self.nonempty_block_rows = np.asarray(nonempty_block_rows, dtype=np.int64)
        self.col_storage = col_storage
        self.delta = delta
        self._nnz = int(nnz)
        #: Entry-to-slot map of the last value refresh (see with_values).
        self._slot_map: _SlotMap | None = None
        self._validate()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scipy(
        cls,
        matrix,
        block_height: int = 1,
        block_width: int = 1,
        bit_word_dtype=np.uint32,
        pad_multiple: int = 1,
        col_storage: str = "auto",
        delta_tile_size: int = _DELTA_TILE,
        **params,
    ) -> "BCCOOMatrix":
        """Convert any matrix to BCCOO.

        Parameters
        ----------
        block_height, block_width:
            Non-zero block dimensions (Table 1: height 1-4, width 1/2/4).
        bit_word_dtype:
            Word type packing the bit flags (Table 1: u8/u16/u32).
        pad_multiple:
            Pad all arrays to this multiple -- kernels pass the workgroup
            working set (threads x tile size).
        col_storage:
            ``"auto"`` picks ``ushort`` for narrow matrices else ``delta``;
            explicit modes override.
        delta_tile_size:
            Segment length for delta compression (the thread-level tile
            size, so reconstruction stays thread-local).
        """
        if col_storage not in COL_STORAGE_MODES:
            raise FormatError(
                f"col_storage must be one of {COL_STORAGE_MODES}, got {col_storage!r}"
            )
        layout = extract_blocks(matrix, block_height, block_width)
        return cls.from_block_layout(
            layout,
            bit_word_dtype=bit_word_dtype,
            pad_multiple=pad_multiple,
            col_storage=col_storage,
            delta_tile_size=delta_tile_size,
        )

    @classmethod
    def from_block_layout(
        cls,
        layout: BlockLayout,
        bit_word_dtype=np.uint32,
        pad_multiple: int = 1,
        col_storage: str = "auto",
        delta_tile_size: int = 16,
        shape: tuple[int, int] | None = None,
        col_override: np.ndarray | None = None,
    ) -> "BCCOOMatrix":
        """Build BCCOO from an already-extracted :class:`BlockLayout`.

        ``shape`` / ``col_override`` exist for BCCOO+: the stacked matrix
        supplies its own logical shape while column indices refer to the
        *original* matrix (paper section 2.3).
        """
        if col_storage not in COL_STORAGE_MODES:
            raise FormatError(
                f"col_storage must be one of {COL_STORAGE_MODES}, got {col_storage!r}"
            )
        nb = layout.nblocks
        stops = stops_from_block_rows(layout.block_row)
        flags = pack(stops, bit_word_dtype, pad_multiple=max(pad_multiple, 1))
        nb_padded = flags.nbits

        col_block = np.zeros(nb_padded, dtype=np.int32)
        source_cols = layout.block_col if col_override is None else col_override
        col_block[:nb] = source_cols

        h, w = layout.block_height, layout.block_width
        values = np.zeros((nb_padded, h, w), dtype=np.float64)
        values[:nb] = layout.values

        # Blocks are row-major, so each block row's last block (its stop)
        # lists the non-empty block rows in order.
        nonempty = layout.block_row[stops].astype(np.int64)

        logical_shape = layout.shape if shape is None else shape
        n_block_cols_limit = round_up(logical_shape[1], w) // w
        mode = col_storage
        if mode == "auto":
            mode = _auto_col_storage(
                n_block_cols_limit, source_cols, delta_tile_size
            )
        if mode == "ushort" and n_block_cols_limit > USHORT_LIMIT:
            raise FormatError(
                f"ushort column storage needs <= {USHORT_LIMIT} block columns, "
                f"matrix has {n_block_cols_limit}"
            )
        delta = None
        if mode == "delta":
            if delta_tile_size < 1:
                raise FormatError(
                    f"delta_tile_size must be >= 1, got {delta_tile_size}"
                )
            tile = _delta_tile(nb_padded, delta_tile_size)
            delta = compress_columns(col_block, tile)

        return cls(
            logical_shape,
            h,
            w,
            flags,
            col_block,
            values,
            nonempty,
            mode,
            delta,
            layout.nnz,
        )

    # ------------------------------------------------------------------ #
    # Incremental value refresh
    # ------------------------------------------------------------------ #

    def with_values(self, matrix) -> "BCCOOMatrix":
        """Rebuild only the value payload from a structurally identical matrix.

        The bit flags, column indices (compressed or not), row map and
        padding are shared with ``self`` by identity -- only the dense
        per-block value array is rebuilt.  ``matrix`` must have the same
        shape and sparsity pattern; any structural drift (different nnz,
        an entry outside the existing blocks, a value that cancels to an
        explicit zero) raises :class:`~repro.errors.ValidationError`.

        The first refresh of a structure maps each entry of the canonical
        CSR to its value slot and hands that map to the refreshed twin.
        A refresh of the twin from a CSR with the same pattern and no
        stored zero then costs a pattern compare and one scatter.
        """
        slot_map = self._slot_map
        data = None if slot_map is None else slot_map.data_of(matrix, self.shape)
        if data is None:
            csr = as_csr(matrix)
            coo = csr.tocoo()
            if coo.shape != self.shape:
                raise ValidationError(
                    f"with_values shape mismatch: format is {self.shape}, "
                    f"new matrix is {coo.shape}"
                )
            if int(coo.nnz) != self._nnz:
                raise ValidationError(
                    f"with_values nnz mismatch: format holds {self._nnz} "
                    f"non-zeros, new matrix has {coo.nnz} (structure must be "
                    f"identical; zeros are eliminated during canonicalization)"
                )
            h, w = self.block_height, self.block_width
            rows = coo.row.astype(np.int64)
            cols = coo.col.astype(np.int64)
            keys = (rows // h) * self.n_block_cols + cols // w
            slot_map = _SlotMap(csr, self._value_slots(keys, rows % h, cols % w))
            data = coo.data
        values = np.zeros_like(self.values)
        values.reshape(-1)[slot_map.slots] = data
        return self._twin(values, slot_map)

    def _twin(self, values: np.ndarray, slot_map: _SlotMap | None) -> "BCCOOMatrix":
        """This format with a new value array of the same shape.  Every
        structural attribute is shared by identity, and was validated
        when ``self`` was built."""
        twin = copy.copy(self)
        twin.values = values
        twin._slot_map = slot_map
        return twin

    def _value_slots(
        self, keys: np.ndarray, in_r: np.ndarray, in_c: np.ndarray
    ) -> np.ndarray:
        """Flat slots in ``self.values`` of entries keyed by
        ``brow * n_block_cols + bcol``, at ``(in_r, in_c)`` in their block.

        Valid blocks are strictly row-major by ``(block_row, block_col)``,
        so the flattened keys are strictly ascending and a searchsorted
        lookup maps each entry to its block slot.
        """
        nb = self.nblocks
        h, w = self.block_height, self.block_width
        fmt_keys = (
            self.block_rows().astype(np.int64) * self.n_block_cols
            + self.columns()[:nb].astype(np.int64)
        )
        idx = np.searchsorted(fmt_keys, keys)
        if keys.size and (
            idx.max(initial=0) >= nb or not np.array_equal(fmt_keys[idx], keys)
        ):
            raise ValidationError(
                "with_values structure mismatch: the new matrix has an "
                "entry outside the format's non-zero blocks"
            )
        return idx * (h * w) + in_r.astype(np.int64) * w + in_c.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nblocks(self) -> int:
        """Number of real (unpadded) non-zero blocks."""
        return self.flags.n_valid

    @property
    def nblocks_padded(self) -> int:
        return self.flags.nbits

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def stored_values(self) -> int:
        """Value slots stored, fill-in and padding included."""
        return self.nblocks_padded * self.block_height * self.block_width

    @property
    def fill_ratio(self) -> float:
        return self.stored_values / self.nnz if self.nnz else 1.0

    @property
    def n_block_rows(self) -> int:
        return round_up(self.nrows, self.block_height) // self.block_height

    @property
    def n_block_cols(self) -> int:
        return round_up(self.ncols, self.block_width) // self.block_width

    @property
    def has_empty_block_rows(self) -> bool:
        """Whether some block row holds no block.  When none is empty the
        row map (strictly increasing, one entry per block row) is the
        identity, and a kernel may write its per-stop sums as ``y``."""
        return self.nonempty_block_rows.shape[0] < self.n_block_rows

    def stops(self) -> np.ndarray:
        """Boolean row-stop mask over the padded blocks."""
        return self.flags.stops()

    def block_rows(self) -> np.ndarray:
        """Reconstructed per-block block-row indices (valid blocks only).

        This is the lossless inverse of the bit-flag compression: stop
        ordinals mapped through ``nonempty_block_rows``.
        """
        stops = self.stops()[: self.nblocks]
        ordinals = reconstruct_row_ordinals(stops)
        if ordinals.size and ordinals.max() >= self.nonempty_block_rows.shape[0]:
            raise FormatError("bit flags encode more rows than the row map holds")
        return self.nonempty_block_rows[ordinals] if ordinals.size else ordinals

    def columns(self) -> np.ndarray:
        """Per-block column indices over the padded array (decompressed)."""
        if self.col_storage == "delta":
            assert self.delta is not None
            return decompress_columns(self.delta).astype(np.int32)
        return self.col_block

    def auxiliary(self, tile_size: int) -> dict[str, np.ndarray]:
        """Section 2.4 auxiliary info for a given thread-level tile size.

        Returns ``first_result_entry`` (the result-row ordinal of each
        thread's first partial sum) and ``tile_has_stop`` (per-tile early
        check that lets the kernel skip the workgroup parallel scan).
        """
        stops = self.stops()
        if stops.shape[0] % tile_size != 0:
            raise FormatError(
                f"tile size {tile_size} does not divide padded block count "
                f"{stops.shape[0]}; rebuild with pad_multiple=workgroup working set"
            )
        return {
            "first_result_entry": first_result_entries(stops, tile_size),
            "tile_has_stop": stops.reshape(-1, tile_size).any(axis=1),
        }

    def validate(self):
        """Run the runtime invariant checkers over this instance.

        Returns a :class:`repro.fault.ValidationReport`; call its
        ``raise_if_failed()`` to convert failures into a typed
        :class:`repro.errors.ValidationError`.
        """
        from ..fault.validation import validate_format

        return validate_format(self)

    # ------------------------------------------------------------------ #
    # SparseFormat interface
    # ------------------------------------------------------------------ #

    def to_scipy(self) -> _sp.csr_matrix:
        layout = BlockLayout(
            shape=(
                self.n_block_rows * self.block_height,
                self.n_block_cols * self.block_width,
            ),
            block_height=self.block_height,
            block_width=self.block_width,
            block_row=self.block_rows().astype(np.int32),
            block_col=self.columns()[: self.nblocks],
            values=self.values[: self.nblocks],
        )
        rows, cols, data = blocks_to_coo_arrays(layout)
        keep = (rows < self.nrows) & (cols < self.ncols)
        return _sp.coo_matrix(
            (data[keep], (rows[keep], cols[keep])), shape=self.shape
        ).tocsr()

    def footprint(
        self, sizes: ByteSizes = FP32, tile_size: int | None = None
    ) -> Footprint:
        """Device footprint; pass ``tile_size`` to include section 2.4 aux.

        Column indexing is charged at the *hot* representation the kernel
        streams: ``short`` bytes for ushort/delta modes, full index bytes
        for int32 -- matching how Table 3 counts BCCOO.  (In delta mode
        the uncompressed fallback array also exists but is touched only at
        sentinel positions, so it contributes bandwidth, not footprint,
        exactly as the paper accounts it.)
        """
        fp = _footprint(
            sizes,
            self.nblocks_padded,
            self.block_height * self.block_width,
            self.col_storage,
            None if self.delta is None else self.delta.n_tiles,
            self.flags.nbytes,
            (
                self.nonempty_block_rows.shape[0]
                if self.has_empty_block_rows
                else None
            ),
        )
        if tile_size is not None:
            aux = self.auxiliary(tile_size)
            fp.add(
                "first_result_entry",
                aux["first_result_entry"].shape[0] * sizes.index,
            )
        return fp

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV going through the full decode path.

        Deliberately exercises bit-flag reconstruction and column
        decompression so tests validate the encoded arrays, not a cached
        copy of the input.
        """
        x = self._check_x(x)
        h, w = self.block_height, self.block_width
        nb = self.nblocks
        y = np.zeros(self.n_block_rows * h, dtype=np.float64)
        if nb:
            cols = self.columns()[:nb].astype(np.int64)
            base_c = cols * w
            xg = np.zeros((nb, w), dtype=np.float64)
            for j in range(w):
                cidx = base_c + j
                valid = cidx < self.ncols
                xg[valid, j] = x[cidx[valid]]
            contrib = block_dots(self.values[:nb], xg)
            np.add.at(y.reshape(-1, h), self.block_rows().astype(np.intp), contrib)
        return y[: self.nrows]

    # ------------------------------------------------------------------ #
    # Shared-memory export (serve process mode)
    # ------------------------------------------------------------------ #

    def share_arrays(self) -> dict[str, np.ndarray]:
        """Structural + value arrays for a :class:`SharedArena` export."""
        arrays = {
            "bccoo.flags": self.flags.words,
            "bccoo.col_block": self.col_block,
            "bccoo.values": self.values,
            "bccoo.row_map": self.nonempty_block_rows,
        }
        if self.delta is not None:
            arrays["bccoo.delta.deltas"] = self.delta.deltas
            arrays["bccoo.delta.start_cols"] = self.delta.start_cols
            arrays["bccoo.delta.fallback"] = self.delta.fallback
        return arrays

    def shm_meta(self) -> dict:
        """Scalar metadata reconstructing the instance around shared arrays."""
        return {
            "format": self.name,
            "shape": self.shape,
            "block_height": self.block_height,
            "block_width": self.block_width,
            "col_storage": self.col_storage,
            "nnz": self.nnz,
            "flags_nbits": self.flags.nbits,
            "flags_n_valid": self.flags.n_valid,
            "delta_tile_size": (
                None if self.delta is None else self.delta.tile_size
            ),
        }

    @classmethod
    def from_shared(cls, meta: dict, arrays: dict) -> "BCCOOMatrix":
        """Rebuild from :meth:`shm_meta` + adopted arena views."""
        delta = None
        if meta["delta_tile_size"] is not None:
            delta = DeltaColumns(
                deltas=arrays["bccoo.delta.deltas"],
                start_cols=arrays["bccoo.delta.start_cols"],
                fallback=arrays["bccoo.delta.fallback"],
                tile_size=meta["delta_tile_size"],
            )
        flags = BitFlagArray(
            words=arrays["bccoo.flags"],
            nbits=meta["flags_nbits"],
            n_valid=meta["flags_n_valid"],
        )
        return cls(
            tuple(meta["shape"]),
            meta["block_height"],
            meta["block_width"],
            flags,
            arrays["bccoo.col_block"],
            arrays["bccoo.values"],
            arrays["bccoo.row_map"],
            meta["col_storage"],
            delta,
            meta["nnz"],
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        nbp = self.nblocks_padded
        if self.col_block.shape != (nbp,):
            raise FormatError(
                f"col_block length {self.col_block.shape[0]} != padded blocks {nbp}"
            )
        if self.values.shape != (nbp, self.block_height, self.block_width):
            raise FormatError(
                f"values shape {self.values.shape} != "
                f"({nbp}, {self.block_height}, {self.block_width})"
            )
        if self.col_storage not in ("int32", "ushort", "delta"):
            raise FormatError(f"invalid col_storage {self.col_storage!r}")
        if self.col_storage == "delta" and self.delta is None:
            raise FormatError("delta col_storage requires a DeltaColumns payload")
        n_stops = self.flags.n_row_stops
        if n_stops != self.nonempty_block_rows.shape[0]:
            raise FormatError(
                f"bit flags encode {n_stops} row stops but the row map has "
                f"{self.nonempty_block_rows.shape[0]} entries"
            )
