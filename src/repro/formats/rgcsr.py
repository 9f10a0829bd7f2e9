"""Adaptive row-grouped CSR (RG-CSR) -- Oberhuber et al.'s format.

Rows are bucketed by the power of two bounding their length (bucket
``g`` holds rows with ``2^(g-1) < length <= 2^g``; empty rows are
dropped), and each group stores its rows **column-major**, padded to the
group's *actual* maximum row length -- the "adaptive" refinement: a
bucket admitting up to ``2^g`` elements per row only pays for the
longest row it really contains.  Thread ``r`` of a group then walks its
row one lane at a time while the group's lane arrays stream fully
coalesced, ELL-style, but without ELL's global worst-row padding:
skewed matrices pay padding only within a bucket, where lengths differ
by at most 2x.

Stored arrays:

* ``row_perm`` -- original row index of every packed row, group by group;
* ``row_lengths`` -- true lengths aligned with ``row_perm`` (the lane
  validity predicate);
* ``group_row_offsets`` / ``group_data_offsets`` -- per-group starts
  into ``row_perm`` and the flat lane arrays;
* ``group_widths`` -- adaptive per-group pad width;
* ``col_index`` / ``values`` -- flat column-major lane arrays (padding
  lanes hold column 0 / value 0 and are skipped by the numerics).

The matching kernel lives in :mod:`repro.kernels.row_grouped`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from ..errors import FormatError, ValidationError
from ..util import as_csr, canonical_csr
from .base import FP32, ByteSizes, Footprint, SparseFormat, register_format

__all__ = ["RGCSRMatrix", "group_of_length"]

#: Column count below which the lane arrays store 16-bit columns (the
#: same rule the kernel's traffic model applies).
USHORT_COL_LIMIT = 1 << 16


def group_of_length(lengths: np.ndarray) -> np.ndarray:
    """Power-of-two bucket id per row length (length 1 -> 0, 2 -> 1,
    3..4 -> 2, 5..8 -> 3, ...).  Lengths must be >= 1."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)


def _lane_slots(
    row_lengths: np.ndarray,
    group_row_offsets: np.ndarray,
    group_data_offsets: np.ndarray,
    group_widths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot map of a row grouping: ``(lens, lane, slot)``.

    ``lens`` is each packed row's lane count, its length capped to its
    group's width.  ``lane`` and ``slot`` give, per stored element in
    packed-row order (a row's lanes ascending), its lane and its flat
    lane slot: lane ``j`` of the ``i``-th row of group ``g`` sits at
    ``group_data_offsets[g] + j * n_g + i``, ``n_g`` the group's row
    count.  Element ``e`` of packed row ``p`` is entry ``indptr[row_perm[p]]
    + lane[e]`` of the source CSR, so ``np.repeat(indptr[row_perm], lens)
    + lane`` maps every element to its source entry.
    """
    rows_per_group = np.diff(group_row_offsets)
    group = np.repeat(np.arange(rows_per_group.shape[0]), rows_per_group)
    lens = np.clip(row_lengths, 0, group_widths[group])
    first = (
        group_data_offsets[group]
        + np.arange(group.shape[0], dtype=np.int64)
        - group_row_offsets[group]
    )
    ends = np.cumsum(lens)
    lane = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    lane -= np.repeat(ends - lens, lens)
    slot = np.repeat(first, lens) + lane * np.repeat(rows_per_group[group], lens)
    return lens, lane, slot


@register_format
class RGCSRMatrix(SparseFormat):
    """Adaptive row-grouped CSR.

    Parameters are normally supplied through :meth:`from_scipy`; the raw
    constructor is for tests and internal use.
    """

    name = "rgcsr"

    def __init__(
        self,
        shape,
        row_perm: np.ndarray,
        row_lengths: np.ndarray,
        group_row_offsets: np.ndarray,
        group_data_offsets: np.ndarray,
        group_widths: np.ndarray,
        col_index: np.ndarray,
        values: np.ndarray,
    ):
        super().__init__(shape)
        self.row_perm = np.asarray(row_perm, dtype=np.int64)
        self.row_lengths = np.asarray(row_lengths, dtype=np.int64)
        self.group_row_offsets = np.asarray(group_row_offsets, dtype=np.int64)
        self.group_data_offsets = np.asarray(group_data_offsets, dtype=np.int64)
        self.group_widths = np.asarray(group_widths, dtype=np.int64)
        self.col_index = np.asarray(col_index, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self._validate()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scipy(cls, matrix, **params) -> "RGCSRMatrix":
        """Convert any matrix to adaptive row-grouped CSR."""
        csr = canonical_csr(matrix)
        lengths = np.diff(csr.indptr).astype(np.int64)
        nonempty = np.flatnonzero(lengths > 0).astype(np.int64)
        gids = group_of_length(lengths[nonempty]) if nonempty.size else (
            np.empty(0, dtype=np.int64)
        )
        # Stable sort keeps rows ascending within each bucket.
        order = np.argsort(gids, kind="stable")
        perm = nonempty[order]
        perm_lens = lengths[perm]
        sorted_gids = gids[order]

        present, counts = (
            np.unique(sorted_gids, return_counts=True)
            if sorted_gids.size
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        row_off = np.zeros(present.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=row_off[1:])

        # Every group holds a row: pad each to its longest.
        widths = (
            np.maximum.reduceat(perm_lens, row_off[:-1])
            if present.size
            else np.empty(0, dtype=np.int64)
        )
        data_off = np.zeros(present.shape[0] + 1, dtype=np.int64)
        np.cumsum(widths * counts, out=data_off[1:])

        lens, lane, slot = _lane_slots(perm_lens, row_off, data_off, widths)
        src = np.repeat(csr.indptr[perm].astype(np.int64), lens) + lane
        cols = np.zeros(int(data_off[-1]), dtype=np.int64)
        vals = np.zeros(int(data_off[-1]), dtype=np.float64)
        cols[slot] = csr.indices[src]
        vals[slot] = csr.data[src]
        return cls(
            csr.shape, perm, perm_lens, row_off, data_off, widths, cols, vals
        )

    # ------------------------------------------------------------------ #
    # Incremental value refresh
    # ------------------------------------------------------------------ #

    def with_values(self, matrix) -> "RGCSRMatrix":
        """Rebuild only the value payload from a structurally identical matrix.

        The permutation, lengths, group offsets and column lanes are
        shared with ``self`` by identity -- only the flat value array is
        rebuilt.  Any structural drift raises
        :class:`~repro.errors.ValidationError`.
        """
        csr = as_csr(matrix)
        if csr.shape != self.shape:
            raise ValidationError(
                f"with_values shape mismatch: format is {self.shape}, "
                f"new matrix is {csr.shape}"
            )
        if int(csr.nnz) != self.nnz:
            raise ValidationError(
                f"with_values nnz mismatch: format holds {self.nnz} "
                f"non-zeros, new matrix has {csr.nnz} (structure must be "
                f"identical; zeros are eliminated during canonicalization)"
            )
        indptr = csr.indptr.astype(np.int64)
        if not np.array_equal(np.diff(indptr)[self.row_perm], self.row_lengths):
            raise ValidationError(
                "with_values structure mismatch: row lengths differ from "
                "the format's grouping"
            )
        lens, lane, slot = self._lane_slots()
        src = np.repeat(indptr[self.row_perm], lens) + lane
        if not np.array_equal(csr.indices[src], self.col_index[slot]):
            raise ValidationError(
                "with_values structure mismatch: the new matrix's "
                "column pattern differs from the stored lanes"
            )
        vals = np.zeros_like(self.values)
        vals[slot] = csr.data[src]
        out = RGCSRMatrix.__new__(RGCSRMatrix)
        SparseFormat.__init__(out, self.shape)
        out.row_perm = self.row_perm
        out.row_lengths = self.row_lengths
        out.group_row_offsets = self.group_row_offsets
        out.group_data_offsets = self.group_data_offsets
        out.group_widths = self.group_widths
        out.col_index = self.col_index
        out.values = vals
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n_groups(self) -> int:
        return int(self.group_widths.shape[0])

    @property
    def n_packed_rows(self) -> int:
        return int(self.row_perm.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.row_lengths.sum())

    @property
    def padded_slots(self) -> int:
        """Lane slots stored, padding included."""
        return int(self.col_index.shape[0])

    @property
    def fill_ratio(self) -> float:
        return self.padded_slots / self.nnz if self.nnz else 1.0

    def lane_mask(self) -> np.ndarray:
        """Boolean validity flag per flat lane slot (the bit-flag analogue)."""
        mask = np.zeros(self.padded_slots, dtype=bool)
        mask[self._lane_slots()[2]] = True
        return mask

    def _lane_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This format's slot map (:func:`_lane_slots`)."""
        return _lane_slots(
            self.row_lengths,
            self.group_row_offsets,
            self.group_data_offsets,
            self.group_widths,
        )

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
        lens, _, slot = self._lane_slots()
        valid = np.zeros(self.padded_slots, dtype=bool)
        valid[slot] = True
        row_of = np.zeros(self.padded_slots, dtype=np.int64)
        row_of[slot] = np.repeat(self.row_perm, lens)
        # Entries in flat lane order: group by group, lane by lane.
        rows = row_of[valid]
        cols = self.col_index[valid]
        data = self.values[valid]
        return _sp.coo_matrix((data, (rows, cols)), shape=self.shape).tocsr()

    def footprint(self, sizes: ByteSizes = FP32) -> Footprint:
        """Device footprint at the hot representation the kernel streams.

        Column lanes are charged at 16 bits when every column index fits
        (``ncols < USHORT_COL_LIMIT``) -- the same rule the kernel's
        traffic model applies, mirroring how BCCOO counts its ushort
        column blocks.
        """
        col_b = sizes.short if self.ncols < USHORT_COL_LIMIT else sizes.index
        fp = Footprint()
        fp.add("values", self.padded_slots * sizes.value)
        fp.add("col_index", self.padded_slots * col_b)
        fp.add("row_perm", self.n_packed_rows * sizes.index)
        fp.add("row_lengths", self.n_packed_rows * sizes.index)
        fp.add("group_offsets", 2 * (self.n_groups + 1) * sizes.index)
        fp.add("group_widths", self.n_groups * sizes.index)
        return fp

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV walking the grouped lanes in order.

        Each packed row accumulates its elements lane by lane -- the
        strict sequential per-row fold, bit-identical to the CSR
        reference; padded lanes are skipped entirely (never multiplied,
        never added).
        """
        x = self._check_x(x)
        y = np.zeros(self.nrows, dtype=np.float64)
        for g in range(self.n_groups):
            r0, r1 = int(self.group_row_offsets[g]), int(self.group_row_offsets[g + 1])
            n, w = r1 - r0, int(self.group_widths[g])
            base = int(self.group_data_offsets[g])
            lens = self.row_lengths[r0:r1]
            acc = np.zeros(n, dtype=np.float64)
            for j in range(w):
                valid = lens > j
                slot = base + j * n + np.flatnonzero(valid)
                acc[valid] += self.values[slot] * x[self.col_index[slot]]
            y[self.row_perm[r0:r1]] = acc
        return y

    # ------------------------------------------------------------------ #
    # Shared-memory export (serve process mode)
    # ------------------------------------------------------------------ #

    def share_arrays(self) -> dict[str, np.ndarray]:
        """Structural + value arrays for a :class:`SharedArena` export."""
        return {
            "rg.row_perm": self.row_perm,
            "rg.row_lengths": self.row_lengths,
            "rg.group_row_offsets": self.group_row_offsets,
            "rg.group_data_offsets": self.group_data_offsets,
            "rg.group_widths": self.group_widths,
            "rg.col_index": self.col_index,
            "rg.values": self.values,
        }

    def shm_meta(self) -> dict:
        """Scalar metadata reconstructing the instance around shared arrays."""
        return {"format": self.name, "shape": self.shape}

    @classmethod
    def from_shared(cls, meta: dict, arrays: dict) -> "RGCSRMatrix":
        """Rebuild from :meth:`shm_meta` + adopted arena views."""
        return cls(
            tuple(meta["shape"]),
            arrays["rg.row_perm"],
            arrays["rg.row_lengths"],
            arrays["rg.group_row_offsets"],
            arrays["rg.group_data_offsets"],
            arrays["rg.group_widths"],
            arrays["rg.col_index"],
            arrays["rg.values"],
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        n = self.n_packed_rows
        g = self.n_groups
        if self.row_lengths.shape != (n,):
            raise FormatError(
                f"row_lengths length {self.row_lengths.shape[0]} != "
                f"packed rows {n}"
            )
        if self.group_row_offsets.shape != (g + 1,):
            raise FormatError(
                f"group_row_offsets length {self.group_row_offsets.shape[0]} "
                f"!= n_groups+1 ({g + 1})"
            )
        if self.group_data_offsets.shape != (g + 1,):
            raise FormatError(
                f"group_data_offsets length {self.group_data_offsets.shape[0]} "
                f"!= n_groups+1 ({g + 1})"
            )
        if self.group_row_offsets[0] != 0 or self.group_row_offsets[-1] != n:
            raise FormatError("group_row_offsets must start at 0 and end at n")
        if np.any(np.diff(self.group_row_offsets) < 0) or np.any(
            np.diff(self.group_data_offsets) < 0
        ):
            raise FormatError("group offsets must be non-decreasing")
        if self.group_data_offsets[0] != 0 or (
            self.group_data_offsets[-1] != self.col_index.shape[0]
        ):
            raise FormatError(
                "group_data_offsets must start at 0 and end at the flat "
                "lane length"
            )
        expect = (
            np.diff(self.group_row_offsets) * self.group_widths
        )
        if not np.array_equal(np.diff(self.group_data_offsets), expect):
            raise FormatError(
                "group data extents disagree with rows x width"
            )
        if self.values.shape != self.col_index.shape:
            raise FormatError(
                f"values length {self.values.shape[0]} != col_index length "
                f"{self.col_index.shape[0]}"
            )
        for g_i in range(g):
            r0, r1 = int(self.group_row_offsets[g_i]), int(
                self.group_row_offsets[g_i + 1]
            )
            lens = self.row_lengths[r0:r1]
            if lens.size and (
                lens.min() < 1 or lens.max() > self.group_widths[g_i]
            ):
                raise FormatError(
                    f"group {g_i} holds a row length outside "
                    f"[1, {int(self.group_widths[g_i])}]"
                )
