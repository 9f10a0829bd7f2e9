"""Merge-path CSR: equal-work team decomposition over the CSR streams.

CSR's classic GPU weakness is load imbalance -- a thread (or vector) per
row stalls the whole warp on the longest row.  The merge-path family
(Merrill & Garland; the CUSP/iSparse ``spmv_GPU_D`` kernels in
SNIPPETS.md) fixes this by walking the *merge* of the row-offset array
and the non-zero stream: total work ``nrows + nnz`` is split into
equal-sized chunks and a load-balancing search finds, for every chunk,
the ``(row, nnz)`` coordinate where its diagonal crosses the merge path.
Each team then processes exactly the same number of non-zeros no matter
how skewed the row lengths are; a row spanning a team boundary is
finished by carry continuation -- the successor team starts from its
predecessor's open partial, so the per-row accumulation order is the
strict sequential CSR fold.

This module stores the host-side model of that format:

* the unchanged CSR triplet (``row_ptr``, ``col_index``, ``values``),
* the precomputed load-balancing-search output ``team_rows`` (the first
  row of every team chunk) -- the array a device kernel binary-searches
  once per team instead of once per element,
* the adaptive ``threads_per_vector`` picked by the ``cal_vectors``
  heuristic from the related work: the smallest power of two in
  ``[2, 32]`` at least ``sqrt(ceil(nnz / nrows))``.

The matching kernel lives in :mod:`repro.kernels.merge_path`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse as _sp

from ..errors import FormatError, ValidationError
from ..util import as_csr, canonical_csr, ceil_div
from .base import FP32, ByteSizes, Footprint, SparseFormat, register_format

__all__ = ["MergeCSRMatrix", "cal_vectors", "DEFAULT_ITEMS_PER_THREAD"]

#: Non-zeros each *thread* of a team consumes sequentially; a team chunk
#: holds ``threads_per_vector * DEFAULT_ITEMS_PER_THREAD`` non-zeros.
DEFAULT_ITEMS_PER_THREAD = 8


def cal_vectors(sqrt_avg: int) -> int:
    """Adaptive THREADS_PER_VECTOR heuristic from the related work.

    Returns the smallest power of two in ``[2, 32]`` that is at least
    ``sqrt_avg`` (``sqrt`` of the average row length), capped at 32 --
    the warp width.  Mirrors ``cal_vectors`` in the iSparse/CUSP GMRES
    SpMV driver (SNIPPETS.md snippet 2).
    """
    sqrt_avg = int(sqrt_avg)
    i = 2
    while i <= 32:
        if sqrt_avg <= i or i == 32:
            return i
        i <<= 1
    return 2


@register_format
class MergeCSRMatrix(SparseFormat):
    """CSR plus precomputed merge-path team coordinates.

    Parameters are normally supplied through :meth:`from_scipy`; the raw
    constructor is for tests and internal use.
    """

    name = "merge_csr"

    def __init__(
        self,
        shape,
        row_ptr: np.ndarray,
        col_index: np.ndarray,
        values: np.ndarray,
        team_nnz: int,
        threads_per_vector: int,
    ):
        super().__init__(shape)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_index = np.asarray(col_index, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.team_nnz = int(team_nnz)
        self.threads_per_vector = int(threads_per_vector)
        self._validate()
        # Load-balancing search: the row containing each team's first
        # non-zero.  ``side='right' - 1`` lands split rows on the row
        # being continued, exactly the coordinate the device kernel's
        # per-team binary search produces.
        starts = self.team_starts()
        self.team_rows = (
            np.searchsorted(self.row_ptr, starts, side="right") - 1
        ).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_scipy(
        cls,
        matrix,
        team_nnz: int | None = None,
        items_per_thread: int = DEFAULT_ITEMS_PER_THREAD,
        **params,
    ) -> "MergeCSRMatrix":
        """Convert any matrix to merge-path CSR.

        Parameters
        ----------
        team_nnz:
            Non-zeros per team chunk.  Defaults to
            ``cal_vectors(sqrt(avg_row_length)) * items_per_thread`` --
            the adaptive heuristic scales team size with row density.
        items_per_thread:
            Sequential non-zeros per thread under the default sizing.
        """
        # The arrays are copied below (``astype``): a canonical input
        # needs no copy of its own.
        csr = canonical_csr(matrix)
        nrows = csr.shape[0]
        nnz = int(csr.nnz)
        avg = ceil_div(max(nnz, 1), max(nrows, 1))
        tpv = cal_vectors(math.isqrt(avg))
        if team_nnz is None:
            team_nnz = max(tpv * max(int(items_per_thread), 1), 1)
        return cls(
            csr.shape,
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
            team_nnz,
            tpv,
        )

    # ------------------------------------------------------------------ #
    # Incremental value refresh
    # ------------------------------------------------------------------ #

    def with_values(self, matrix) -> "MergeCSRMatrix":
        """Rebuild only the value payload from a structurally identical matrix.

        The row pointers, column indices and team coordinates are shared
        with ``self`` by identity -- only the value array is replaced.
        Any structural drift (shape, nnz, a moved entry) raises
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
        if not np.array_equal(csr.indptr, self.row_ptr) or not np.array_equal(
            csr.indices, self.col_index
        ):
            raise ValidationError(
                "with_values structure mismatch: the new matrix's sparsity "
                "pattern differs from the format's"
            )
        out = MergeCSRMatrix.__new__(MergeCSRMatrix)
        SparseFormat.__init__(out, self.shape)
        out.row_ptr = self.row_ptr
        out.col_index = self.col_index
        out.values = csr.data.astype(np.float64)
        out.team_nnz = self.team_nnz
        out.threads_per_vector = self.threads_per_vector
        out.team_rows = self.team_rows
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        return int(self.col_index.shape[0])

    @property
    def n_teams(self) -> int:
        return max(ceil_div(self.nnz, self.team_nnz), 1)

    def team_starts(self) -> np.ndarray:
        """First non-zero index of every team chunk (implicit arithmetic)."""
        return np.arange(self.n_teams, dtype=np.int64) * self.team_nnz

    def row_map(self) -> np.ndarray:
        """Rows with at least one non-zero, ascending."""
        return np.flatnonzero(np.diff(self.row_ptr) > 0).astype(np.int64)

    def row_stops(self) -> np.ndarray:
        """End-of-row marker per non-zero (the bit-flag analogue).

        ``True`` on the last element of every non-empty row; the row
        ordinal of element ``k`` is the number of stops before it.
        """
        stops = np.zeros(self.nnz, dtype=bool)
        ends = self.row_ptr[1:][np.diff(self.row_ptr) > 0] - 1
        stops[ends] = True
        return stops

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
        return _sp.csr_matrix(
            (self.values.copy(), self.col_index.copy(), self.row_ptr.copy()),
            shape=self.shape,
        )

    def footprint(self, sizes: ByteSizes = FP32) -> Footprint:
        """Device footprint: the CSR triplet plus the team coordinates.

        The team's starting non-zero index is implicit (``team *
        team_nnz``), so only the row coordinate of the load-balancing
        search is stored.
        """
        fp = Footprint()
        fp.add("values", self.nnz * sizes.value)
        fp.add("col_index", self.nnz * sizes.index)
        fp.add("row_ptr", (self.nrows + 1) * sizes.index)
        fp.add("team_rows", self.n_teams * sizes.index)
        return fp

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV walking the team decomposition in order.

        Teams are processed sequentially and accumulate straight into
        ``y`` -- a row split across teams receives its carry *before*
        the successor team's elements, so the result is bit-identical to
        the strict sequential per-row CSR fold.
        """
        x = self._check_x(x)
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
        )
        prods = self.values * x[self.col_index]
        y = np.zeros(self.nrows, dtype=np.float64)
        starts = self.team_starts()
        for t in range(self.n_teams):
            s = int(starts[t])
            e = min(s + self.team_nnz, self.nnz)
            if e > s and rows[s] != self.team_rows[t]:
                raise FormatError(
                    f"team {t} coordinate {self.team_rows[t]} disagrees with "
                    f"the row pointers (element {s} lies in row {rows[s]})"
                )
            np.add.at(y, rows[s:e], prods[s:e])
        return y

    # ------------------------------------------------------------------ #
    # Shared-memory export (serve process mode)
    # ------------------------------------------------------------------ #

    def share_arrays(self) -> dict[str, np.ndarray]:
        """Structural + value arrays for a :class:`SharedArena` export."""
        return {
            "merge.row_ptr": self.row_ptr,
            "merge.col_index": self.col_index,
            "merge.values": self.values,
        }

    def shm_meta(self) -> dict:
        """Scalar metadata reconstructing the instance around shared arrays."""
        return {
            "format": self.name,
            "shape": self.shape,
            "team_nnz": self.team_nnz,
            "threads_per_vector": self.threads_per_vector,
        }

    @classmethod
    def from_shared(cls, meta: dict, arrays: dict) -> "MergeCSRMatrix":
        """Rebuild from :meth:`shm_meta` + adopted arena views."""
        return cls(
            tuple(meta["shape"]),
            arrays["merge.row_ptr"],
            arrays["merge.col_index"],
            arrays["merge.values"],
            meta["team_nnz"],
            meta["threads_per_vector"],
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if self.row_ptr.shape != (self.nrows + 1,):
            raise FormatError(
                f"row_ptr length {self.row_ptr.shape[0]} != nrows+1 "
                f"({self.nrows + 1})"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_index.shape[0]:
            raise FormatError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        if self.values.shape != self.col_index.shape:
            raise FormatError(
                f"values length {self.values.shape[0]} != col_index length "
                f"{self.col_index.shape[0]}"
            )
        if self.team_nnz < 1:
            raise FormatError(f"team_nnz must be >= 1, got {self.team_nnz}")
        if self.threads_per_vector < 1:
            raise FormatError(
                f"threads_per_vector must be >= 1, got {self.threads_per_vector}"
            )
