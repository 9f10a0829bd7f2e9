"""Runtime invariant checking and kernel-output verification.

Two layers:

* :func:`validate_format` walks the structural invariants a
  BCCOO/BCCOO+ instance must satisfy for the kernels to be correct --
  the row-stop count vs. the non-empty-row map, column ranges, delta
  round-trip, slice consistency.  These are exactly the invariants the
  bit-flag compression makes *implicit*: a corrupted flag word breaks
  them silently, so production use needs them checkable on demand.
* :func:`verify_output` compares a kernel's ``y`` against a sampled CSR
  reference with tolerance (plus a full finiteness sweep) -- cheap
  enough to run per multiply when a fault plan is active.

Both return a :class:`ValidationReport`; ``raise_if_failed`` converts a
failed report into a typed :class:`repro.errors.ValidationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError

__all__ = [
    "CheckResult",
    "ValidationReport",
    "validate_format",
    "verify_output",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Aggregate of all checks run against one format or output."""

    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    def merge(self, other: "ValidationReport") -> None:
        self.checks.extend(other.checks)

    def raise_if_failed(self) -> None:
        """Raise :class:`ValidationError` describing the first failure."""
        if self.ok:
            return
        first = self.failures[0]
        raise ValidationError(
            f"{self.subject}: check {first.name!r} failed: {first.detail}"
            + (f" (+{len(self.failures) - 1} more)" if len(self.failures) > 1 else ""),
            check=first.name,
            detail=first.detail,
        )

    def summary(self) -> str:
        lines = [f"{self.subject}: {'OK' if self.ok else 'FAILED'}"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Format invariants
# ---------------------------------------------------------------------- #


def _validate_bccoo(fmt, report: ValidationReport) -> None:
    nb = fmt.nblocks
    n_stops = fmt.flags.n_row_stops
    n_map = int(fmt.nonempty_block_rows.shape[0])
    report.add(
        "row_stop_count",
        n_stops == n_map,
        f"bit flags encode {n_stops} row stops, row map holds {n_map}",
    )

    rows = fmt.nonempty_block_rows
    sorted_ok = bool(np.all(np.diff(rows) > 0)) if rows.size > 1 else True
    in_range = bool(rows.size == 0 or (rows[0] >= 0 and rows[-1] < fmt.n_block_rows))
    report.add(
        "row_map_sorted_in_range",
        sorted_ok and in_range,
        f"{n_map} entries over {fmt.n_block_rows} block rows",
    )

    stops = fmt.stops()
    pad_open = bool(not stops[nb:].any())
    report.add(
        "padding_keeps_segment_open",
        pad_open,
        "padding bits past the valid blocks must be continue flags",
    )

    cols = fmt.columns()[:nb]
    cols_ok = bool(cols.size == 0 or (cols.min() >= 0 and cols.max() < fmt.n_block_cols))
    report.add(
        "columns_in_range",
        cols_ok,
        f"block columns must lie in [0, {fmt.n_block_cols})",
    )

    if fmt.col_storage == "delta" and fmt.delta is not None:
        from ..formats.delta import decompress_columns

        round_trip = decompress_columns(fmt.delta)
        report.add(
            "delta_roundtrip",
            bool(np.array_equal(round_trip, fmt.delta.fallback)),
            "delta decompression must reproduce the uncompressed indices",
        )

    report.add(
        "values_finite",
        bool(np.isfinite(fmt.values).all()),
        "stored block values contain NaN/Inf",
    )
    report.add(
        "array_lengths",
        fmt.col_block.shape[0] == fmt.nblocks_padded
        and fmt.values.shape[0] == fmt.nblocks_padded,
        f"col/value arrays must cover {fmt.nblocks_padded} padded blocks",
    )


def _validate_bccoo_plus(fmt, report: ValidationReport) -> None:
    _validate_bccoo(fmt.stacked, report)
    report.add(
        "slice_cover",
        fmt.slice_count * fmt.slice_width >= fmt.ncols,
        f"{fmt.slice_count} slices of width {fmt.slice_width} must cover "
        f"{fmt.ncols} columns",
    )
    report.add(
        "stacked_rows_consistent",
        fmt.stacked.nrows == fmt.slice_count * fmt.padded_rows_per_slice,
        f"stacked matrix has {fmt.stacked.nrows} rows, expected "
        f"{fmt.slice_count} * {fmt.padded_rows_per_slice}",
    )
    nb = fmt.stacked.nblocks
    cols = fmt.stacked.columns()[:nb]
    from ..util import round_up

    n_block_cols = round_up(fmt.ncols, fmt.block_width) // fmt.block_width
    report.add(
        "slice_columns_original",
        bool(cols.size == 0 or (cols.min() >= 0 and cols.max() < n_block_cols)),
        "stacked column indices must address the original matrix",
    )


def _validate_merge_csr(fmt, report: ValidationReport) -> None:
    ptr = fmt.row_ptr
    monotone = bool(ptr[0] == 0 and ptr[-1] == fmt.nnz and np.all(np.diff(ptr) >= 0))
    report.add(
        "row_ptr_monotone",
        monotone,
        f"row_ptr must ascend from 0 to nnz={fmt.nnz}",
    )

    cols = fmt.col_index
    cols_ok = bool(
        cols.size == 0 or (cols.min() >= 0 and cols.max() < fmt.ncols)
    )
    report.add(
        "columns_in_range", cols_ok, f"columns must lie in [0, {fmt.ncols})"
    )

    if monotone:
        # The load-balancing-search output must agree with the row
        # pointers: team t's coordinate is the row containing non-zero
        # t * team_nnz.  A mutated team_rows (or row_ptr) breaks this.
        starts = fmt.team_starts()
        expect = np.searchsorted(ptr, starts, side="right") - 1
        report.add(
            "team_coordinates",
            bool(np.array_equal(fmt.team_rows, expect)),
            "team_rows must equal the load-balancing search over row_ptr",
        )
        # row_stops() indexes by row_ptr values, so it is only safe to
        # derive once the pointers themselves checked out.
        report.add(
            "row_stop_count",
            int(fmt.row_stops().sum()) == fmt.row_map().shape[0],
            "end-of-row markers must match the non-empty-row map",
        )
    report.add(
        "values_finite",
        bool(np.isfinite(fmt.values).all()),
        "stored values contain NaN/Inf",
    )


def _validate_rgcsr(fmt, report: ValidationReport) -> None:
    row_off = fmt.group_row_offsets
    data_off = fmt.group_data_offsets
    row_ok = bool(
        row_off[0] == 0
        and row_off[-1] == fmt.n_packed_rows
        and np.all(np.diff(row_off) >= 0)
    )
    report.add(
        "group_row_offsets",
        row_ok,
        f"group row offsets must ascend from 0 to {fmt.n_packed_rows}",
    )
    extents_ok = bool(
        data_off[0] == 0
        and data_off[-1] == fmt.padded_slots
        and np.array_equal(
            np.diff(data_off), np.diff(row_off) * fmt.group_widths
        )
    )
    report.add(
        "group_data_extents",
        extents_ok,
        "per-group lane extents must equal rows x adaptive width",
    )

    perm = fmt.row_perm
    perm_ok = bool(
        perm.size == np.unique(perm).size
        and (perm.size == 0 or (perm.min() >= 0 and perm.max() < fmt.nrows))
    )
    report.add(
        "row_perm_bijective",
        perm_ok,
        f"row permutation must be unique rows in [0, {fmt.nrows})",
    )

    if not (row_ok and extents_ok):
        # The remaining checks slice by the offsets; deriving them from
        # corrupted offsets would raise instead of reporting.
        report.add(
            "values_finite",
            bool(np.isfinite(fmt.values).all()),
            "stored values contain NaN/Inf",
        )
        return

    lens_ok = True
    for g in range(fmt.n_groups):
        seg = fmt.row_lengths[row_off[g] : row_off[g + 1]]
        if seg.size and (seg.min() < 1 or seg.max() > fmt.group_widths[g]):
            lens_ok = False
            break
    report.add(
        "lengths_within_group_width",
        lens_ok,
        "every row length must lie in [1, group width]",
    )

    mask = fmt.lane_mask()
    cols = fmt.col_index[mask]
    report.add(
        "columns_in_range",
        bool(cols.size == 0 or (cols.min() >= 0 and cols.max() < fmt.ncols)),
        f"valid-lane columns must lie in [0, {fmt.ncols})",
    )
    report.add(
        "padding_lanes_zero",
        bool(not fmt.values[~mask].any()),
        "padding lanes must hold zero values",
    )
    report.add(
        "values_finite",
        bool(np.isfinite(fmt.values).all()),
        "stored values contain NaN/Inf",
    )


def validate_format(fmt) -> ValidationReport:
    """Run every applicable invariant check against a format instance."""
    # Imported here: repro.formats imports this module lazily and vice
    # versa; function-level imports break the cycle.
    from ..formats.bccoo import BCCOOMatrix
    from ..formats.bccoo_plus import BCCOOPlusMatrix
    from ..formats.merge_csr import MergeCSRMatrix
    from ..formats.rgcsr import RGCSRMatrix

    report = ValidationReport(subject=f"{type(fmt).__name__}")
    if isinstance(fmt, BCCOOPlusMatrix):
        _validate_bccoo_plus(fmt, report)
    elif isinstance(fmt, BCCOOMatrix):
        _validate_bccoo(fmt, report)
    elif isinstance(fmt, MergeCSRMatrix):
        _validate_merge_csr(fmt, report)
    elif isinstance(fmt, RGCSRMatrix):
        _validate_rgcsr(fmt, report)
    else:
        shape = getattr(fmt, "shape", None)
        report.add(
            "has_shape",
            isinstance(shape, tuple) and len(shape) == 2,
            f"unsupported format {type(fmt).__name__}: only shape checked",
        )
    return report


# ---------------------------------------------------------------------- #
# Output verification
# ---------------------------------------------------------------------- #


#: Row-level tolerances of :func:`verify_output` (``np.isclose``).
RTOL = 1e-9
ATOL = 1e-12
#: Seeds the row sample, so a check of one product always reads the
#: same rows.
SAMPLE_SEED = 0


def verify_output(
    csr,
    x: np.ndarray,
    y: np.ndarray,
    n_samples: int | None = 64,
) -> ValidationReport:
    """Check ``y`` against ``csr @ x`` on sampled rows, plus finiteness.

    ``n_samples=None`` compares every row (the CLI's ``repro verify``
    and the tuner's winner check do this); the engine's per-multiply
    check samples.  Rows match within :data:`RTOL`/:data:`ATOL`, and
    the sample is deterministic (:data:`SAMPLE_SEED`).

    A 2-D ``x`` of shape ``(ncols, k)`` verifies a multi-RHS product
    ``Y = A @ X`` with the same checks (shape, finiteness, global
    checksum, sampled rows across all ``k`` columns).
    """
    x = np.asarray(x)
    if x.ndim == 2:
        return _verify_output_multi(csr, x, y, n_samples)
    y = np.asarray(y)
    report = ValidationReport(subject="kernel output")
    report.add(
        "output_length",
        y.shape[0] == csr.shape[0],
        f"y has {y.shape[0]} entries, matrix has {csr.shape[0]} rows",
    )
    if not report.ok:
        return report

    finite = bool(np.isfinite(y).all())
    report.add("output_finite", finite, "y contains NaN/Inf")

    # Global checksum: sum(y) must equal (colsums . x).  O(nnz) without
    # forming the full product, and it catches corruption localized to
    # rows the sample below happens to miss (e.g. a wrong cross-
    # workgroup carry touches only the rows at workgroup boundaries).
    if finite:
        colsums = np.asarray(abs(csr).sum(axis=0)).ravel()
        scale = float(colsums @ np.abs(x))
        expect = float(np.asarray(csr.sum(axis=0)).ravel() @ x)
        got_sum = float(y.sum())
        # Summation-order slack: nnz partial sums can each lose ~eps of
        # the magnitude scale, so widen the row-level rtol accordingly.
        tol = ATOL + max(RTOL, 64 * np.finfo(np.float64).eps) * max(scale, 1.0)
        report.add(
            "checksum",
            abs(got_sum - expect) <= tol,
            f"sum(y)={got_sum!r} vs reference {expect!r} (tol {tol:.3g})",
        )

    nrows = csr.shape[0]
    if n_samples is None or n_samples >= nrows:
        rows = np.arange(nrows)
    else:
        rows = np.random.default_rng(SAMPLE_SEED).choice(
            nrows, size=n_samples, replace=False
        )
        rows.sort()
    ref = csr[rows] @ x
    got = y[rows]
    with np.errstate(invalid="ignore"):
        close = np.isclose(got, ref, rtol=RTOL, atol=ATOL)
    n_bad = int((~close).sum())
    if n_bad:
        worst = int(np.argmax(np.where(close, 0.0, np.abs(got - ref))))
        detail = (
            f"{n_bad}/{rows.shape[0]} sampled rows off; worst row "
            f"{int(rows[worst])}: got {got[worst]!r}, want {ref[worst]!r}"
        )
    else:
        detail = f"{rows.shape[0]} rows sampled"
    report.add("sampled_reference", n_bad == 0, detail)
    return report


def _verify_output_multi(
    csr,
    X: np.ndarray,
    Y: np.ndarray,
    n_samples: int | None,
) -> ValidationReport:
    """Multi-RHS variant of :func:`verify_output` (``Y = A @ X``)."""
    Y = np.asarray(Y)
    k = X.shape[1]
    report = ValidationReport(subject="kernel output")
    report.add(
        "output_shape",
        Y.ndim == 2 and Y.shape == (csr.shape[0], k),
        f"Y has shape {Y.shape}, expected ({csr.shape[0]}, {k})",
    )
    if not report.ok:
        return report

    finite = bool(np.isfinite(Y).all())
    report.add("output_finite", finite, "Y contains NaN/Inf")

    if finite:
        colsums = np.asarray(abs(csr).sum(axis=0)).ravel()
        scale = float(colsums @ np.abs(X).sum(axis=1))
        expect = float((np.asarray(csr.sum(axis=0)).ravel() @ X).sum())
        got_sum = float(Y.sum())
        tol = ATOL + max(RTOL, 64 * np.finfo(np.float64).eps) * max(scale, 1.0)
        report.add(
            "checksum",
            abs(got_sum - expect) <= tol,
            f"sum(Y)={got_sum!r} vs reference {expect!r} (tol {tol:.3g})",
        )

    nrows = csr.shape[0]
    if n_samples is None or n_samples >= nrows:
        rows = np.arange(nrows)
    else:
        rows = np.random.default_rng(SAMPLE_SEED).choice(
            nrows, size=n_samples, replace=False
        )
        rows.sort()
    ref = csr[rows] @ X
    got = Y[rows]
    with np.errstate(invalid="ignore"):
        close = np.isclose(got, ref, rtol=RTOL, atol=ATOL)
    n_bad = int((~close).sum())
    if n_bad:
        flat = int(np.argmax(np.where(close, 0.0, np.abs(got - ref))))
        i, j = np.unravel_index(flat, got.shape)
        detail = (
            f"{n_bad}/{close.size} sampled entries off; worst row "
            f"{int(rows[i])} col {int(j)}: got {got[i, j]!r}, want {ref[i, j]!r}"
        )
    else:
        detail = f"{rows.shape[0]} rows x {k} columns sampled"
    report.add("sampled_reference", n_bad == 0, detail)
    return report
