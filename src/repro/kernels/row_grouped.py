"""Adaptive row-grouped CSR kernel: one thread per row, grouped lanes.

Executes :class:`~repro.formats.rgcsr.RGCSRMatrix`.  A single launch
walks the group descriptor table; within a group, thread ``r`` folds its
row one lane at a time while the group's lane arrays stream fully
coalesced.  Each row accumulates independently in element order, so the
result is the strict sequential per-row CSR fold -- bit-identical to the
reference and to BCCOO on the same operand.

The cost model is ELL-like per group: the lane streams are charged at
their *padded* extent (the format's honest weakness), column indices
drop to short width when the matrix is narrow enough, and the padded
slots that carry no work surface as SIMD-efficiency loss.  Rows never
split and groups never interact, so there are no barriers, atomics or
adjacent-synchronization chains -- but per-group work is uneven, which
feeds the scheduler's imbalance factor through ``workgroup_work``.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelConfigError, ValidationError
from ..fault.injection import active_plan
from ..formats.rgcsr import RGCSRMatrix
from ..gpu.caches import vector_read_traffic
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..gpu.memory import stream_bytes
from ..util import ceil_div
from .base import KernelResult, SpMVKernel, register_kernel
from .config import YaSpMVConfig

__all__ = ["RowGroupPlan", "RowGroupedKernel", "row_grouped_stats"]

_IDX_B = 4
_SHORT_B = 2
#: Columns fit unsigned 16-bit indices below this width (the same cutoff
#: BCCOO uses for its short column stream).
_SHORT_COL_LIMIT = 1 << 16
#: Lane-step divergence inside a group: rows differ by at most 2x in
#: length, so predication idles under 2% of lanes beyond padding.
_LANE_EFF = 0.98


def _col_bytes(fmt: RGCSRMatrix) -> int:
    return _SHORT_B if fmt.ncols < _SHORT_COL_LIMIT else _IDX_B


def gather_order(fmt: RGCSRMatrix) -> np.ndarray:
    """Column indices in the order the launch gathers ``x`` (valid lanes,
    flat lane-major order) -- the stream the texture model sees."""
    return fmt.col_index[fmt.lane_mask()]


def row_grouped_stats(
    fmt: RGCSRMatrix, device: DeviceSpec, cfg: YaSpMVConfig
) -> KernelStats:
    """Cost profile of one row-grouped launch (pure in its arguments).

    Shared by the faithful interpreter and the fast backend so both
    report field-identical :class:`KernelStats`.
    """
    padded = fmt.padded_slots
    txn = device.transaction_bytes
    val_b = cfg.value_bytes
    wg = cfg.workgroup_size

    read = stream_bytes(padded, val_b, txn)
    read += stream_bytes(padded, _col_bytes(fmt), txn)
    read += stream_bytes(fmt.n_packed_rows, _IDX_B, txn)  # row_perm
    read += stream_bytes(fmt.n_packed_rows, _IDX_B, txn)  # row_lengths
    read += stream_bytes(3 * fmt.n_groups + 2, _IDX_B, txn)  # descriptors

    vec_dram, vec_cached = vector_read_traffic(
        gather_order(fmt),
        val_b,
        cache_bytes=device.tex_cache_bytes,
        line_bytes=device.tex_line_bytes,
        use_cache=cfg.use_texture,
    )
    read += vec_dram

    write = stream_bytes(fmt.n_packed_rows, val_b, txn)

    nnz = fmt.nnz
    fill = nnz / padded if padded else 1.0
    simd = _LANE_EFF * fill

    # One workgroup covers ``wg`` rows of a group; its work is the
    # group's padded width times its rows -- uneven across groups, which
    # is exactly where this format loses to the merge path.
    work = []
    for g in range(fmt.n_groups):
        r0 = int(fmt.group_row_offsets[g])
        r1 = int(fmt.group_row_offsets[g + 1])
        w = int(fmt.group_widths[g])
        n = r1 - r0
        for chunk in range(ceil_div(n, wg)):
            rows_here = min(wg, n - chunk * wg)
            work.append(rows_here * w)
    workgroup_work = np.asarray(work if work else [1], dtype=np.float64)

    return KernelStats(
        flops=2.0 * nnz,
        dram_read_bytes=float(read),
        dram_write_bytes=float(write),
        cached_read_bytes=float(vec_cached),
        simd_efficiency=max(simd, 1e-6),
        workgroup_size=wg,
        n_workgroups=int(workgroup_work.shape[0]),
        shared_mem_per_workgroup=0,  # thread-private accumulators only
        registers_per_thread=16,
        workgroup_work=workgroup_work,
        barriers_per_workgroup=0.0,  # rows never split, groups never interact
        n_launches=1,  # adaptive variant: one launch over the descriptor table
    )


class RowGroupPlan:
    """The x-independent state of one row-grouped launch.

    The lane validity mask and column stream, decoded under the fault
    hooks (a fault plan perturbs this launch's decoded copies exactly
    like corrupted device buffers would), plus the cost profile.
    """

    __slots__ = ("cfg", "cols", "mask")

    def __init__(self, fmt: RGCSRMatrix, cfg: YaSpMVConfig):
        mask = fmt.lane_mask()
        cols = fmt.col_index
        fault = active_plan()
        if fault is not None:
            mask = fault.perturb_stops(mask, n_valid=fmt.padded_slots)
            cols = fault.perturb_columns(cols, n_valid=fmt.padded_slots)
        n_valid = int(mask.sum())
        if n_valid != fmt.nnz:
            raise ValidationError(
                f"lane validity mask encodes {n_valid} non-zeros but the "
                f"row lengths hold {fmt.nnz}",
                check="lane_mask_count",
            )
        self.cfg = cfg
        self.cols = cols
        self.mask = mask

    def stats(self, fmt: RGCSRMatrix, device: DeviceSpec) -> KernelStats:
        return row_grouped_stats(fmt, device, self.cfg)


def _lane_sums(plan: RowGroupPlan, fmt: RGCSRMatrix, x: np.ndarray) -> np.ndarray:
    """``faithful``'s summation core: the thread-per-row lane loop.

    Each row accumulates its elements lane by lane, in order and
    independent of every other row -- the strict sequential per-row
    fold.
    """
    mask = plan.mask
    prods = np.where(mask, fmt.values * x[plan.cols], 0.0)
    fault = active_plan()
    if fault is not None:
        prods = fault.perturb_partials(prods)
    y = np.zeros(fmt.nrows, dtype=np.float64)
    for g in range(fmt.n_groups):
        r0 = int(fmt.group_row_offsets[g])
        r1 = int(fmt.group_row_offsets[g + 1])
        n, w = r1 - r0, int(fmt.group_widths[g])
        base = int(fmt.group_data_offsets[g])
        acc = np.zeros(n, dtype=np.float64)
        for j in range(w):
            lane = slice(base + j * n, base + (j + 1) * n)
            valid = mask[lane]
            acc[valid] += prods[lane][valid]
        y[fmt.row_perm[r0:r1]] = acc
    return y


@register_kernel
class RowGroupedKernel(SpMVKernel):
    """Adaptive row-grouped CSR SpMV: thread-per-row over pow-2 buckets."""

    name = "rgcsr"
    format_name = "rgcsr"
    config_cls = YaSpMVConfig
    plan_cls = RowGroupPlan

    def _execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        cfg: YaSpMVConfig,
    ) -> KernelResult:
        x = np.asarray(x, dtype=np.float64).ravel()
        return self._launch(fmt, x, device, cfg, RowGroupPlan, _lane_sums)

    def run_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        *,
        config=None,
    ) -> KernelResult:
        """SpMM ``Y = A @ X``: one grouped pass per right-hand side."""
        cfg = self._coerce_config(config)
        X = self._check_block(X)
        return self._launch(fmt, X, device, cfg, RowGroupPlan, _lane_sums)

    def max_batch_width(self, fmt, device: DeviceSpec, config=None) -> int:
        """Columns one batched launch sustains; accumulators live in
        registers, so the bound is the per-thread register file."""
        fmt = self._expect(fmt, RGCSRMatrix)
        cfg = self._coerce_config(config)
        per_col_regs = max(cfg.value_bytes // 4, 1)
        return max(1, device.max_registers_per_thread // (2 * per_col_regs))

    def _launch(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        cfg: YaSpMVConfig,
        plan_for,
        sums,
    ) -> KernelResult:
        """One row-grouped launch (a 2-D ``x`` runs one per column).

        ``plan_for(fmt, cfg)`` returns the :class:`RowGroupPlan` and
        ``sums(plan, fmt, x)`` the result vector; ``sums=None`` and
        ``x=None`` make the launch profile-only (``y`` is ``None``).
        """
        fmt = self._expect(fmt, RGCSRMatrix)
        self._check_workgroup(cfg.workgroup_size, device)
        if x is not None and x.ndim == 2:
            return self._launch_columns(fmt, x, device, cfg, plan_for, sums)
        if x is not None and x.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"vector length {x.shape[0]} != matrix columns {fmt.ncols}"
            )
        plan = plan_for(fmt, cfg)
        y = None if sums is None else sums(plan, fmt, x)
        return KernelResult(y=y, stats=plan.stats(fmt, device))
