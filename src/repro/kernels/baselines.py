"""Baseline SpMV kernels: the comparators of Figures 13-15.

Reimplementations (numerics + cost profiles) of the schemes the paper
measures against, all on the same simulated device so the comparison is
apples-to-apples:

* ``csr_scalar`` / ``csr_vector`` -- CUSPARSE's CSR kernels: one thread,
  resp. one warp, per row.  These carry the two pathologies the paper
  attacks: non-coalesced gathers and row-length load imbalance.
* ``ell`` / ``dia`` -- regular formats: perfectly balanced and coalesced
  but paying for padding.
* ``hyb`` -- CUSPARSE's flagship: ELL head + COO tail, two launches.
* ``bcsr`` -- blocked CSR (CUSPARSE's blocked path, block size searched
  by the tuning harness).
* ``coo_segmented`` -- CUSP's COO kernel: segmented reduction with a
  lockstep tree scan and a second combine kernel.  Balanced, but pays
  12 bytes/non-zero, log-factor scan work and an extra launch.

The clSpMV "best single" and "COCKTAIL" comparators are selections over
these kernels; they live in :mod:`repro.core.baselines`.
"""

from __future__ import annotations

import math

import numpy as np

from ..formats.bcsr import BCSRMatrix
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.dia import DIAMatrix
from ..formats.ell import ELLMatrix
from ..formats.hyb import HYBMatrix
from ..gpu.caches import vector_read_traffic
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..gpu.memory import stream_bytes
from ..util import ceil_div
from .base import KernelResult, SpMVKernel, register_kernel

__all__ = [
    "CSRScalarKernel",
    "CSRVectorKernel",
    "ELLKernel",
    "DIAKernel",
    "HYBKernel",
    "BCSRKernel",
    "COOSegmentedKernel",
    "SELLKernel",
    "BELLKernel",
]

_VAL_B = 4
_IDX_B = 4
_SECTOR_B = 32
_SHM_OP_WEIGHT = 2.0


def _vector_traffic(indices, device: DeviceSpec, use_cache: bool = True):
    return vector_read_traffic(
        indices,
        _VAL_B,
        cache_bytes=device.tex_cache_bytes,
        line_bytes=device.tex_line_bytes,
        use_cache=use_cache,
    )


def _row_warp_views(lengths: np.ndarray, warp: int) -> np.ndarray:
    """Row lengths padded and reshaped to ``(n_warps, warp)``."""
    n = lengths.shape[0]
    pad = (-n) % warp
    if pad:
        lengths = np.concatenate([lengths, np.zeros(pad, dtype=lengths.dtype)])
    return lengths.reshape(-1, warp)


@register_kernel
class CSRScalarKernel(SpMVKernel):
    """One thread per row over CSR (scalar kernel).

    A warp serializes to its longest row (control divergence) and each
    lane walks its own row, so value/column reads splinter into 32-byte
    sectors once rows exceed ~8 elements.
    """

    name = "csr_scalar"
    format_name = "csr"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, CSRMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        lengths = fmt.row_lengths().astype(np.int64)
        warp = device.warp_size
        warps = _row_warp_views(lengths, warp)
        warp_max = warps.max(axis=1)
        scheduled = float(warp_max.sum() * warp)
        useful = float(lengths.sum())
        simd_eff = useful / scheduled if scheduled else 1.0

        # Per-warp sector waste: lanes stride by ~their row length, so
        # adjacent lanes share sectors only for short rows.  A device
        # whose L1 caches global loads (Fermi) recovers the unused
        # sector halves on the next step's re-touch.
        sector_elems = _SECTOR_B // _VAL_B
        mean_len = warps.mean(axis=1)
        waste = np.clip(mean_len, 1.0, sector_elems)
        if device.l1_global_bytes > 0:
            waste = 1.0 + (waste - 1.0) * 0.4
        elem_bytes = float((warps.sum(axis=1) * waste).sum()) * _VAL_B

        read = stream_bytes(fmt.nrows + 1, _IDX_B, device.transaction_bytes)
        read += 2.0 * elem_bytes  # values + column indices
        vec_dram, vec_cached = _vector_traffic(fmt.col_index, device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, device.transaction_bytes)

        rows_per_wg = workgroup_size
        n_wg = max(ceil_div(fmt.nrows, rows_per_wg), 1)
        # Workgroup weight: sum of its warps' serialized lane-steps.
        warps_per_wg = rows_per_wg // warp
        pad_w = (-warp_max.shape[0]) % warps_per_wg
        wm = np.concatenate([warp_max, np.zeros(pad_w, dtype=np.int64)])
        wg_work = wm.reshape(-1, warps_per_wg).sum(axis=1).astype(np.float64)

        stats = KernelStats(
            flops=2.0 * fmt.nnz,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=max(simd_eff, 1e-3),
            workgroup_size=workgroup_size,
            n_workgroups=n_wg,
            workgroup_work=wg_work,
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class CSRVectorKernel(SpMVKernel):
    """One warp per row over CSR (vector kernel).

    Coalesced within a row; rows shorter than a warp idle lanes, long
    rows still skew workgroup runtimes.
    """

    name = "csr_vector"
    format_name = "csr"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, CSRMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        warp = device.warp_size
        lengths = fmt.row_lengths().astype(np.int64)
        rounds = np.maximum(np.ceil(lengths / warp), lengths > 0).astype(np.int64)
        scheduled = float(rounds.sum() * warp)
        useful = float(lengths.sum())
        simd_eff = useful / scheduled if scheduled else 1.0

        # Row-contiguous reads: whole transactions per row.
        txn = device.transaction_bytes
        per_row_bytes = np.ceil(lengths * _VAL_B / txn) * txn
        read = float(per_row_bytes.sum()) * 2  # values + columns
        read += stream_bytes(fmt.nrows + 1, _IDX_B, txn)
        vec_dram, vec_cached = _vector_traffic(fmt.col_index, device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        rows_per_wg = workgroup_size // warp
        n_wg = max(ceil_div(fmt.nrows, max(rows_per_wg, 1)), 1)
        pad = (-lengths.shape[0]) % max(rows_per_wg, 1)
        lr = np.concatenate([rounds, np.zeros(pad, dtype=np.int64)])
        wg_work = lr.reshape(-1, rows_per_wg).sum(axis=1).astype(np.float64)

        stats = KernelStats(
            flops=2.0 * fmt.nnz + 5.0 * fmt.nrows,  # + warp reduction
            dram_read_bytes=read,
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=max(simd_eff, 1e-3),
            workgroup_size=workgroup_size,
            n_workgroups=n_wg,
            workgroup_work=wg_work,
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class ELLKernel(SpMVKernel):
    """One thread per row over column-major ELL.

    Perfectly coalesced and balanced in *memory* terms -- every padded
    slot is read -- so the price of skew is paid in bandwidth, not
    divergence.
    """

    name = "ell"
    format_name = "ell"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, ELLMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        txn = device.transaction_bytes
        slots = fmt.stored_slots
        read = stream_bytes(slots, _VAL_B, txn) + stream_bytes(slots, _IDX_B, txn)
        mask = fmt.col_index >= 0
        vec_dram, vec_cached = _vector_traffic(fmt.col_index.T[mask.T], device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        stats = KernelStats(
            flops=2.0 * slots,  # padded slots do real FMAs
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=1.0,
            workgroup_size=workgroup_size,
            n_workgroups=max(ceil_div(fmt.nrows, workgroup_size), 1),
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class DIAKernel(SpMVKernel):
    """One thread per row over DIA: fully regular streams."""

    name = "dia"
    format_name = "dia"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, DIAMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        txn = device.transaction_bytes
        band_slots = fmt.ndiags * fmt.nrows
        read = stream_bytes(band_slots, _VAL_B, txn)
        read += stream_bytes(fmt.ndiags, _IDX_B, txn)
        # x is streamed once per diagonal but shifted reads hit cache for
        # adjacent diagonals; charge one full stream plus sector-grain
        # misses for the rest.
        read += stream_bytes(fmt.nrows, _VAL_B, txn)
        cached = max(band_slots - fmt.nrows, 0) * _VAL_B
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        stats = KernelStats(
            flops=2.0 * band_slots,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(cached),
            simd_efficiency=1.0,
            workgroup_size=workgroup_size,
            n_workgroups=max(ceil_div(fmt.nrows, workgroup_size), 1),
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class HYBKernel(SpMVKernel):
    """CUSPARSE HYB: ELL kernel + COO kernel, two launches."""

    name = "hyb"
    format_name = "hyb"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        fmt = self._expect(fmt, HYBMatrix)
        ell_res = ELLKernel().run(fmt.ell, x, device, config=config)
        coo_res = COOSegmentedKernel().run(fmt.coo, x, device, config=config)
        y = ell_res.y + coo_res.y
        stats = ell_res.stats.sequential(coo_res.stats)
        return KernelResult(y=y, stats=stats)


@register_kernel
class BCSRKernel(SpMVKernel):
    """One thread per block row over BCSR."""

    name = "bcsr"
    format_name = "bcsr"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, BCSRMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        h, w = fmt.block_height, fmt.block_width
        lengths = np.diff(fmt.block_row_ptr).astype(np.int64)
        warp = device.warp_size
        warps = _row_warp_views(lengths, warp)
        warp_max = warps.max(axis=1)
        scheduled = float(warp_max.sum() * warp)
        useful = float(lengths.sum())
        simd_eff = useful / scheduled if scheduled else 1.0

        txn = device.transaction_bytes
        block_bytes = h * w * _VAL_B
        # Each block is a contiguous chunk; isolated chunks round to
        # sectors, unless an L1 for globals (Fermi) merges the slack.
        per_block = ceil_div(block_bytes, _SECTOR_B) * _SECTOR_B
        if device.l1_global_bytes > 0:
            per_block = block_bytes + (per_block - block_bytes) * 0.4
        read = fmt.nblocks * per_block
        read += fmt.nblocks * _IDX_B  # block columns (sector-merged approx)
        read += stream_bytes(fmt.n_block_rows + 1, _IDX_B, txn)
        gather = (
            fmt.block_col.astype(np.int64)[:, None] * w
            + np.arange(w, dtype=np.int64)[None, :]
        ).ravel()
        gather = np.minimum(gather, fmt.ncols - 1)
        vec_dram, vec_cached = _vector_traffic(gather, device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        rows_per_wg = workgroup_size
        n_wg = max(ceil_div(fmt.n_block_rows, rows_per_wg), 1)
        warps_per_wg = rows_per_wg // warp
        pad_w = (-warp_max.shape[0]) % warps_per_wg
        wm = np.concatenate([warp_max, np.zeros(pad_w, dtype=np.int64)])
        wg_work = (
            wm.reshape(-1, warps_per_wg).sum(axis=1).astype(np.float64) * h * w
        )

        stats = KernelStats(
            flops=2.0 * fmt.nblocks * h * w,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=max(simd_eff, 1e-3),
            workgroup_size=workgroup_size,
            n_workgroups=n_wg,
            workgroup_work=wg_work,
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class COOSegmentedKernel(SpMVKernel):
    """CUSP-style COO SpMV: tree-scan segmented reduction, two kernels.

    Load-balanced by construction (non-zeros split evenly), but pays COO's
    12 bytes per non-zero, a log-factor of shared-memory scan work per
    element, and a second launch to stitch workgroup carries.
    """

    name = "coo_segmented"
    format_name = "coo"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        fmt = self._expect(fmt, COOMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        txn = device.transaction_bytes
        nnz = fmt.nnz
        read = stream_bytes(nnz, _IDX_B, txn) * 2  # rows + cols
        read += stream_bytes(nnz, _VAL_B, txn)
        vec_dram, vec_cached = _vector_traffic(fmt.col, device)
        read += vec_dram

        n_wg = max(ceil_div(nnz, workgroup_size), 1)
        write = stream_bytes(fmt.nrows, _VAL_B, txn)
        # Workgroup carries round-trip through global memory for the
        # second (combine) kernel.
        carry_bytes = n_wg * _VAL_B
        write += 2 * carry_bytes
        read += 2 * carry_bytes

        log_wg = max(int(math.ceil(math.log2(max(workgroup_size, 2)))), 1)
        flops = 2.0 * nnz + nnz * log_wg * _SHM_OP_WEIGHT

        stats = KernelStats(
            flops=flops,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=0.80,  # lockstep tree-scan idling
            workgroup_size=workgroup_size,
            n_workgroups=n_wg,
            workgroup_work=None,  # even non-zero split
            barriers_per_workgroup=float(log_wg),
            n_launches=2,
            extra_latency_s=device.dram_latency_s,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class SELLKernel(SpMVKernel):
    """One thread per row within per-slice ELL (sliced ELLPACK).

    Coalesced like ELL but padded only to each slice's own width; the
    price is inter-slice load imbalance, carried in the per-workgroup
    work weights.
    """

    name = "sell"
    format_name = "sell"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        from ..formats.sell import SELLMatrix

        fmt = self._expect(fmt, SELLMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        txn = device.transaction_bytes
        slots = fmt.stored_slots
        read = stream_bytes(slots, _VAL_B, txn) + stream_bytes(slots, _IDX_B, txn)
        read += stream_bytes(fmt.n_slices + 1, _IDX_B, txn)
        mask = fmt.col_index >= 0
        vec_dram, vec_cached = _vector_traffic(fmt.col_index[mask], device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        # One workgroup covers workgroup_size rows; its work is the sum
        # of the slice widths its rows fall in.
        widths = fmt.slice_width.astype(np.float64)
        per_row = np.repeat(widths, fmt.slice_height)[: fmt.nrows]
        pad = (-fmt.nrows) % workgroup_size
        pr = np.concatenate([per_row, np.zeros(pad)])
        wg_work = pr.reshape(-1, workgroup_size).sum(axis=1)

        stats = KernelStats(
            flops=2.0 * slots,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=1.0,
            workgroup_size=workgroup_size,
            n_workgroups=max(wg_work.shape[0], 1),
            workgroup_work=wg_work,
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)


@register_kernel
class BELLKernel(SpMVKernel):
    """One thread per block row over blocked ELL."""

    name = "bell"
    format_name = "bell"

    def _execute(self, fmt, x, device, config) -> KernelResult:
        workgroup_size = config.workgroup_size
        from ..formats.bell import BELLMatrix

        fmt = self._expect(fmt, BELLMatrix)
        self._check_workgroup(workgroup_size, device)
        y = fmt.multiply(x)

        h, w = fmt.block_height, fmt.block_width
        txn = device.transaction_bytes
        nslots = fmt.K * fmt.n_block_rows
        read = stream_bytes(nslots * h * w, _VAL_B, txn)
        read += stream_bytes(nslots, _IDX_B, txn)
        mask = fmt.block_col >= 0
        bcols = fmt.block_col[mask].astype(np.int64)
        gather = (bcols[:, None] * w + np.arange(w, dtype=np.int64)[None, :]).ravel()
        gather = np.minimum(gather, fmt.ncols - 1)
        vec_dram, vec_cached = _vector_traffic(gather, device)
        read += vec_dram
        write = stream_bytes(fmt.nrows, _VAL_B, txn)

        stats = KernelStats(
            flops=2.0 * nslots * h * w,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=1.0,
            workgroup_size=workgroup_size,
            n_workgroups=max(ceil_div(fmt.n_block_rows, workgroup_size), 1),
            n_launches=1,
        )
        return KernelResult(y=y, stats=stats)

