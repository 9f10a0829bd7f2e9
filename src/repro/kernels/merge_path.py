"""Merge-path CSR kernel: equal-work teams with carry continuation.

Executes :class:`~repro.formats.merge_csr.MergeCSRMatrix`.  Every team
consumes exactly ``team_nnz`` non-zeros of the CSR stream; a row split
across teams is finished by *carry continuation* -- the successor team
folds its elements onto the predecessor's open partial, so the per-row
accumulation order is the strict sequential CSR fold and the result is
bit-identical to the CSR reference (and to BCCOO on the same operand).

The cost model charges the format's streams (values, full-width column
indices, row pointers, the per-team load-balancing coordinates), the
multiplied vector through the texture path, a per-team carry exchange,
and two block-wide barriers around the warp-synchronous team
reduction.  Work per team is constant by
construction, so ``workgroup_work`` is ``None`` -- load balance is the
design's point; the trade is the raw (uncompressed) index streams that
BCCOO's bit flags and short columns undercut.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..fault.injection import active_plan
from ..formats.merge_csr import MergeCSRMatrix
from ..gpu.caches import vector_read_traffic
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..gpu.memory import stream_bytes
from ..util import ceil_div
from .base import RowKernel, StreamProfile, register_kernel
from .config import YaSpMVConfig

__all__ = ["MergePathKernel", "MergePlan", "merge_path_stats"]

_VAL_B = 4
_IDX_B = 4
#: SIMD efficiency of the team-sequential fold: equal-work chunks leave
#: only the predicated row-boundary check divergent (same discipline as
#: yaSpMV's sequential segmented sum).
_SIMD_EFF = 0.95


def decode_rows(fmt: MergeCSRMatrix, stops: np.ndarray) -> np.ndarray:
    """Per-element row indices from end-of-row markers + the row map.

    The decode mirrors BCCOO's bit-flag reconstruction: the row ordinal
    of element ``k`` is the number of stops before it, mapped through
    the non-empty-row map.  A marker count that disagrees with the map
    (one flipped bit) raises :class:`~repro.errors.ValidationError`.
    """
    row_map = fmt.row_map()
    st = stops.astype(np.int64)
    n_stops = int(st.sum())
    if n_stops != row_map.shape[0]:
        raise ValidationError(
            f"end-of-row markers encode {n_stops} rows but the row map "
            f"holds {row_map.shape[0]}",
            check="row_stop_count",
        )
    ordinals = np.cumsum(st) - st
    return row_map[ordinals] if ordinals.size else ordinals


def merge_path_stats(
    fmt: MergeCSRMatrix, device: DeviceSpec, cfg: YaSpMVConfig
) -> KernelStats:
    """Cost profile of one merge-path launch (pure in its arguments).

    Shared by the faithful interpreter and the fast backend so both
    report field-identical :class:`KernelStats`.
    """
    nnz = fmt.nnz
    txn = device.transaction_bytes
    val_b = cfg.value_bytes
    wg = cfg.workgroup_size

    read = stream_bytes(nnz, val_b, txn)
    read += stream_bytes(nnz, _IDX_B, txn)
    read += stream_bytes(fmt.nrows + 1, _IDX_B, txn)
    read += stream_bytes(fmt.n_teams, _IDX_B, txn)

    vec_dram, vec_cached = _column_traffic(fmt, val_b, device, cfg.use_texture)
    read += vec_dram

    n_rows_out = fmt.row_map().shape[0]
    write = stream_bytes(n_rows_out, val_b, txn)
    # Cross-team carries: each team publishes its open partial once and
    # reads (at most) one predecessor aggregate -- the decoupled-lookback
    # exchange, a bounded round trip instead of BCCOO's Grp_sum chain.
    carry_bytes = fmt.n_teams * val_b
    read += carry_bytes
    write += carry_bytes

    flops = 2.0 * nnz + float(fmt.n_teams)
    teams_per_wg = max(wg // fmt.threads_per_vector, 1)
    n_wg = max(ceil_div(fmt.n_teams, teams_per_wg), 1)

    return KernelStats(
        flops=flops,
        dram_read_bytes=float(read),
        dram_write_bytes=float(write),
        cached_read_bytes=float(vec_cached),
        simd_efficiency=_SIMD_EFF,
        workgroup_size=wg,
        n_workgroups=n_wg,
        shared_mem_per_workgroup=shared_mem(fmt, cfg),
        registers_per_thread=16,
        workgroup_work=None,  # equal-nnz teams: the design's point
        # Team reductions are warp-synchronous (each team lives inside
        # one warp), so only two block-wide barriers remain: one after
        # the cooperative merge-coordinate search, one before the
        # shared-memory carry fixup.
        barriers_per_workgroup=2.0,
        n_launches=1,
    )


def _column_traffic(
    fmt: MergeCSRMatrix, val_b: int, device: DeviceSpec, use_cache: bool
) -> tuple:
    """The cache-model traffic of ``fmt``'s column stream under one read
    model, computed once per format (:class:`~repro.kernels.base.StreamProfile`)."""
    traffic = StreamProfile.of(fmt).traffic
    key = (val_b, device.tex_cache_bytes, device.tex_line_bytes, use_cache)
    if key not in traffic:
        traffic[key] = vector_read_traffic(
            fmt.col_index,
            val_b,
            cache_bytes=device.tex_cache_bytes,
            line_bytes=device.tex_line_bytes,
            use_cache=use_cache,
        )
    return traffic[key]


def _decoded_rows(fmt: MergeCSRMatrix) -> np.ndarray:
    """``fmt``'s element rows, decoded and checked once per format."""
    profile = StreamProfile.of(fmt)
    if profile.decoded is None:
        rows = decode_rows(fmt, fmt.row_stops())
        rows.flags.writeable = False
        profile.decoded = rows
    return profile.decoded


def shared_mem(fmt: MergeCSRMatrix, cfg: YaSpMVConfig) -> int:
    """Per-workgroup shared memory: carry-scan buffer + team coordinates."""
    wg = cfg.workgroup_size
    teams_per_wg = max(wg // fmt.threads_per_vector, 1)
    return wg * cfg.value_bytes + teams_per_wg * 2 * _IDX_B


class MergePlan:
    """The x-independent state of one merge-path launch.

    The column stream and every element's row, decoded from the
    end-of-row markers, plus the cost profile.  With no fault plan
    active the rows are decoded once per format and shared, read-only;
    under one, each launch decodes its own copies under the fault hooks
    (a fault plan perturbs them exactly like corrupted device buffers
    would).
    """

    __slots__ = ("cfg", "cols", "rows")

    def __init__(self, fmt: MergeCSRMatrix, cfg: YaSpMVConfig):
        self.cfg = cfg
        fault = active_plan()
        if fault is None:
            self.cols = fmt.col_index
            self.rows = _decoded_rows(fmt)
            return
        stops = fault.perturb_stops(fmt.row_stops(), n_valid=fmt.nnz)
        self.cols = fault.perturb_columns(fmt.col_index, n_valid=fmt.nnz)
        self.rows = decode_rows(fmt, stops)

    def stats(self, fmt: MergeCSRMatrix, device: DeviceSpec) -> KernelStats:
        return merge_path_stats(fmt, device, self.cfg)


def _team_sums(plan: MergePlan, fmt: MergeCSRMatrix, x: np.ndarray) -> np.ndarray:
    """``faithful``'s summation core: the team loop.

    Teams run in order, accumulating straight into y: a split row's
    carry is already in place before its successor team's elements, so
    every row is the strict sequential fold.
    """
    prods = fmt.values * x[plan.cols]
    fault = active_plan()
    if fault is not None:
        prods = fault.perturb_partials(prods)
    y = np.zeros(fmt.nrows, dtype=np.float64)
    starts = fmt.team_starts()
    nnz = fmt.nnz
    for t in range(fmt.n_teams):
        s = int(starts[t])
        e = min(s + fmt.team_nnz, nnz)
        np.add.at(y, plan.rows[s:e], prods[s:e])
    return y


@register_kernel
class MergePathKernel(RowKernel):
    """Load-balanced CSR SpMV over equal-nnz merge-path teams."""

    name = "merge_csr"
    format_name = "merge_csr"
    format_cls = MergeCSRMatrix
    config_cls = YaSpMVConfig
    plan_cls = MergePlan
    sums = staticmethod(_team_sums)

    def max_batch_width(self, fmt, device: DeviceSpec, config=None) -> int:
        """Columns one batched launch sustains under the shared-mem budget."""
        fmt = self._expect(fmt, MergeCSRMatrix)
        cfg = self._coerce_config(config)
        shm_one = max(shared_mem(fmt, cfg), 1)
        return max(1, device.max_shared_mem_per_workgroup // shm_one)
