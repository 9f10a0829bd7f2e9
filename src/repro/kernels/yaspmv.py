"""The yaSpMV kernel: single-launch BCCOO SpMV with matrix-based
segmented sum/scan (paper section 3), and its SpMM extension.

:meth:`YaSpMVKernel._bind` and :class:`BlockLaunch` are the one launch
both execution backends run.  The bind makes the configuration and
resource checks, builds the plan, checks the row-stop-count invariant
on the plan's stops, computes the cost profile and fixes the layout of
``y``; the BCCOO+ slice fold (Figure 5) wraps the stacked matrix's
launch in a :class:`SliceFold`.  The apply checks the operand's length,
runs the summation core and writes the per-stop sums as ``y`` (by
reshape when no block row is empty, else by scatter).  The caller
supplies the two parts that differ between backends:

* the *plan* -- a :class:`LaunchPlan`, the x-independent state (padded
  arrays, vector gather map, cost profile).  ``faithful`` builds one per
  call, under the fault hooks; ``fast`` caches one per format and
  configuration.  A profile-only launch with no fault plan active needs
  no arrays: its :class:`ProfilePlan` holds scalars and reads the
  format's :class:`~repro.kernels.yaspmv_common.FormatProfile`;
* the *summation core* -- the arithmetic that turns block products into
  per-row-stop sums.  ``faithful``'s core (:func:`_reference_sums`)
  computes exactly what the device kernel computes -- per-block
  products, per-thread sequential segmented sums, workgroup scan of
  ``last_partial_sums``, adjacent-synchronization carries -- which all
  telescope into per-segment sums over the padded block stream
  (validated against the step-by-step executor in
  :mod:`repro.kernels.faithful`).

The cost path charges, per the launch configuration:

* coalesced streams for values, column indices (short/delta/int), bit
  flags and section 2.4 auxiliary info -- the bandwidth term BCCOO
  shrinks;
* multiplied-vector reads through the texture-cache model;
* the workgroup parallel scan (skippable by the fine-grain early check),
  barriers, the Grp_sum chain or the second-kernel alternative, and the
  strategy-specific shared-memory/register budgets.

Ablation switches in :class:`YaSpMVConfig` reproduce Figure 14's steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import KernelConfigError, ValidationError
from ..fault.injection import FaultEvent, active_plan
from ..formats.bccoo import BCCOOMatrix, block_dots
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..gpu.adjacent_sync import (
    SPIN_WATCHDOG_CAP,
    chain_carries_hazard,
    chain_segments,
    logical_workgroup_ids,
)
from ..gpu.caches import vector_read_traffic
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..gpu.memory import stream_bytes
from ..obs import active_observer
from ..obs.stages import stage
from ..scan.reference import segment_sums_by_stops
from ..util import ceil_div, round_up
from .base import BoundLaunch, KernelResult, SpMVKernel, register_kernel
from .config import YaSpMVConfig
from .yaspmv_common import FormatProfile, gather_map, prepare

__all__ = [
    "BlockLaunch",
    "LaunchPlan",
    "ProfilePlan",
    "SliceFold",
    "YaSpMVKernel",
    "block_products",
]

#: Value/index element sizes for bandwidth accounting (fp32 device data).
_VAL_B = 4
_IDX_B = 4
_SHORT_B = 2
#: SIMD efficiency of the sequential per-thread segmented sum (the only
#: divergence is the predicated row-stop check).
_MATRIX_SIMD_EFF = 0.95
#: SIMD efficiency of the lockstep tree scan (idle lanes + bank traffic).
_TREE_SIMD_EFF = 0.80
#: Relative cost of one shared-memory scan op versus one FMA.
_SHM_OP_WEIGHT = 2.0


def _per_stop_via_chain(contribs, padded, cfg, plan):
    """Per-stop sums computed through the explicit Grp_sum chain.

    Functionally equivalent to ``segment_sums_by_stops`` when no fault
    fires (modulo floating-point summation order), but decomposed the
    way the device actually runs -- per-workgroup local segment sums,
    ``last_partial`` open tails, and the adjacent-synchronization chain
    -- so the fault plan can corrupt the chain itself: stale ``Grp_sum``
    reads and out-of-order dispatch.  The logical-id atomic fallback
    (``cfg.workgroup_ids == "atomic"``) is modeled explicitly: acquired
    ids follow arrival order, so the chain is traversed in the order
    workgroups actually run and out-of-order dispatch is absorbed.
    """
    n_wg = padded.n_workgroups
    h = contribs.shape[1]
    wg_stops = padded.workgroup_stops()
    wg_contribs = contribs.reshape(n_wg, -1, h)
    has_stop = wg_stops.any(axis=1)

    # Each workgroup's open tail: the sum of contributions after its
    # last row stop (the whole tile when it has none).
    last_partials = np.zeros((n_wg, h), dtype=np.float64)
    for wg in range(n_wg):
        idx = np.flatnonzero(wg_stops[wg])
        start = int(idx[-1]) + 1 if idx.size else 0
        last_partials[wg] = wg_contribs[wg, start:].sum(axis=0)

    arrival = plan.dispatch_order(n_wg)
    stale = plan.stale_mask(n_wg)
    if arrival is not None and cfg.workgroup_ids == "atomic":
        # Logical-id fallback absorbs the disorder: tiles are consumed
        # by acquired (arrival-ordered) ids, so the chain is exact.
        logical_workgroup_ids(arrival)
        plan.events.append(
            FaultEvent(
                site="dispatch.out_of_order",
                detail=(("absorbed_by", "logical_ids"), ("n_workgroups", n_wg)),
            )
        )
        arrival = None

    # The spin watchdog turns an out-of-order wait on an unpublished
    # Grp_sum slot into a typed AdjacentSyncTimeout instead of a stale
    # carry -- the engine's fallback chain catches it and retries with
    # logical workgroup ids.
    carry, _ = chain_carries_hazard(
        last_partials,
        has_stop,
        arrival_order=arrival,
        stale_reads=stale,
        max_spin=SPIN_WATCHDOG_CAP,
    )

    parts = []
    for wg in range(n_wg):
        seg = segment_sums_by_stops(wg_contribs[wg], wg_stops[wg])
        if seg.shape[0]:
            seg[0] = seg[0] + carry[wg]
        parts.append(seg)
    if not parts:
        return np.empty((0, h), dtype=np.float64)
    return np.concatenate(parts, axis=0)


class LaunchPlan:
    """The x-independent state of one BCCOO launch.

    ``padded`` holds the arrays padded to whole workgroup tiles, decoded
    under the fault hooks (a fault plan perturbs this launch's copy,
    never the format).  ``safe`` is the vector gather map with
    out-of-range slots clamped to 0; ``invalid`` masks those slots, or is
    ``None`` when every slot is in range (the common 1-wide-block case).
    The cost-profile methods take the format from the caller, so a plan
    need not hold one.

    The launch geometry and stop counts the cost profile reads are the
    same members :class:`ProfilePlan` computes without arrays; here they
    are read off the padded copy.
    """

    __slots__ = ("padded", "safe", "invalid", "gather_flat")

    def __init__(self, fmt: BCCOOMatrix, cfg: YaSpMVConfig):
        padded = prepare(fmt, cfg)
        safe, valid = gather_map(padded.cols, fmt.block_width, fmt.ncols)
        self.padded = padded
        self.safe = safe
        self.invalid = None if valid.all() else ~valid
        self.gather_flat = self.safe.ravel()

    @property
    def config(self) -> YaSpMVConfig:
        return self.padded.config

    @property
    def nb_padded(self) -> int:
        return self.padded.nb_padded

    @property
    def n_workgroups(self) -> int:
        return self.padded.n_workgroups

    @property
    def n_threads_total(self) -> int:
        return self.padded.n_threads_total

    @property
    def n_stops(self) -> int:
        return int(np.count_nonzero(self.padded.stops))

    def workgroup_stops(self) -> np.ndarray:
        """Row stops per workgroup."""
        return self.padded.workgroup_stops().sum(axis=1)

    def full_workgroups(self) -> int:
        """Workgroups in which every thread's tile holds a row stop."""
        tile_has_stop = self.padded.thread_stops().any(axis=1)
        return int(
            np.count_nonzero(tile_has_stop.reshape(self.n_workgroups, -1).all(axis=1))
        )

    def sync_chains(self) -> np.ndarray:
        """Lengths of the launch's adjacent-sync chains."""
        return chain_segments(self.workgroup_stops() > 0)

    def vector_traffic(self, device: DeviceSpec) -> tuple[int, int]:
        """``(dram_bytes, cached_bytes)`` of the launch's vector reads."""
        cfg = self.config
        return vector_read_traffic(
            self.gather_flat,
            cfg.value_bytes,
            cache_bytes=device.tex_cache_bytes,
            line_bytes=device.tex_line_bytes,
            use_cache=cfg.use_texture,
        )

    def stats(self, fmt: BCCOOMatrix, device: DeviceSpec) -> KernelStats:
        """Cost profile of the SpMV launch."""
        return YaSpMVKernel._stats(fmt, self, device)

    def multi_stats(
        self, fmt: BCCOOMatrix, device: DeviceSpec, k: int
    ) -> KernelStats:
        """Cost profile of the SpMM launch over ``k`` right-hand sides.

        The matrix streams are read once; vector reads, result writes,
        FLOPs and the per-workgroup partial sums scale with ``k``.  Starts
        from the single-vector profile and adds the k-dependent deltas.
        """
        stats = self.stats(fmt, device)
        cfg = self.padded.config
        vec_dram, vec_cached = vector_read_traffic(
            self.gather_flat,
            cfg.value_bytes * k,  # each touched index pulls a k-row
            cache_bytes=device.tex_cache_bytes,
            line_bytes=device.tex_line_bytes,
            use_cache=cfg.use_texture,
        )
        base_vec_dram, base_vec_cached = vector_read_traffic(
            self.gather_flat,
            cfg.value_bytes,
            cache_bytes=device.tex_cache_bytes,
            line_bytes=device.tex_line_bytes,
            use_cache=cfg.use_texture,
        )
        n_stops = self.n_stops
        write_delta = (k - 1) * stream_bytes(
            n_stops * fmt.block_height, cfg.value_bytes, device.transaction_bytes
        )
        stats.dram_read_bytes += vec_dram - base_vec_dram
        stats.cached_read_bytes += vec_cached - base_vec_cached
        stats.dram_write_bytes += write_delta
        stats.flops *= k
        stats.shared_mem_per_workgroup *= k  # k-wide partial sums
        if stats.shared_mem_per_workgroup > device.max_shared_mem_per_workgroup:
            raise KernelConfigError(
                f"k={k} needs {stats.shared_mem_per_workgroup} B shared "
                f"memory per workgroup; {device.name} allows "
                f"{device.max_shared_mem_per_workgroup}"
            )
        return stats


class ProfilePlan:
    """The plan of a profile-only launch: scalars and row-stop counts.

    Built per candidate from the format's
    :class:`~repro.kernels.yaspmv_common.FormatProfile`, it allocates no
    padded value, column or gather array: padding to whole workgroup
    tiles only appends blocks with no stop that read column 0, so the
    padded length is arithmetic, stop counts per thread and per
    workgroup come from the stop positions, and vector traffic from the
    cache model's closed form.  What depends on the launch geometry
    alone -- the full workgroups, the adjacent-sync chains and the
    vector traffic -- is memoized with the profile, so the
    configurations that share a geometry compute it once.  Its members
    are the ones the cost profile reads of a :class:`LaunchPlan`, with
    equal values.

    Used only with no fault plan active: a fault plan perturbs a decoded
    per-launch copy, which only a :class:`LaunchPlan` builds.
    """

    __slots__ = (
        "config",
        "nb_padded",
        "n_workgroups",
        "n_threads_total",
        "n_stops",
        "_profile",
        "_block_width",
        "_geometry",
    )

    def __init__(self, fmt: BCCOOMatrix, cfg: YaSpMVConfig):
        profile = FormatProfile.of(fmt)
        tile = cfg.effective_tile
        self.config = cfg
        self.nb_padded = round_up(max(profile.nblocks_padded, 1), cfg.workgroup_work)
        self.n_workgroups = self.nb_padded // cfg.workgroup_work
        self.n_threads_total = self.nb_padded // tile
        self.n_stops = int(profile.stop_pos.shape[0])
        self._profile = profile
        self._block_width = fmt.block_width
        self._geometry = profile.geometry(tile, cfg.workgroup_size, self.n_workgroups)

    def workgroup_stops(self) -> np.ndarray:
        """Row stops per workgroup."""
        return self._profile.workgroup_stops(
            self.config.workgroup_work, self.n_workgroups
        )

    def full_workgroups(self) -> int:
        """Workgroups in which every thread's tile holds a row stop."""
        return self._geometry[0]

    def sync_chains(self) -> np.ndarray:
        """Lengths of the launch's adjacent-sync chains (read-only)."""
        return self._geometry[1]

    def vector_traffic(self, device: DeviceSpec) -> tuple[int, int]:
        """``(dram_bytes, cached_bytes)`` of the launch's vector reads."""
        cfg = self.config
        return self._profile.reads.traffic(
            self.nb_padded * self._block_width,
            cfg.value_bytes,
            cache_bytes=device.tex_cache_bytes,
            line_bytes=device.tex_line_bytes,
            use_cache=cfg.use_texture,
        )

    def stats(self, fmt: BCCOOMatrix, device: DeviceSpec) -> KernelStats:
        """Cost profile of the SpMV launch."""
        return YaSpMVKernel._stats(fmt, self, device)


def block_products(plan: LaunchPlan, X: np.ndarray) -> np.ndarray:
    """Per-block partial dot products: ``(nb_padded, h)`` for a vector,
    ``(nb_padded, h, k)`` for a ``(ncols, k)`` block.

    Each is one thread's sequential sum from +0 over ``j = 0..w-1``
    (:func:`~repro.formats.bccoo.block_dots`), so an SpMM column adds in
    the SpMV's order.  Out-of-range gather slots (right-edge and padding
    blocks) read a zero, matching a padded device buffer.
    """
    xg = X[plan.safe]
    if plan.invalid is not None:
        xg[plan.invalid] = 0.0
    return block_dots(plan.padded.values, xg)


def _reference_sums(plan: LaunchPlan, X: np.ndarray) -> np.ndarray:
    """``faithful``'s summation core: the sums of section 3.2.

    The thread/workgroup/Grp_sum hierarchy computes, for every row stop,
    the sum of all block contributions since the previous stop -- i.e.
    per-segment sums over the padded stream.  A single-vector launch
    reads the kernel fault hooks: partials can be corrupted, and when a
    fault plan targets the synchronization layer the sums run through
    the explicit per-workgroup Grp_sum chain, so stale reads and
    out-of-order dispatch can actually corrupt it.
    """
    padded = plan.padded
    contribs = block_products(plan, X)
    fault = active_plan()
    if fault is not None and X.ndim == 1:
        contribs = fault.perturb_partials(contribs)
        if fault.targets("sync.") or fault.targets("dispatch."):
            return _per_stop_via_chain(contribs, padded, padded.config, fault)
    return segment_sums_by_stops(
        contribs.reshape(padded.nb_padded, -1), padded.stops
    )


# Sums a whole ``(ncols, k)`` block in one call; see
# :meth:`repro.kernels.base.SpMVKernel._launch`.
_reference_sums.takes_block = True


class BlockLaunch(BoundLaunch):
    """A bound BCCOO launch.

    ``apply`` sums per row stop -- ``(n_stops, h)`` or
    ``(n_stops, h * k)``, or any shape holding those sums in C order --
    and lays the sums out as ``y``: a reshape when every block row holds
    a stop (``rows`` is ``None``: the row map is the identity), else a
    scatter of the stops' rows into zeros.  ``trim`` is the matrix's row
    count when the last block row overhangs it, else ``None``.
    """

    __slots__ = ("ncols", "height", "rows", "n_block_rows", "trim")

    def __init__(self, plan, sums, stats: KernelStats, fmt: BCCOOMatrix):
        super().__init__(plan, sums, stats)
        self.ncols = fmt.ncols
        self.height = fmt.block_height
        self.rows = fmt.nonempty_block_rows if fmt.has_empty_block_rows else None
        self.n_block_rows = fmt.n_block_rows
        overhang = self.n_block_rows * self.height > fmt.nrows
        self.trim = fmt.nrows if overhang else None

    def apply(self, fmt, X: np.ndarray) -> KernelResult:
        if X.shape[0] != self.ncols:
            raise KernelConfigError(
                f"vector length {X.shape[0]} != matrix columns {self.ncols}"
                if X.ndim == 1
                else f"X has {X.shape[0]} rows, matrix has {self.ncols} columns"
            )
        per_stop = self.sums(self.plan, X)
        lanes = X.shape[1:]
        rows = self.rows
        if rows is None:
            # Every block row holds a stop: the sums are already ``y``,
            # row for row.
            y = per_stop.reshape((-1,) + lanes)
        else:
            h = self.height
            y = np.zeros((self.n_block_rows * h,) + lanes, dtype=np.float64)
            if rows.shape[0]:
                y.reshape((-1, h) + lanes)[rows] = per_stop.reshape((-1, h) + lanes)
        if self.trim is not None:
            y = y[: self.trim]
        return KernelResult(y, self.stats, self.clock)


class SliceFold(BoundLaunch):
    """A bound BCCOO+ launch: the stacked matrix's launch, then the
    slice-combine kernel (Figure 5).  The combine profile is folded into
    the stacked launch's on every launch, so the result carries no
    clock."""

    __slots__ = ("inner",)

    def __init__(self, inner: BoundLaunch, combine: KernelStats):
        super().__init__(inner.plan, inner.sums, inner.stats.sequential(combine))
        self.inner = inner

    def apply(self, fmt, X: np.ndarray) -> KernelResult:
        # The stacked result covers the stacked rows; fold the slices.
        stacked = self.inner.apply(fmt.stacked, X)
        return KernelResult(fmt.combine(stacked.y), self.stats)


@register_kernel
class YaSpMVKernel(SpMVKernel):
    """Single-kernel BCCOO/BCCOO+ SpMV (the paper's contribution) and
    its multi-vector extension (:meth:`run_multi`)."""

    name = "yaspmv"
    format_name = "bccoo"
    config_cls = YaSpMVConfig
    plan_cls = LaunchPlan

    def _execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        config: YaSpMVConfig,
    ) -> KernelResult:
        x = np.asarray(x, dtype=np.float64).ravel()
        return self._launch(fmt, x, device, config, LaunchPlan, _reference_sums)

    def run_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config: YaSpMVConfig | None = None,
    ) -> KernelResult:
        """Execute ``Y = A @ X`` with ``X`` of shape ``(ncols, k)``.

        SpMM amortizes the matrix stream: values, columns and flags are
        read once while vector traffic, FLOPs and result writes scale
        with ``k``.  For bandwidth-bound SpMV that makes k simultaneous
        products much cheaper than k sequential ones -- the block-Krylov
        / multi-RHS workload a solver library needs.  Not part of the
        paper's evaluation; the kernel structure is the natural
        extension of the strategy-2 dataflow with ``k``-wide partial
        sums.
        """
        cfg = self._coerce_config(config)
        X = self._check_block(X)
        obs = active_observer()
        if not obs.enabled:
            return self._launch(fmt, X, device, cfg, LaunchPlan, _reference_sums)
        with obs.span(
            "kernel.yaspmm", kernel="yaspmm", format=type(fmt).__name__
        ) as sp:
            result = self._launch(fmt, X, device, cfg, LaunchPlan, _reference_sums)
            self._observe(obs, sp, "yaspmm", result.stats)
        return result

    def _profile_plan(self):
        # A fault plan perturbs a decoded per-launch copy, which only a
        # LaunchPlan builds.
        return LaunchPlan if active_plan() is not None else ProfilePlan

    def max_batch_width(
        self,
        fmt,
        device: DeviceSpec,
        config: YaSpMVConfig | None = None,
    ) -> int:
        """Widest ``k`` that :meth:`run_multi` can dispatch on ``device``.

        The SpMM dataflow widens the per-workgroup partial sums by ``k``,
        so shared memory scales linearly with the batch width; a wider
        batch would be rejected with :class:`KernelConfigError`.  Callers
        coalescing requests (the serving layer) chunk to this bound.
        """
        shm_one = self._shared_mem(fmt.block_height, self._coerce_config(config))
        return max(1, device.max_shared_mem_per_workgroup // shm_one)

    # ------------------------------------------------------------------ #
    # The launch
    # ------------------------------------------------------------------ #

    def _bind(
        self,
        fmt,
        device: DeviceSpec,
        cfg: YaSpMVConfig,
        plan_for,
        sums,
        k: int | None = None,
    ) -> BoundLaunch:
        """Bind one BCCOO/BCCOO+ launch for a vector (``k`` is ``None``,
        SpMV) or a ``(ncols, k)`` block (SpMM).

        ``plan_for(fmt, cfg)`` returns the :class:`LaunchPlan` (or
        :class:`ProfilePlan`) and ``sums(plan, X)`` the per-row-stop sums
        the launch applies.
        """
        if isinstance(fmt, BCCOOPlusMatrix):
            inner = self._bind(fmt.stacked, device, cfg, plan_for, sums, k)
            return self._fold(fmt, inner, device, k)
        if not isinstance(fmt, BCCOOMatrix):
            raise KernelConfigError(
                f"yaspmv kernel needs a BCCOO/BCCOO+ matrix, got {type(fmt).__name__}"
            )
        self._check_workgroup(cfg.workgroup_size, device)
        self._check_resources(fmt, device, cfg)
        plan = plan_for(fmt, cfg)
        if k is None:
            stats = plan.stats(fmt, device)
        else:
            stats = plan.multi_stats(fmt, device, k)
        # Runtime invariant: the stop count carried by the bit flags must
        # equal the non-empty-row map -- the compression is unreadable
        # otherwise (a flipped flag word lands here).  The sums hold one
        # row per stop flag.
        n_rows = fmt.nonempty_block_rows.shape[0]
        if plan.n_stops != n_rows:
            raise ValidationError(
                f"bit flags encode {plan.n_stops} row stops but the "
                f"row map holds {n_rows}",
                check="row_stop_count",
            )
        return BlockLaunch(plan, sums, stats, fmt)

    def _fold(
        self, fmt: BCCOOPlusMatrix, inner: BoundLaunch, device: DeviceSpec, k
    ) -> SliceFold:
        """The BCCOO+ launch over ``inner``, its stacked matrix's launch."""
        return SliceFold(inner, self._combine_stats(fmt, device, k or 1))

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stats(fmt: BCCOOMatrix, plan, device: DeviceSpec) -> KernelStats:
        """Cost profile of one SpMV launch of ``fmt`` planned by ``plan``
        (a :class:`LaunchPlan` or a :class:`ProfilePlan`)."""
        cfg = plan.config
        h, w = fmt.block_height, fmt.block_width
        nb_p = plan.nb_padded
        n_wg = plan.n_workgroups
        tile = cfg.effective_tile
        txn = device.transaction_bytes
        val_b = cfg.value_bytes

        # ---- matrix streams (read once, coalesced after transpose).
        read = stream_bytes(nb_p * h * w, val_b, txn)
        col_mode = fmt.col_storage if cfg.fine_grain else "int32"
        if col_mode == "int32":
            read += stream_bytes(nb_p, _IDX_B, txn)
        else:
            read += stream_bytes(nb_p, _SHORT_B, txn)
            if col_mode == "delta" and fmt.delta is not None:
                # Per-tile base columns stream once.
                read += stream_bytes(fmt.delta.n_tiles, _IDX_B, txn)
                # Sentinel entries re-fetch the uncompressed index; the
                # fallback array is indexed in block order, so those
                # reads coalesce -- a transaction is touched when any of
                # its 32 int32 entries is a fallback.
                p = fmt.delta.fallback_fraction
                touched = 1.0 - (1.0 - min(p, 1.0)) ** 32
                read += touched * stream_bytes(nb_p, _IDX_B, txn)
        read += stream_bytes(ceil_div(nb_p, 8), 1, txn)  # bit flags
        read += stream_bytes(plan.n_threads_total, _IDX_B, txn)  # §2.4 aux

        # ---- multiplied vector through the texture path.
        with stage("cache_model"):
            vec_dram, vec_cached = plan.vector_traffic(device)
        read += vec_dram

        # ---- result writes.
        write = stream_bytes(plan.n_stops * h, val_b, txn)
        if cfg.strategy == 1:
            # Per-thread scattered stores retire in smaller bursts than
            # the coalesced result-cache flush of strategy 2.
            write = int(write * 1.5)

        extra_latency = 0.0
        spill_bytes = 0
        if cfg.strategy == 2:
            entries = cfg.result_cache_multiple * cfg.workgroup_size
            spilled = np.maximum(plan.workgroup_stops() - entries, 0).sum()
            if spilled:
                # Spilled segment sums take a global round trip and are
                # re-read by the write-back phase (section 3.2.2).
                spill_bytes = int(spilled) * h * val_b
                write += 2 * spill_bytes
                extra_latency += device.dram_latency_s

        # ---- compute.
        flops = 2.0 * nb_p * h * w  # block product mul+add
        flops += nb_p * h  # sequential segmented-sum adds
        wg = cfg.workgroup_size
        log_wg = max(int(math.ceil(math.log2(max(wg, 2)))), 1)

        # The early check skips the scan of a workgroup whose every
        # thread tile holds a stop.
        skip_frac = plan.full_workgroups() / n_wg if cfg.fine_grain else 0.0

        if cfg.scan_mode == "tree":
            # Lockstep tree scan replaces the sequential phase: every
            # element goes through log2(wg) shared-memory combine steps.
            flops += nb_p * h * log_wg * _SHM_OP_WEIGHT
            simd_eff = _TREE_SIMD_EFF
            barriers = float(tile * log_wg)
        else:
            # Small parallel scan over wg last partials, skippable.
            flops += (1.0 - skip_frac) * n_wg * wg * log_wg * h
            simd_eff = _MATRIX_SIMD_EFF
            barriers = 2.0 + (1.0 - skip_frac) * log_wg
        if cfg.transpose == "online":
            barriers += tile  # one staging round trip per tile pass

        # ---- cross-workgroup accumulation.
        n_launches = 1
        chains = np.empty(0, dtype=np.int64)
        if cfg.cross_wg == "adjacent":
            chains = plan.sync_chains()
            # Grp_sum array traffic: one write + (up to) one read per wg.
            grp_bytes = n_wg * h * val_b
            read += grp_bytes
            write += grp_bytes
        else:
            # Two-kernel variant: last partials spill to global memory,
            # a second launch scans them and patches first results.
            n_launches = 2
            round_trip = n_wg * h * val_b
            write += 2 * round_trip
            read += 2 * round_trip
            extra_latency += device.dram_latency_s

        atomics = n_wg if cfg.workgroup_ids == "atomic" else 0

        return KernelStats(
            flops=flops,
            dram_read_bytes=float(read),
            dram_write_bytes=float(write),
            cached_read_bytes=float(vec_cached),
            simd_efficiency=simd_eff,
            workgroup_size=wg,
            n_workgroups=n_wg,
            shared_mem_per_workgroup=YaSpMVKernel._shared_mem(h, cfg),
            registers_per_thread=YaSpMVKernel._registers(fmt, cfg),
            workgroup_work=None,  # equal tiles: the design's point
            barriers_per_workgroup=barriers,
            atomics=atomics,
            sync_chain_lengths=chains,
            n_launches=n_launches,
            extra_latency_s=extra_latency,
            fp64=(cfg.precision == "fp64"),
        )

    @staticmethod
    def _combine_stats(
        fmt: BCCOOPlusMatrix, device: DeviceSpec, k: int
    ) -> KernelStats:
        """BCCOO+ slice-combine kernel (Figure 5's reduction) over ``k``
        result columns."""
        stride = fmt.padded_rows_per_slice
        txn = device.transaction_bytes
        return KernelStats(
            flops=float((fmt.slice_count - 1) * stride) * k,
            dram_read_bytes=float(
                stream_bytes(fmt.slice_count * stride, _VAL_B, txn)
            ) * k,
            dram_write_bytes=float(stream_bytes(fmt.nrows, _VAL_B, txn)) * k,
            workgroup_size=256,
            n_workgroups=max(ceil_div(stride, 256), 1),
            n_launches=1,
        )

    # ------------------------------------------------------------------ #
    # Resource checks
    # ------------------------------------------------------------------ #

    @staticmethod
    def _shared_mem(h: int, cfg: YaSpMVConfig) -> int:
        """Shared memory per workgroup for ``h``-high blocks."""
        wg = cfg.workgroup_size
        val_b = cfg.value_bytes
        shm = wg * h * val_b  # last_partial_sums
        if cfg.strategy == 1:
            shm += cfg.shm_size * wg * h * val_b
        else:
            shm += cfg.result_cache_multiple * wg * h * val_b
        if cfg.transpose == "online":
            shm += wg * cfg.effective_tile * val_b  # staging buffer
        return shm

    @staticmethod
    def _registers(fmt: BCCOOMatrix, cfg: YaSpMVConfig) -> int:
        """Estimated registers per thread (bookkeeping + live sums)."""
        base = 24
        lanes = fmt.block_height * (2 if cfg.precision == "fp64" else 1)
        if cfg.strategy == 1:
            return base + cfg.reg_size * lanes
        return base + lanes

    def _check_resources(
        self, fmt: BCCOOMatrix, device: DeviceSpec, cfg: YaSpMVConfig
    ) -> None:
        shm = self._shared_mem(fmt.block_height, cfg)
        if shm > device.max_shared_mem_per_workgroup:
            raise KernelConfigError(
                f"configuration needs {shm} B shared memory per workgroup; "
                f"{device.name} allows {device.max_shared_mem_per_workgroup}"
            )
        if cfg.strategy == 1:
            regs = cfg.reg_size * fmt.block_height + 24  # +bookkeeping
            if regs > device.max_registers_per_thread:
                raise KernelConfigError(
                    f"strategy 1 needs ~{regs} registers/thread; "
                    f"{device.name} allows {device.max_registers_per_thread}"
                )

