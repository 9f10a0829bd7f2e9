"""The fast backend: fully vectorized execution, bit-identical by design.

Instead of interpreting workgroup-by-workgroup, this backend runs the
whole launch as a handful of NumPy array passes:

* launch-time state (the padded BCCOO arrays, the vector-gather index
  map, the segment structure of the bit flags, the x-independent cost
  profile) is built **once** per ``(format, config, device)`` and cached
  on the format instance's lifetime (weak-keyed, so dropping the format
  drops the plan);
* per multiply, only the x-dependent work runs: one gather, one
  ``einsum`` (the *same* call on the *same* cached arrays the faithful
  kernel uses -- hence identical products), and one batched segmented
  sum (:func:`repro.scan.batched_segment_sums`, whose ``np.bincount``
  core adds the same weights into the same bins in the same element
  order as the reference ``np.add.at`` -- hence identical sums).

For 1x1 blocks (the default point and the most common tuned winner) the
gather/multiply/segment-sum pipeline collapses further into a single
SciPy CSR matvec over a plan-cached *remapped* matrix whose rows are
the flag segments: SciPy's kernel runs ``sum += data[j] * x[col[j]]``
sequentially per row -- the exact addition sequence of the bincount
path, fused into one memory pass.  That equivalence holds only when the
SciPy build does not contract the multiply-add into an FMA, so the
fused path is gated behind a one-time runtime probe
(:func:`_fused_matvec_exact`) and silently falls back to the
bincount pipeline when the probe fails.

Bit-identity therefore holds by construction *and is re-checked on this
interpreter*, not assumed; the differential suite pins it with
``np.array_equal``.

Fault plans perturb decode-time state *per launch* (corrupted flag
words, stale ``Grp_sum`` reads), which a cached plan cannot observe --
so under any active :func:`repro.fault.active_plan` this backend
delegates the whole call to ``faithful``, keeping every fault site's
behaviour (and the engine's fallback chain semantics) exactly as before.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import replace

import numpy as np

from ..errors import KernelConfigError, ValidationError
from ..fault.injection import active_plan
from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from ..gpu.caches import vector_read_traffic
from ..gpu.device import DeviceSpec
from ..gpu.memory import stream_bytes
from ..kernels.base import KernelResult
from ..kernels.merge_path import MergePathKernel, merge_path_stats
from ..kernels.row_grouped import RowGroupedKernel, row_grouped_stats
from ..kernels.yaspmv import YaSpMMKernel, YaSpMVKernel
from ..kernels.yaspmv_common import prepare
from ..obs import active_observer
from ..scan.batched import SegmentPlan, batched_segment_sums
from .base import ExecutionBackend
from .faithful import FaithfulBackend

__all__ = ["FastBackend", "FastPlan", "MergePlan", "RowGroupPlan"]

#: One-time probe result: does this SciPy build's CSR matvec reproduce
#: the reference accumulation bit for bit?  ``None`` until probed.
_FUSED_EXACT: bool | None = None


def _fused_matvec_exact() -> bool:
    """Probe whether SciPy's CSR matvec matches the bincount reference.

    SciPy's ``csr_matvec``/``csr_matvecs`` kernels accumulate
    ``sum += data[j] * x[col[j]]`` sequentially per row, which is the
    same sequence of rounded multiplies and adds as
    ``np.bincount(ids, weights=data * x[cols])`` -- *unless* the build's
    compiler contracted the multiply-add into an FMA (legal under
    ``-ffp-contract=fast``, and the product's rounding step disappears).
    Rather than assume a build flag, run both once on adversarial random
    data and compare exactly; cache the verdict for the process.
    """
    global _FUSED_EXACT
    if _FUSED_EXACT is None:
        import scipy.sparse as sp

        rng = np.random.default_rng(0x5EED)
        n, nseg, ncols, k = 4096, 64, 512, 3
        ids = np.sort(rng.integers(0, nseg, size=n))
        cols = rng.integers(0, ncols, size=n)
        data = rng.standard_normal(n)
        x = rng.standard_normal(ncols)
        X = rng.standard_normal((ncols, k))
        indptr = np.searchsorted(ids, np.arange(nseg + 1))
        S = sp.csr_matrix((data, cols, indptr), shape=(nseg, ncols))
        ref = np.bincount(ids, weights=data * x[cols], minlength=nseg)
        ok = np.array_equal(S @ x, ref)
        if ok:
            flat = (ids[:, None] * k + np.arange(k)).ravel()
            ref_multi = np.bincount(
                flat, weights=(data[:, None] * X[cols]).ravel(), minlength=nseg * k
            ).reshape(nseg, k)
            ok = np.array_equal(S @ X, ref_multi)
        _FUSED_EXACT = bool(ok)
    return _FUSED_EXACT


class FastPlan:
    """Cached x-independent launch state for one (format, config, device).

    Everything here is what the faithful kernel recomputes per call:
    the padded arrays, the gather map, the flag segment structure, the
    scatter row map, and (lazily) the cost profile.

    A plan holds no reference to its format: the backend caches it under
    a weak reference to the format, which a strong one would pin for the
    life of the process.  ``padded.fmt`` is therefore ``None``, and the
    cost-profile methods take the format from the caller.
    """

    __slots__ = (
        "padded",
        "safe",
        "invalid",
        "gather_flat",
        "segplan",
        "rows",
        "row_stop_mismatch",
        "fused",
        "_stats",
        "_multi_stats",
        "_lock",
    )

    def __init__(self, fmt: BCCOOMatrix, cfg, kernel: YaSpMVKernel):
        padded = replace(prepare(fmt, cfg), fmt=None)
        w = fmt.block_width
        base = padded.cols * w
        gather = base[:, None] + np.arange(w, dtype=np.int64)[None, :]
        valid = gather < fmt.ncols
        self.padded = padded
        self.safe = np.where(valid, gather, 0)
        # Edge/padding blocks multiply zero values; when every gather is
        # in range (the common 1-wide-block case) skip the mask entirely.
        self.invalid = None if valid.all() else ~valid
        self.gather_flat = self.safe.ravel()
        self.segplan = SegmentPlan(padded.stops)
        n_closed = self.segplan.n_closed
        self.rows = fmt.nonempty_block_rows[:n_closed]
        self.row_stop_mismatch = n_closed != fmt.nonempty_block_rows.shape[0]
        # 1x1 blocks: fold gather+multiply+segment-sum into one CSR
        # matvec over a segment-rowed remap (see module docstring).
        self.fused = None
        if (
            fmt.block_height == 1
            and fmt.block_width == 1
            and _fused_matvec_exact()
        ):
            import scipy.sparse as sp

            data = np.ascontiguousarray(padded.values[:, 0, 0])
            if self.invalid is not None:
                # The faithful path multiplies these lanes by a zeroed
                # gather; zeroing the data keeps the products zero here.
                data = np.where(self.invalid.ravel(), 0.0, data)
            indptr = np.searchsorted(
                self.segplan.ids, np.arange(self.segplan.n_segments + 1)
            )
            self.fused = sp.csr_matrix(
                (data, self.gather_flat, indptr),
                shape=(self.segplan.n_segments, fmt.ncols),
            )
        self._stats = None
        self._multi_stats: dict[int, object] = {}
        self._lock = threading.Lock()

    def derive(self, new_fmt: BCCOOMatrix) -> "FastPlan":
        """Plan for a value-only rebuild of this plan's format.

        ``new_fmt`` shares the structural arrays (flags, columns, row
        map) with the original, so the gather map, segment plan, scatter
        rows and the x-independent cost profile all carry over by
        identity; only the padded value payload (and the fused CSR's
        data vector) is rebuilt -- the whole point of the incremental
        re-prepare path.
        """
        clone = object.__new__(FastPlan)
        values = np.zeros_like(self.padded.values)
        values[: new_fmt.nblocks_padded] = new_fmt.values
        clone.padded = replace(self.padded, values=values)
        clone.safe = self.safe
        clone.invalid = self.invalid
        clone.gather_flat = self.gather_flat
        clone.segplan = self.segplan
        clone.rows = self.rows
        clone.row_stop_mismatch = self.row_stop_mismatch
        clone.fused = None
        if self.fused is not None:
            import scipy.sparse as sp

            data = np.ascontiguousarray(values[:, 0, 0])
            if self.invalid is not None:
                data = np.where(self.invalid.ravel(), 0.0, data)
            clone.fused = sp.csr_matrix(
                (data, self.fused.indices, self.fused.indptr),
                shape=self.fused.shape,
            )
        # Cost profiles depend only on structure -- share them.
        clone._stats = self._stats
        clone._multi_stats = dict(self._multi_stats)
        clone._lock = threading.Lock()
        return clone

    def stats(self, kernel: YaSpMVKernel, device: DeviceSpec, fmt: BCCOOMatrix):
        """The (x-independent) cost profile, computed once, copied out."""
        if self._stats is None:
            with self._lock:
                if self._stats is None:
                    self._stats = kernel._stats(
                        replace(self.padded, fmt=fmt),
                        self.gather_flat,
                        device,
                        self.padded.config,
                    )
        return replace(self._stats)

    def multi_stats(
        self, kernel: YaSpMVKernel, device: DeviceSpec, fmt: BCCOOMatrix, k: int
    ):
        """SpMM cost profile for batch width ``k`` (cached per ``k``)."""
        cached = self._multi_stats.get(k)
        if cached is None:
            single = self.stats(kernel, device, fmt)
            cfg = self.padded.config
            vec_dram, vec_cached = vector_read_traffic(
                self.gather_flat,
                cfg.value_bytes * k,
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
            n_stops = int(self.padded.stops.sum())
            h = fmt.block_height
            write_delta = (k - 1) * stream_bytes(
                n_stops * h, cfg.value_bytes, device.transaction_bytes
            )
            single.dram_read_bytes += vec_dram - base_vec_dram
            single.cached_read_bytes += vec_cached - base_vec_cached
            single.dram_write_bytes += write_delta
            single.flops *= k
            single.shared_mem_per_workgroup *= k
            if single.shared_mem_per_workgroup > device.max_shared_mem_per_workgroup:
                raise KernelConfigError(
                    f"k={k} needs {single.shared_mem_per_workgroup} B shared "
                    f"memory per workgroup; {device.name} allows "
                    f"{device.max_shared_mem_per_workgroup}"
                )
            with self._lock:
                self._multi_stats[k] = single
            cached = single
        return replace(cached)


class MergePlan:
    """Cached x-independent launch state for one merge-path CSR format.

    The per-element row ids are the only derived array the faithful
    kernel recomputes per call; ``np.bincount`` over them adds the same
    products into the same rows in the same stream order as the team
    loop's ``np.add.at`` (both are strictly sequential), so the fused
    single pass is bit-identical by construction.
    """

    __slots__ = ("rows", "_stats", "_lock")

    def __init__(self, fmt: MergeCSRMatrix):
        self.rows = np.repeat(
            np.arange(fmt.nrows, dtype=np.int64), np.diff(fmt.row_ptr)
        )
        self._stats = {}
        self._lock = threading.Lock()

    def derive(self, new_fmt: MergeCSRMatrix) -> "MergePlan":
        """Plan for a value-only rebuild: everything carries over."""
        clone = object.__new__(MergePlan)
        clone.rows = self.rows
        clone._stats = dict(self._stats)
        clone._lock = threading.Lock()
        return clone

    def stats(self, fmt: MergeCSRMatrix, device: DeviceSpec, cfg):
        key = (cfg, device.name)
        cached = self._stats.get(key)
        if cached is None:
            with self._lock:
                cached = self._stats.get(key)
                if cached is None:
                    cached = merge_path_stats(fmt, device, cfg)
                    self._stats[key] = cached
        return replace(cached)


class RowGroupPlan:
    """Cached x-independent launch state for one RG-CSR format.

    ``order`` lists the valid lane slots in CSR element order (row by
    row, lane ascending); ``row_ids`` repeats each packed row's original
    index per element.  ``np.bincount(row_ids, weights=prods[order])``
    then folds every row's elements in lane order -- the exact addition
    sequence of the faithful kernel's per-group lane loop.
    """

    __slots__ = ("order", "row_ids", "_stats", "_lock")

    def __init__(self, fmt: RGCSRMatrix):
        chunks = []
        for g in range(fmt.n_groups):
            r0 = int(fmt.group_row_offsets[g])
            r1 = int(fmt.group_row_offsets[g + 1])
            n, w = r1 - r0, int(fmt.group_widths[g])
            base = int(fmt.group_data_offsets[g])
            grid = (
                base
                + np.arange(w, dtype=np.int64)[None, :] * n
                + np.arange(n, dtype=np.int64)[:, None]
            )
            mask = fmt.row_lengths[r0:r1, None] > np.arange(w)[None, :]
            chunks.append(grid[mask])
        self.order = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        self.row_ids = np.repeat(fmt.row_perm, fmt.row_lengths)
        self._stats = {}
        self._lock = threading.Lock()

    def derive(self, new_fmt: RGCSRMatrix) -> "RowGroupPlan":
        """Plan for a value-only rebuild: everything carries over."""
        clone = object.__new__(RowGroupPlan)
        clone.order = self.order
        clone.row_ids = self.row_ids
        clone._stats = dict(self._stats)
        clone._lock = threading.Lock()
        return clone

    def stats(self, fmt: RGCSRMatrix, device: DeviceSpec, cfg):
        key = (cfg, device.name)
        cached = self._stats.get(key)
        if cached is None:
            with self._lock:
                cached = self._stats.get(key)
                if cached is None:
                    cached = row_grouped_stats(fmt, device, cfg)
                    self._stats[key] = cached
        return replace(cached)


class FastBackend(ExecutionBackend):
    """All-workgroups-at-once vectorized execution."""

    name = "fast"

    def __init__(self):
        self._kernel = YaSpMVKernel()
        self._kernel_multi = YaSpMMKernel()
        self._merge = MergePathKernel()
        self._rg = RowGroupedKernel()
        self._faithful = FaithfulBackend()
        # fmt instance -> {(config, device.name): FastPlan}; weak-keyed
        # so plans die with their format.
        self._plans = weakref.WeakKeyDictionary()
        # fmt instance -> MergePlan / RowGroupPlan (config-independent).
        self._stream_plans = weakref.WeakKeyDictionary()
        self._plans_lock = threading.Lock()
        #: Plans migrated through :meth:`refresh_values` (value swaps
        #: that reused a gather/segment plan instead of re-deriving it).
        self.n_value_refreshes = 0

    # ------------------------------------------------------------------ #
    # Plan cache
    # ------------------------------------------------------------------ #

    def _plan_for(self, fmt: BCCOOMatrix, cfg, device: DeviceSpec) -> FastPlan:
        key = (cfg, device.name)
        try:
            per_fmt = self._plans.get(fmt)
        except TypeError:  # non-weakrefable format: build transient plan
            return FastPlan(fmt, cfg, self._kernel)
        if per_fmt is not None:
            plan = per_fmt.get(key)
            if plan is not None:
                return plan
        with self._plans_lock:
            per_fmt = self._plans.setdefault(fmt, {})
            plan = per_fmt.get(key)
            if plan is None:
                plan = FastPlan(fmt, cfg, self._kernel)
                per_fmt[key] = plan
        return plan

    def _stream_plan_for(self, fmt):
        try:
            plan = self._stream_plans.get(fmt)
        except TypeError:  # non-weakrefable: transient plan
            plan = None
            if isinstance(fmt, MergeCSRMatrix):
                return MergePlan(fmt)
            return RowGroupPlan(fmt)
        if plan is not None:
            return plan
        with self._plans_lock:
            plan = self._stream_plans.get(fmt)
            if plan is None:
                plan = (
                    MergePlan(fmt)
                    if isinstance(fmt, MergeCSRMatrix)
                    else RowGroupPlan(fmt)
                )
                self._stream_plans[fmt] = plan
        return plan

    def _kernel_for(self, fmt):
        """The interpreter kernel whose protocol this format speaks."""
        if isinstance(fmt, MergeCSRMatrix):
            return self._merge
        if isinstance(fmt, RGCSRMatrix):
            return self._rg
        return self._kernel

    def plan_count(self) -> int:
        """Live cached plans (introspection/tests)."""
        with self._plans_lock:
            return sum(len(d) for d in self._plans.values()) + len(
                self._stream_plans
            )

    def refresh_values(self, old_fmt, new_fmt) -> int:
        """Migrate cached plans from ``old_fmt`` to its value-swapped twin.

        Every plan cached for ``old_fmt`` is :meth:`FastPlan.derive`-d
        onto ``new_fmt`` -- the gather map, segment plan and cost
        profile carry over by identity, only the value payload is
        re-padded.  The next multiply on ``new_fmt`` then hits the plan
        cache instead of re-deriving the launch state.
        """
        if isinstance(old_fmt, BCCOOPlusMatrix) and isinstance(
            new_fmt, BCCOOPlusMatrix
        ):
            return self.refresh_values(old_fmt.stacked, new_fmt.stacked)
        if isinstance(old_fmt, (MergeCSRMatrix, RGCSRMatrix)):
            try:
                plan = self._stream_plans.get(old_fmt)
            except TypeError:
                return 0
            if plan is None:
                return 0
            with self._plans_lock:
                if new_fmt not in self._stream_plans:
                    self._stream_plans[new_fmt] = plan.derive(new_fmt)
                    self.n_value_refreshes += 1
                    return 1
            return 0
        try:
            per_fmt = self._plans.get(old_fmt)
        except TypeError:  # non-weakrefable format: nothing cached
            return 0
        if not per_fmt:
            return 0
        migrated = 0
        with self._plans_lock:
            dest = self._plans.setdefault(new_fmt, {})
            for key, plan in per_fmt.items():
                if key not in dest:
                    dest[key] = plan.derive(new_fmt)
                    migrated += 1
            self.n_value_refreshes += migrated
        return migrated

    # ------------------------------------------------------------------ #
    # SpMV
    # ------------------------------------------------------------------ #

    def execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        # A fault plan perturbs the decoded per-launch state -- invisible
        # to a cached plan, so route through the faithful interpreter.
        if active_plan() is not None:
            return self._faithful.execute(fmt, x, device, config)
        kern = self._kernel_for(fmt)
        cfg = kern._coerce_config(config)
        obs = active_observer()
        if not obs.enabled:
            return self._execute(fmt, x, device, cfg)
        with obs.span(
            "backend.fast", format=type(fmt).__name__, workgroup_size=cfg.workgroup_size
        ) as sp:
            result = self._execute(fmt, x, device, cfg)
            kern._observe(obs, sp, kern.name, result.stats)
        return result

    def _execute(self, fmt, x, device, cfg) -> KernelResult:
        if isinstance(fmt, MergeCSRMatrix):
            return self._execute_merge(fmt, x, device, cfg)
        if isinstance(fmt, RGCSRMatrix):
            return self._execute_rg(fmt, x, device, cfg)
        if isinstance(fmt, BCCOOPlusMatrix):
            inner = self._execute(fmt.stacked, x, device, cfg)
            stride = fmt.padded_rows_per_slice
            y_stacked = np.zeros(fmt.slice_count * stride, dtype=np.float64)
            y_stacked[: inner.y.shape[0]] = inner.y
            y = fmt.combine(y_stacked)
            combine = self._kernel._combine_stats(fmt, device)
            return KernelResult(y=y, stats=inner.stats.sequential(combine))
        if not isinstance(fmt, BCCOOMatrix):
            raise KernelConfigError(
                f"yaspmv kernel needs a BCCOO/BCCOO+ matrix, got {type(fmt).__name__}"
            )
        self._kernel._check_workgroup(cfg.workgroup_size, device)
        self._kernel._check_resources(fmt, device, cfg)
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"vector length {x.shape[0]} != matrix columns {fmt.ncols}"
            )
        plan = self._plan_for(fmt, cfg, device)
        if plan.row_stop_mismatch:
            raise ValidationError(
                f"bit flags encode {plan.segplan.n_closed} row stops but the "
                f"row map holds {fmt.nonempty_block_rows.shape[0]}",
                check="row_stop_count",
            )

        if plan.fused is not None:
            per_stop = (plan.fused @ x)[: plan.segplan.n_closed].reshape(-1, 1)
        else:
            xg = x[plan.safe]
            if plan.invalid is not None:
                xg[plan.invalid] = 0.0
            contribs = np.einsum("bhw,bw->bh", plan.padded.values, xg)
            per_stop = batched_segment_sums(contribs, plan.segplan)

        h = fmt.block_height
        y_full = np.zeros(fmt.n_block_rows * h, dtype=np.float64)
        if per_stop.shape[0]:
            y_full.reshape(-1, h)[plan.rows] = per_stop
        y = y_full[: fmt.nrows]
        return KernelResult(y=y, stats=plan.stats(self._kernel, device, fmt))

    def _check_vector(self, fmt, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"vector length {x.shape[0]} != matrix columns {fmt.ncols}"
            )
        return x

    def _execute_merge(self, fmt, x, device, cfg) -> KernelResult:
        """Merge-path CSR as one fused pass.

        ``prods`` is the identical elementwise expression the faithful
        team loop evaluates, and ``np.bincount`` adds those products in
        stream order -- the same addition sequence as the team-ordered
        ``np.add.at`` (carries included), hence bit-identical output.
        """
        self._merge._check_workgroup(cfg.workgroup_size, device)
        x = self._check_vector(fmt, x)
        plan = self._stream_plan_for(fmt)
        prods = fmt.values * x[fmt.col_index]
        y = np.bincount(plan.rows, weights=prods, minlength=fmt.nrows)
        return KernelResult(y=y, stats=plan.stats(fmt, device, cfg))

    def _execute_rg(self, fmt, x, device, cfg) -> KernelResult:
        """RG-CSR as one fused pass over the CSR-ordered lane stream.

        ``plan.order`` visits each row's valid lanes in ascending lane
        order, so the bincount folds every row exactly as the faithful
        kernel's per-group lane loop does.
        """
        self._rg._check_workgroup(cfg.workgroup_size, device)
        x = self._check_vector(fmt, x)
        plan = self._stream_plan_for(fmt)
        slots = plan.order
        prods = fmt.values[slots] * x[fmt.col_index[slots]]
        y = np.bincount(plan.row_ids, weights=prods, minlength=fmt.nrows)
        return KernelResult(y=y, stats=plan.stats(fmt, device, cfg))

    def _execute_stream_multi(self, fmt, X, device, cfg) -> KernelResult:
        """SpMM for the stream formats: one fused pass per column,
        stats chained exactly like the faithful ``run_multi`` loop."""
        kern = self._kernel_for(fmt)
        if X.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"X must have shape ({fmt.ncols}, k), got {X.shape}"
            )
        k = X.shape[1]
        limit = kern.max_batch_width(fmt, device, cfg)
        if k > limit:
            raise KernelConfigError(
                f"batch width {k} exceeds device limit {limit}"
            )
        Y = np.empty((fmt.nrows, k), dtype=np.float64)
        stats = None
        for j in range(k):
            res = self._execute(fmt, X[:, j], device, cfg)
            Y[:, j] = res.y
            stats = res.stats if stats is None else stats.sequential(res.stats)
        return KernelResult(y=Y, stats=stats)

    # ------------------------------------------------------------------ #
    # SpMM
    # ------------------------------------------------------------------ #

    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        if active_plan() is not None:
            return self._faithful.execute_multi(fmt, X, device, config)
        kern = self._kernel_for(fmt)
        cfg = kern._coerce_config(config)
        obs = active_observer()
        if not obs.enabled:
            return self._execute_multi(fmt, X, device, cfg)
        with obs.span("backend.fast_multi", format=type(fmt).__name__) as sp:
            result = self._execute_multi(fmt, X, device, cfg)
            label = "yaspmm" if kern is self._kernel else kern.name
            kern._observe(obs, sp, label, result.stats)
        return result

    def _execute_multi(self, fmt, X, device, cfg) -> KernelResult:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise KernelConfigError(
                f"X must be 2-D (ncols, k), got shape {X.shape}"
            )
        k = X.shape[1]
        if k < 1:
            raise KernelConfigError("X needs at least one column")
        if isinstance(fmt, (MergeCSRMatrix, RGCSRMatrix)):
            return self._execute_stream_multi(fmt, X, device, cfg)
        if isinstance(fmt, BCCOOPlusMatrix):
            inner = self._execute_multi(fmt.stacked, X, device, cfg)
            stride = fmt.padded_rows_per_slice
            buf = np.zeros((fmt.slice_count * stride, k), dtype=np.float64)
            buf[: inner.y.shape[0]] = inner.y
            folded = buf.reshape(fmt.slice_count, stride, k).sum(axis=0)
            y = folded[: fmt.nrows]
            combine = self._kernel._combine_stats(fmt, device)
            combine.dram_read_bytes *= k
            combine.dram_write_bytes *= k
            combine.flops *= k
            return KernelResult(y=y, stats=inner.stats.sequential(combine))
        if not isinstance(fmt, BCCOOMatrix):
            raise KernelConfigError(
                f"yaspmm kernel needs a BCCOO/BCCOO+ matrix, got {type(fmt).__name__}"
            )
        if X.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"X has {X.shape[0]} rows, matrix has {fmt.ncols} columns"
            )
        self._kernel._check_workgroup(cfg.workgroup_size, device)
        self._kernel._check_resources(fmt, device, cfg)
        plan = self._plan_for(fmt, cfg, device)
        if plan.row_stop_mismatch:
            raise ValidationError(
                f"bit flags encode {plan.segplan.n_closed} row stops but the "
                f"row map holds {fmt.nonempty_block_rows.shape[0]}",
                check="row_stop_count",
            )
        # SpMM shared memory scales with k; surface the violation before
        # doing the arithmetic, exactly like the faithful kernel.
        stats = plan.multi_stats(self._kernel, device, fmt, k)

        h = fmt.block_height
        if plan.fused is not None:
            per_stop = (plan.fused @ X)[: plan.segplan.n_closed]
        else:
            Xg = X[plan.safe]  # (nb, w, k)
            if plan.invalid is not None:
                Xg[plan.invalid] = 0.0
            contribs = np.einsum("bhw,bwk->bhk", plan.padded.values, Xg)
            nb_p = plan.padded.nb_padded
            per_stop = batched_segment_sums(
                contribs.reshape(nb_p, h * k), plan.segplan
            )
        Y_full = np.zeros((fmt.n_block_rows * h, k), dtype=np.float64)
        if per_stop.shape[0]:
            Y_full.reshape(-1, h, k)[plan.rows] = per_stop.reshape(-1, h, k)
        y = Y_full[: fmt.nrows]
        return KernelResult(y=y, stats=stats)

    def capabilities(self) -> dict:
        caps = super().capabilities()
        caps["vectorized"] = True
        caps["fault_sites"] = "delegated"  # active plans run on faithful
        return caps
