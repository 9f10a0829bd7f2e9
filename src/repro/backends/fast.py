"""The fast backend: a plan cache and vectorized summation cores.

Every launch runs in the format's kernel (``YaSpMVKernel``,
``MergePathKernel``, ``RowGroupedKernel``) -- checks, decoding, BCCOO+
slice fold, ``y`` scatter and cost profile are the same code
``faithful`` runs.  This backend supplies the two inputs that make it
fast:

* a plan cache: each kernel's x-independent launch state (for BCCOO the
  padded arrays, the vector-gather map, the segment structure of the bit
  flags; for the stream formats the decoded rows / lane order) is built
  **once** per ``(format, config)`` and cached on the format instance's
  lifetime (weak-keyed, so dropping the format drops the plan; a value
  refresh migrates it, see :meth:`FastBackend.refresh_values`).  The
  plan also memoizes, per device, its cost profile and the simulated
  clock computed from it, which the launch result carries to the
  engine;
* summation cores that replace the interpreter's per-workgroup loops: one
  gather, one ``einsum`` (the *same* call on the *same* arrays the
  faithful core uses -- hence identical products), and one batched
  segmented sum (:func:`repro.scan.batched_segment_sums`, whose
  ``np.bincount`` core adds the same weights into the same bins in the
  same element order as the reference ``np.add.at`` -- hence identical
  sums).

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
from functools import partial

import numpy as np

from ..fault.injection import active_plan
from ..formats.bccoo_plus import BCCOOPlusMatrix
# Unused here; kept because perfbench/tracing.py patches this module's copy.
from ..gpu.caches import vector_read_traffic  # noqa: F401
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingBreakdown, TimingModel
from ..kernels.base import KernelResult, SpMVKernel
from ..kernels.merge_path import MergePlan
from ..kernels.row_grouped import RowGroupPlan
from ..kernels.yaspmv import LaunchPlan, block_products
from ..obs import active_observer
from ..scan.batched import SegmentPlan, batched_segment_sums
from .base import ExecutionBackend, kernel_for
from .faithful import FaithfulBackend

__all__ = ["FastBackend", "FastPlan", "FastMergePlan", "FastRowGroupPlan"]

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


class _Memo:
    """Cost profiles and their simulated clock, memoized per plan.

    A profile depends only on structure, the configuration and the
    device, so it is computed once per device (and batch width for SpMM)
    and carried over by value refreshes; so is the
    :class:`~repro.gpu.timing.TimingBreakdown` that
    :meth:`TimingModel.estimate <repro.gpu.timing.TimingModel.estimate>`
    computes from it the first time.  Keys hold the frozen
    :class:`DeviceSpec` value, not its name: a ``with_overrides`` copy
    that keeps the name is another device.  Threads racing on a miss
    compute equal values; ``setdefault`` keeps one.
    """

    __slots__ = ()

    def _start_memo(self) -> None:
        self._profiles = {}
        self._clocks = {}

    def _carry_memo(self, clone) -> None:
        """Hand this plan's memo to its value-refreshed twin."""
        clone._profiles = dict(self._profiles)
        clone._clocks = dict(self._clocks)

    def stats(self, fmt, device: DeviceSpec):
        profile = self._profiles.get(device)
        if profile is None:
            profile = self._profiles.setdefault(
                device, super().stats(fmt, device)
            )
        return replace(profile)

    def breakdown(
        self, device: DeviceSpec, k: int | None, stats
    ) -> TimingBreakdown:
        """The clock of this plan's launch on ``device`` (SpMV when ``k``
        is ``None``, else SpMM over ``k`` columns) whose profile is
        ``stats``."""
        key = device if k is None else (device, k)
        clock = self._clocks.get(key)
        if clock is None:
            clock = self._clocks.setdefault(
                key, TimingModel(device).estimate(stats)
            )
        return clock


class FastPlan(_Memo, LaunchPlan):
    """A cached :class:`~repro.kernels.yaspmv.LaunchPlan` for one
    (format, config), with the segment structure of its flags and, for
    1x1 blocks, the fused CSR of its segments.

    A plan holds no reference to its format: the backend caches it under
    a weak reference to the format, which a strong one would pin for the
    life of the process.  ``padded.fmt`` is therefore ``None``.
    """

    __slots__ = ("segplan", "fused", "_profiles", "_clocks")

    def __init__(self, fmt, cfg):
        super().__init__(fmt, cfg)
        self.padded = replace(self.padded, fmt=None)
        self.segplan = SegmentPlan(self.padded.stops)
        # 1x1 blocks: fold gather+multiply+segment-sum into one CSR
        # matvec over a segment-rowed remap (see module docstring).
        self.fused = None
        if fmt.block_height == 1 and fmt.block_width == 1 and _fused_matvec_exact():
            import scipy.sparse as sp

            indptr = np.searchsorted(
                self.segplan.ids, np.arange(self.segplan.n_segments + 1)
            )
            self.fused = sp.csr_matrix(
                (self._fused_data(), self.gather_flat, indptr),
                shape=(self.segplan.n_segments, fmt.ncols),
            )
        self._start_memo()

    def _fused_data(self) -> np.ndarray:
        data = np.ascontiguousarray(self.padded.values[:, 0, 0])
        if self.invalid is not None:
            # The faithful path multiplies these lanes by a zeroed
            # gather; zeroing the data keeps the products zero here.
            data = np.where(self.invalid.ravel(), 0.0, data)
        return data

    def derive(self, new_fmt) -> "FastPlan":
        """Plan for a value-only rebuild of this plan's format.

        ``new_fmt`` shares the structural arrays (flags, columns, row
        map) with the original, so the gather map, segment plan, cost
        profiles and clocks all carry over; only the padded value payload
        (and the fused CSR's data vector) is rebuilt -- the whole point
        of the incremental re-prepare path.
        """
        clone = object.__new__(FastPlan)
        values = np.zeros_like(self.padded.values)
        values[: new_fmt.nblocks_padded] = new_fmt.values
        clone.padded = replace(self.padded, values=values)
        clone.safe = self.safe
        clone.invalid = self.invalid
        clone.gather_flat = self.gather_flat
        clone.segplan = self.segplan
        clone.fused = None
        if self.fused is not None:
            import scipy.sparse as sp

            clone.fused = sp.csr_matrix(
                (clone._fused_data(), self.fused.indices, self.fused.indptr),
                shape=self.fused.shape,
            )
        self._carry_memo(clone)
        return clone

    def multi_stats(self, fmt, device: DeviceSpec, k: int):
        key = (device, k)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles.setdefault(
                key, super().multi_stats(fmt, device, k)
            )
        return replace(profile)


class FastMergePlan(_Memo, MergePlan):
    """A cached :class:`~repro.kernels.merge_path.MergePlan`.

    ``np.bincount`` over its decoded rows adds the products into the
    same rows in the same stream order as the team loop's
    ``np.add.at`` (both are strictly sequential, carries included), so
    the fused single pass is bit-identical by construction.
    """

    __slots__ = ("_profiles", "_clocks")

    def __init__(self, fmt, cfg):
        super().__init__(fmt, cfg)
        self._start_memo()

    def derive(self, new_fmt) -> "FastMergePlan":
        """Plan for a value-only rebuild: everything carries over."""
        clone = object.__new__(FastMergePlan)
        clone.cfg, clone.cols, clone.rows = self.cfg, self.cols, self.rows
        self._carry_memo(clone)
        return clone


class FastRowGroupPlan(_Memo, RowGroupPlan):
    """A cached :class:`~repro.kernels.row_grouped.RowGroupPlan`.

    ``order`` lists the valid lane slots in CSR element order (row by
    row, lane ascending); ``row_ids`` repeats each packed row's original
    index per element.  ``np.bincount(row_ids, weights=prods[order])``
    then folds every row's elements in lane order -- the exact addition
    sequence of the faithful kernel's per-group lane loop.
    """

    __slots__ = ("order", "row_ids", "_profiles", "_clocks")

    def __init__(self, fmt, cfg):
        super().__init__(fmt, cfg)
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
        self._start_memo()

    def derive(self, new_fmt) -> "FastRowGroupPlan":
        """Plan for a value-only rebuild: everything carries over."""
        clone = object.__new__(FastRowGroupPlan)
        clone.cfg, clone.cols, clone.mask = self.cfg, self.cols, self.mask
        clone.order, clone.row_ids = self.order, self.row_ids
        self._carry_memo(clone)
        return clone


def _segment_sums(plan: FastPlan, X: np.ndarray) -> np.ndarray:
    """Per-row-stop sums: the probe-gated fused CSR product for 1x1
    blocks, else block products plus bincount segmented sums."""
    if plan.fused is not None:
        return (plan.fused @ X)[: plan.segplan.n_closed]
    contribs = block_products(plan, X)
    return batched_segment_sums(
        contribs.reshape(plan.padded.nb_padded, -1), plan.segplan
    )


def _merge_sums(plan: FastMergePlan, fmt, x: np.ndarray) -> np.ndarray:
    """Merge-path CSR as one pass: the team loop's products, added in
    stream order."""
    prods = fmt.values * x[plan.cols]
    return np.bincount(plan.rows, weights=prods, minlength=fmt.nrows)


def _lane_sums(plan: FastRowGroupPlan, fmt, x: np.ndarray) -> np.ndarray:
    """RG-CSR as one pass over the CSR-ordered lane stream."""
    slots = plan.order
    prods = fmt.values[slots] * x[plan.cols[slots]]
    return np.bincount(plan.row_ids, weights=prods, minlength=fmt.nrows)


class FastBackend(ExecutionBackend):
    """All-workgroups-at-once vectorized execution."""

    name = "fast"

    def __init__(self):
        self._faithful = FaithfulBackend()
        #: What this backend hands each kernel's launch, by kernel name:
        #: a provider of its cached plan and its summation core.
        self._cores = {
            "yaspmv": (partial(self._plan_for, FastPlan), _segment_sums),
            "merge_csr": (partial(self._plan_for, FastMergePlan), _merge_sums),
            "rgcsr": (partial(self._plan_for, FastRowGroupPlan), _lane_sums),
        }
        # fmt instance -> {config: plan}; weak-keyed so plans die with
        # their format.
        self._plans = weakref.WeakKeyDictionary()
        self._plans_lock = threading.Lock()
        #: Plans migrated through :meth:`refresh_values` (value swaps
        #: that reused a gather/segment plan instead of re-deriving it).
        self.n_value_refreshes = 0

    # ------------------------------------------------------------------ #
    # Plan cache
    # ------------------------------------------------------------------ #

    def _plan_for(self, cls, fmt, cfg):
        per_fmt = self._plans.get(fmt)
        plan = None if per_fmt is None else per_fmt.get(cfg)
        if plan is None:
            with self._plans_lock:
                per_fmt = self._plans.setdefault(fmt, {})
                plan = per_fmt.get(cfg)
                if plan is None:
                    plan = per_fmt[cfg] = cls(fmt, cfg)
        return plan

    def plan_count(self) -> int:
        """Live cached plans (introspection/tests)."""
        with self._plans_lock:
            return sum(len(d) for d in self._plans.values())

    def refresh_values(self, old_fmt, new_fmt) -> int:
        """Migrate cached plans from ``old_fmt`` to its value-swapped twin.

        Every plan cached for ``old_fmt`` is ``derive``-d onto
        ``new_fmt`` -- the gather map, segment plan and cost profile
        carry over by identity, only the value payload is re-padded.
        The next multiply on ``new_fmt`` then hits the plan cache
        instead of re-deriving the launch state.
        """
        if isinstance(old_fmt, BCCOOPlusMatrix) and isinstance(
            new_fmt, BCCOOPlusMatrix
        ):
            return self.refresh_values(old_fmt.stacked, new_fmt.stacked)
        per_fmt = self._plans.get(old_fmt)
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
    # Execution
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
        x = np.asarray(x, dtype=np.float64).ravel()
        return self._dispatch(fmt, x, device, config, "backend.fast")

    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        if active_plan() is not None:
            return self._faithful.execute_multi(fmt, X, device, config)
        X = SpMVKernel._check_block(X)
        return self._dispatch(fmt, X, device, config, "backend.fast_multi")

    def _dispatch(self, fmt, X, device, config, span: str) -> KernelResult:
        """Run the format's kernel launch on a cached plan and a fast core,
        and hand the result the plan's memoized clock.

        A BCCOO+ result carries no clock: its launch folds the
        slice-combine profile into the stacked launch's on every call, so
        the caller estimates it.
        """
        kern = kernel_for(fmt)
        cfg = kern._coerce_config(config)
        plan_for, sums = self._cores[kern.name]
        obs = active_observer()
        if not obs.enabled:
            result = kern._launch(fmt, X, device, cfg, plan_for, sums)
        else:
            label = (
                "yaspmm" if X.ndim == 2 and kern.name == "yaspmv" else kern.name
            )
            with obs.span(
                span, format=type(fmt).__name__, workgroup_size=cfg.workgroup_size
            ) as sp:
                result = kern._launch(fmt, X, device, cfg, plan_for, sums)
                kern._observe(obs, sp, label, result.stats)
        if not isinstance(fmt, BCCOOPlusMatrix):
            k = None if X.ndim == 1 else X.shape[1]
            plan = plan_for(fmt, cfg)
            result.breakdown = plan.breakdown(device, k, result.stats)
        return result

    def capabilities(self) -> dict:
        caps = super().capabilities()
        caps["vectorized"] = True
        caps["fault_sites"] = "delegated"  # active plans run on faithful
        return caps
