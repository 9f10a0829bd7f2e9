"""The fast backend: a plan cache and exact SciPy CSR summation cores.

Every launch runs in the format's kernel (``YaSpMVKernel``,
``MergePathKernel``, ``RowGroupedKernel``) -- checks, decoding, BCCOO+
slice fold, ``y`` scatter and cost profile are the same code
``faithful`` runs.  This backend supplies the two inputs that make it
fast:

* a plan cache: each kernel's x-independent launch state (for BCCOO the
  gather map and the segment structure of the bit flags; for the stream
  formats the decoded rows / lane order) is built **once** per
  ``(format, config)`` and cached on the format instance's lifetime
  (weak-keyed, so dropping the format drops the plan; a value refresh
  migrates it, see :meth:`FastBackend.refresh_values`).  Beside each
  plan the backend keeps its *bound launches*
  (:class:`~repro.kernels.base.BoundLaunch`), one per device and batch
  width: the kernel's checks, cost profile and ``y`` layout, done once,
  plus the simulated clock computed from the profile, which every
  result carries to the engine.  A warm call only applies the launch;
* one summation core per plan (:class:`_CSRCore`), which replaces the
  interpreter's per-workgroup loops with one or two CSR passes laid out
  so that SciPy's compiled CSR loop adds in the interpreter's order.
  Each pass (:class:`_Pass`) calls that loop directly -- the
  ``csr_matvec`` / ``csr_matvecs`` of ``scipy.sparse._sparsetools``
  that ``A @ x`` itself ends in -- into a ``y`` it allocates as +0,
  after checking the operand's length, dtype and layout, since the loop
  checks no bounds.  The loop runs ``sum += data[j] * x[col[j]]``
  sequentially per row, from that +0 -- for a ``(ncols, k)`` block, per
  row and column -- so a CSR whose row lists the interpreter's terms in
  the interpreter's order is exact:

  - BCCOO/BCCOO+ with block width 1 (any height): one pass, one row per
    (flag segment, lane) holding that lane of the segment's blocks in
    block order;
  - block width ``w > 1``: a block-product pass, whose row (block,
    lane) holds the block's lane entries in column order -- the
    sequential dot product from +0 every block product is
    (:func:`~repro.formats.bccoo.block_dots`) -- then a unit-data
    segment pass whose row (segment, lane) adds its blocks' products in
    block order;
  - merge-path CSR and RG-CSR: one pass, one row per matrix row, in
    stream order and lane order; their SpMM is one pass over the block
    too, with the ``k``-launch cost profile.

  A value refresh swaps one array: the first pass's data, or the values
  NumPy multiplies by; rows and columns are shared by identity.

The first pass multiplies in SciPy only when the build does not contract
the multiply-add into an FMA, which a one-time runtime probe checks
(:func:`_fused_matvec_exact`) through the very call the passes make.
When it fails, each core takes its products in NumPy and runs the same
passes with unit data: ``1.0 * p`` rounds nothing, so a unit-data pass
rounds only its additions and is exact under FMA too.  A second probe
case (:func:`_unit_sums_exact`) checks that the loop adds a unit-data
row sequentially from +0; if that fails as well, the backend hands
every call to ``faithful``.

Bit-identity therefore holds by construction *and is re-checked on this
interpreter*, not assumed; the differential suite pins it with
``np.array_equal``, with SciPy's products and with NumPy's.

Fault plans perturb decode-time state *per launch* (corrupted flag
words, stale ``Grp_sum`` reads), which a cached plan cannot observe --
so under any active :func:`repro.fault.active_plan` this backend
delegates the whole call to ``faithful``, keeping every fault site's
behaviour (and the engine's fallback chain semantics) exactly as before.
"""

from __future__ import annotations

import copy
import threading
import weakref
from dataclasses import replace

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import FormatError, KernelConfigError
from ..fault.injection import active_plan
from ..formats.bccoo_plus import BCCOOPlusMatrix
# Unused here; kept because perfbench/tracing.py patches this module's copy.
from ..gpu.caches import vector_read_traffic  # noqa: F401
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingModel
from ..kernels.base import BoundLaunch, KernelResult, SpMVKernel
from ..kernels.merge_path import MergePlan
from ..kernels.row_grouped import RowGroupPlan
from ..kernels.yaspmv import LaunchPlan
from ..obs import active_observer
from .base import ExecutionBackend, kernel_for
from .faithful import FaithfulBackend

__all__ = ["FastBackend", "FastPlan", "FastMergePlan", "FastRowGroupPlan"]

#: One-time probe verdicts, ``None`` until probed: does this SciPy
#: build's CSR product reproduce the reference accumulation bit for bit
#: with arbitrary data (``_FUSED_EXACT``), and with unit data
#: (``_UNIT_EXACT``)?
_FUSED_EXACT: bool | None = None
_UNIT_EXACT: bool | None = None

#: SciPy's compiled CSR loops, the ones ``A @ x`` ends in: row ``i``
#: adds ``data[j] * x[indices[j]]`` to ``y[i]`` in entry order (per
#: column, for a block).  They check no bounds; :class:`_Pass` does.
_matvec = _sparsetools.csr_matvec
_matvecs = _sparsetools.csr_matvecs

_F64 = np.dtype(np.float64)
_INT32_MAX = np.iinfo(np.int32).max


def _adds_in_order(unit: bool) -> bool:
    """One probe case: a :class:`_Pass` against ``np.bincount``.

    SciPy's ``csr_matvec``/``csr_matvecs`` loops accumulate
    ``sum += data[j] * x[col[j]]`` sequentially per row, from +0, which
    is the same sequence of rounded multiplies and adds as
    ``np.bincount(ids, weights=data * x[cols])`` -- *unless* the build's
    compiler contracted the multiply-add into an FMA (legal under
    ``-ffp-contract=fast``, and the product's rounding step disappears).
    With ``unit`` data every product is exact, so the case checks the
    additions alone.  Rather than assume a build flag, run both on
    adversarial random data, for a vector and a block, through the call
    every pass makes, and compare exactly.
    """
    rng = np.random.default_rng(0x5EED)
    n, nseg, ncols, k = 4096, 64, 512, 3
    ids = np.sort(rng.integers(0, nseg, size=n))
    cols = rng.integers(0, ncols, size=n)
    data = np.ones(n) if unit else rng.standard_normal(n)
    x = rng.standard_normal(ncols)
    X = rng.standard_normal((ncols, k))
    S = _Pass(data, cols, np.searchsorted(ids, np.arange(nseg + 1)), ncols)
    ref = np.bincount(ids, weights=data * x[cols], minlength=nseg)
    flat = (ids[:, None] * k + np.arange(k)).ravel()
    ref_multi = np.bincount(
        flat, weights=(data[:, None] * X[cols]).ravel(), minlength=nseg * k
    ).reshape(nseg, k)
    return np.array_equal(S(x), ref) and np.array_equal(S(X), ref_multi)


def _fused_matvec_exact() -> bool:
    """Whether SciPy may take the cores' products (see
    :func:`_adds_in_order`); probed once per process."""
    global _FUSED_EXACT
    if _FUSED_EXACT is None:
        _FUSED_EXACT = _adds_in_order(unit=False)
    return _FUSED_EXACT


def _unit_sums_exact() -> bool:
    """Whether SciPy adds a unit-data row sequentially from +0, which
    every core's unit-data passes rely on; probed once per process.
    Without it the backend delegates every call to ``faithful``."""
    global _UNIT_EXACT
    if _UNIT_EXACT is None:
        _UNIT_EXACT = _adds_in_order(unit=True)
    return _UNIT_EXACT


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding ``counts`` entries."""
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class _Pass:
    """One CSR pass, ``y = S @ X``, run by SciPy's compiled loop.

    Row ``i`` of ``y`` adds ``data[j] * X[indices[j]]`` over the entries
    ``indptr[i]:indptr[i + 1]`` in entry order, from +0.  The index
    arrays take the dtype a ``csr_matrix`` would give them (``int32``
    when every index fits) and the data float64, once.  The loop reads
    without bounds checks, so the structure is checked here once and
    every operand's length and dtype before each call.
    """

    __slots__ = ("indptr", "indices", "data", "nrows", "ncols")

    def __init__(self, data, indices, indptr, ncols: int):
        nrows, n = indptr.shape[0] - 1, indices.shape[0]
        idx = np.int32 if max(nrows, ncols, n) <= _INT32_MAX else np.int64
        self.indptr = np.ascontiguousarray(indptr, dtype=idx)
        self.indices = np.ascontiguousarray(indices, dtype=idx)
        if (
            self.indptr[0] != 0
            or self.indptr[-1] != n
            or np.any(self.indptr[1:] < self.indptr[:-1])
            or (n and not 0 <= self.indices.min() <= self.indices.max() < ncols)
        ):
            raise FormatError("CSR pass rows or columns out of range")
        self.nrows, self.ncols = nrows, ncols
        self.data = self._checked(data)

    def _checked(self, data) -> np.ndarray:
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != self.indices.shape:
            raise FormatError(
                f"CSR pass needs {self.indices.shape[0]} values, "
                f"got shape {data.shape}"
            )
        return data

    def with_data(self, data) -> "_Pass":
        """This pass over ``data``: rows and columns shared by identity."""
        clone = copy.copy(self)
        clone.data = self._checked(data)
        return clone

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The pass over a vector or an ``(ncols, k)`` block: a fresh +0
        ``y``, then one call of the compiled loop."""
        if X.shape[0] != self.ncols or X.dtype != _F64:
            raise KernelConfigError(
                f"CSR pass needs a float64 operand of {self.ncols} rows, "
                f"got {X.dtype} {X.shape}"
            )
        if not X.flags.c_contiguous:
            X = np.ascontiguousarray(X)
        if X.ndim == 1:
            y = np.zeros(self.nrows)
            _matvec(self.nrows, self.ncols, self.indptr, self.indices, self.data,
                    X, y)
        else:
            k = X.shape[1]
            y = np.zeros((self.nrows, k))
            _matvecs(self.nrows, self.ncols, k, self.indptr, self.indices,
                     self.data, X.ravel(), y.ravel())
        return y


class _CSRCore:
    """An exact summation core: one :class:`_Pass`, or two.

    The first pass takes the products: entry ``j`` of a row multiplies
    the format's flattened values at ``slots`` (all of them, in order,
    when ``slots`` is ``None``) by row ``cols[j]`` of the operand.
    Slots that are the identity on a prefix of the values -- every
    1-wide BCCOO core's, and every w-wide one's with all slots in range
    -- are kept as that prefix, so the core reads the values in place
    instead of gathering a copy at build and on every value refresh.
    ``second``, when set, sums the first pass's rows with unit data.
    The loop adds every row's entries sequentially from +0, in entry
    order, so each core lays its entries out in the order the
    interpreter adds them.

    When :func:`_fused_matvec_exact` holds, ``first`` carries the values
    and SciPy multiplies (``data`` and ``cols`` are ``None``).  Otherwise
    the core multiplies in NumPy -- ``np.take`` of the operand's rows
    ``cols``, times ``data`` in place -- and ``first`` sums the products
    with unit data.  A unit-data pass is exact even under FMA
    contraction, since ``1.0 * p`` rounds nothing.
    """

    __slots__ = ("first", "second", "slots", "data", "cols")

    def __init__(self, values, cols, indptr, ncols, slots=None, second=None):
        self.slots = _as_prefix(slots)
        self.second = second
        data = self._data(values)
        if _fused_matvec_exact():
            self.data = self.cols = None
            self.first = _Pass(data, cols, indptr, ncols)
        else:
            n = cols.shape[0]
            self.data, self.cols = data, cols
            self.first = _Pass(np.ones(n), np.arange(n), indptr, n)

    def _data(self, values: np.ndarray) -> np.ndarray:
        return values.ravel()[self.slots]

    def refill(self, values: np.ndarray) -> "_CSRCore":
        """This core over a value-refreshed format's ``values``: one array
        changes -- the first pass's data when SciPy multiplies, the values
        NumPy multiplies by when it does not."""
        clone = copy.copy(self)
        data = self._data(values)
        if self.cols is None:
            clone.first = self.first.with_data(data)
        else:
            clone.data = data
        return clone

    def __call__(self, X: np.ndarray) -> np.ndarray:
        if self.cols is not None:
            products = np.take(X, self.cols, axis=0)
            products *= self.data if X.ndim == 1 else self.data[:, None]
            X = products
        Y = self.first(X)
        return Y if self.second is None else self.second(Y)


def _as_prefix(slots: np.ndarray | None) -> slice | np.ndarray:
    """``slots`` as a slice when it selects a prefix of the values in
    order (``None`` selects them all), else the index array itself."""
    if slots is None:
        return slice(None)
    n = slots.shape[0]
    if n == 0 or (slots[-1] == n - 1 and np.array_equal(slots, np.arange(n))):
        return slice(0, n)
    return slots


def _segment_rows(stops: np.ndarray, h: int):
    """One CSR row per (closed flag segment, lane).

    Row ``s * h + l`` lists lane ``l`` of segment ``s``'s blocks in block
    order.  Returns the row pointers and ``pos``, ``(end, h)``: the entry
    of block ``b``'s lane ``l``, for the ``end`` blocks up to the last
    row stop.  The trailing open segment (bit-flag and launch padding)
    gets no row, since the launch discards its sum.
    """
    stop_pos = np.flatnonzero(stops)
    counts = np.diff(stop_pos, prepend=-1)  # blocks per segment
    starts = stop_pos + 1 - counts
    seg = np.repeat(np.arange(stop_pos.shape[0]), counts)
    first = np.arange(seg.shape[0]) + (h - 1) * starts[seg]
    pos = first[:, None] + np.arange(h) * counts[seg][:, None]
    return _indptr(np.repeat(counts, h)), pos


def _block_core(plan: LaunchPlan, fmt) -> _CSRCore:
    """The exact CSR core of a BCCOO launch (see the module docstring).

    ``w = 1``: one pass whose row ``(s, l)`` holds lane ``l`` of segment
    ``s``'s blocks.  ``w > 1``: a block-product pass whose row ``(b, l)``
    holds block ``b``'s lane-``l`` entries in column order, then a
    unit-data segment pass whose row ``(s, l)`` adds its blocks'
    products in block order.  Gather slots past the last column are
    dropped: they would add ``v * 0``, and a zero changes no sum that
    starts from +0 (such a sum never holds -0).  Zeros inside a block
    stay entries, since ``0 * inf`` is NaN.
    """
    h, w = fmt.block_height, fmt.block_width
    indptr, pos = _segment_rows(plan.padded.stops, h)
    end = pos.shape[0]
    # Entry pos[b, l] of the segment rows adds (block, lane) b * h + l.
    members = np.empty(end * h, dtype=np.int64)
    members[pos] = np.arange(end * h).reshape(end, h)
    if w == 1:
        # Every real block's single gather slot is in range.
        cols = np.empty(end * h, dtype=np.int64)
        cols[pos] = plan.safe[:end]
        return _CSRCore(fmt.values, cols, indptr, fmt.ncols, slots=members)
    segments = _Pass(np.ones(end * h), members, indptr, end * h)
    valid = (
        np.ones((end, w), dtype=bool)
        if plan.invalid is None
        else ~plan.invalid[:end]
    )
    # Entries in (block, lane, j) order: each block's slots once per lane.
    keep = np.repeat(valid, h, axis=0).ravel()
    cols = np.repeat(plan.safe[:end], h, axis=0).ravel()[keep]
    return _CSRCore(
        fmt.values,
        cols,
        _indptr(np.repeat(valid.sum(axis=1), h)),
        fmt.ncols,
        slots=np.flatnonzero(keep),
        second=segments,
    )


class _Cored:
    """A cached plan that sums with its :class:`_CSRCore`, ``core``."""

    __slots__ = ()

    def derive(self, new_fmt):
        """Plan for a value-only rebuild of this plan's format.

        ``new_fmt`` shares the structural arrays (flags, columns, row
        map) with the original, so everything but the core's data carries
        over by identity -- the whole point of the incremental re-prepare
        path.
        """
        clone = copy.copy(self)
        clone.core = self.core.refill(new_fmt.values)
        return clone


class FastPlan(_Cored, LaunchPlan):
    """A cached :class:`~repro.kernels.yaspmv.LaunchPlan` for one
    (format, config), with its CSR core.

    A plan holds no reference to its format: the backend caches it under
    a weak reference to the format, which a strong one would pin for the
    life of the process.  ``padded.values`` and ``padded.cols`` are
    ``None``: the core holds the values it reads, and ``safe`` the
    gather map built from the columns.
    """

    __slots__ = ("core",)

    def __init__(self, fmt, cfg):
        super().__init__(fmt, cfg)
        self.core = _block_core(self, fmt)
        self.padded = replace(self.padded, values=None, cols=None)


class FastMergePlan(_Cored, MergePlan):
    """A cached :class:`~repro.kernels.merge_path.MergePlan` with its
    stream as one CSR: row ``r`` holds its elements in stream order,
    which the team loop also adds in (carries included).
    """

    __slots__ = ("core",)

    def __init__(self, fmt, cfg):
        super().__init__(fmt, cfg)
        counts = np.bincount(self.rows, minlength=fmt.nrows)
        self.core = _CSRCore(fmt.values, self.cols, _indptr(counts), fmt.ncols)


class FastRowGroupPlan(_Cored, RowGroupPlan):
    """A cached :class:`~repro.kernels.row_grouped.RowGroupPlan` with its
    lane stream as one CSR: row ``r`` holds its valid lane slots, lane
    ascending -- the exact addition sequence of the faithful kernel's
    per-group lane loop.
    """

    __slots__ = ("core",)

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
        order = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        # Packed rows hold each row's lanes in order; a stable sort by
        # row keeps that order within each row.
        row_ids = np.repeat(fmt.row_perm, fmt.row_lengths)
        slots = order[np.argsort(row_ids, kind="stable")]
        counts = np.bincount(row_ids, minlength=fmt.nrows)
        self.core = _CSRCore(
            fmt.values, self.cols[slots], _indptr(counts), fmt.ncols, slots=slots
        )


def _segment_sums(plan: FastPlan, X: np.ndarray) -> np.ndarray:
    """Per-row-stop sums: the core's rows ``(stop, lane)``,
    ``(n_stops, h)`` or ``(n_stops, h * k)``, in the C order the
    launch's layout reads."""
    return plan.core(X)


def _row_sums(plan, fmt, X: np.ndarray) -> np.ndarray:
    """Merge-path CSR and RG-CSR: ``y`` itself, one core row per matrix
    row."""
    return plan.core(X)


# Every core sums a whole ``(ncols, k)`` block in one call; see
# :meth:`repro.kernels.base.SpMVKernel._launch`.
_segment_sums.takes_block = True
_row_sums.takes_block = True


def _delegated() -> bool:
    """Whether a call runs on ``faithful``: under a fault plan, which
    perturbs the decoded per-launch state a cached plan cannot see, or
    when this SciPy build's unit-data sums are not exact."""
    return active_plan() is not None or not _unit_sums_exact()


class FastBackend(ExecutionBackend):
    """All-workgroups-at-once vectorized execution."""

    name = "fast"

    def __init__(self):
        self._faithful = FaithfulBackend()
        #: What this backend hands each kernel's launch, by kernel name:
        #: the class of its cached plan and its summation core.
        self._cores = {
            "yaspmv": (FastPlan, _segment_sums),
            "merge_csr": (FastMergePlan, _row_sums),
            "rgcsr": (FastRowGroupPlan, _row_sums),
        }
        # fmt instance -> {config: plan}; weak-keyed so plans die with
        # their format.
        self._plans = weakref.WeakKeyDictionary()
        # fmt instance -> {(config, device, k): bound launch}, beside
        # the plans; a launch holds its plan, never its format.
        self._launches = weakref.WeakKeyDictionary()
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

    def _bound(
        self, kern, fmt, device: DeviceSpec, cfg, k, clocked: bool = True
    ) -> BoundLaunch:
        """The launch of ``fmt`` on ``device`` for a vector (``k`` is
        ``None``) or a block of ``k`` columns, bound once per (plan,
        device, ``k``) and kept with its simulated clock.

        Keys hold the frozen :class:`DeviceSpec` value, not its name: a
        ``with_overrides`` copy that keeps the name is another device.  A
        bind that raises stores nothing, so the next call raises again.
        Threads racing on a miss bind equal launches; one is kept.  A
        BCCOO+ launch binds its stacked matrix's, unclocked, and folds
        the slice-combine profile in per launch.
        """
        launches = self._launches.get(fmt)
        key = (cfg, device, k)
        launch = None if launches is None else launches.get(key)
        if launch is not None:
            return launch
        if isinstance(fmt, BCCOOPlusMatrix):
            # Kept under the stacked matrix, so a BCCOO+ call always
            # lands here.
            inner = self._bound(kern, fmt.stacked, device, cfg, k, clocked=False)
            return kern._fold(fmt, inner, device, k)
        plan_cls, sums = self._cores[kern.name]
        plan = self._plan_for(plan_cls, fmt, cfg)
        launch = kern._bind(fmt, device, cfg, lambda f, c: plan, sums, k)
        if clocked:
            launch.clock = TimingModel(device).estimate(launch.stats)
        with self._plans_lock:
            launches = self._launches.setdefault(fmt, {})
            return launches.setdefault(key, launch)

    def plan_count(self) -> int:
        """Live cached plans (introspection/tests)."""
        with self._plans_lock:
            return sum(len(d) for d in self._plans.values())

    def refresh_values(self, old_fmt, new_fmt) -> int:
        """Migrate cached plans from ``old_fmt`` to its value-swapped twin.

        Every plan cached for ``old_fmt`` is ``derive``-d onto
        ``new_fmt`` -- the gather map and the core's rows carry over by
        identity, only the core's data change -- and every bound launch
        is rebound to the derived plan, keeping its profile, clock and
        layout.  The next multiply on ``new_fmt`` then hits the
        cache instead of re-deriving the launch state.
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
            for cfg, plan in per_fmt.items():
                if cfg not in dest:
                    dest[cfg] = plan.derive(new_fmt)
                    migrated += 1
            launches = self._launches.get(old_fmt)
            if launches:
                bound = self._launches.setdefault(new_fmt, {})
                for key, launch in launches.items():
                    if key not in bound:
                        bound[key] = launch.rebind(dest[key[0]])
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
        if _delegated():
            return self._faithful.execute(fmt, x, device, config)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            x = x.ravel()
        return self._dispatch(fmt, x, device, config, "backend.fast")

    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        if _delegated():
            return self._faithful.execute_multi(fmt, X, device, config)
        X = SpMVKernel._check_block(X)
        return self._dispatch(fmt, X, device, config, "backend.fast_multi")

    def _dispatch(self, fmt, X, device, config, span: str) -> KernelResult:
        """Apply the format's bound launch to ``X``; the result carries
        the launch's memoized clock (none for BCCOO+, see
        :meth:`_bound`)."""
        kern = kernel_for(fmt)
        cfg = kern._coerce_config(config)
        k = None if X.ndim == 1 else X.shape[1]
        obs = active_observer()
        if not obs.enabled:
            return self._bound(kern, fmt, device, cfg, k).apply(fmt, X)
        label = "yaspmm" if k is not None and kern.name == "yaspmv" else kern.name
        with obs.span(
            span, format=type(fmt).__name__, workgroup_size=cfg.workgroup_size
        ) as sp:
            result = self._bound(kern, fmt, device, cfg, k).apply(fmt, X)
            kern._observe(obs, sp, label, result.stats)
        return result
