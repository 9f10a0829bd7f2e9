"""Kernel interface and registry.

A *kernel* is a simulated-GPU SpMV implementation: it computes the exact
numerical result the corresponding OpenCL/CUDA kernel would produce and
a :class:`repro.gpu.KernelStats` cost profile for the timing model.

Kernels are pure functions of ``(format_instance, x, device, config)``;
they never mutate the format.  Each kernel registers itself so the
engine and auto-tuner can enumerate them.

Every kernel shares one execution protocol::

    kernel.run(fmt, x, device, config=kernel.config_cls(...))

``config`` is keyword-only and must be an instance of the kernel's
:attr:`~SpMVKernel.config_cls` (a small frozen dataclass;
:class:`BaselineConfig` for the comparator kernels,
:class:`~repro.kernels.config.YaSpMVConfig` for yaSpMV).  Omitting it
runs the kernel's defaults.  The pre-unification loose-kwargs calling
convention was removed after its one-release deprecation window; passing
unknown keyword arguments is now a :class:`TypeError`.

Every execution reports through the ambient observer (see
:mod:`repro.obs`): a ``kernel.<name>`` span wrapping :meth:`_execute`
plus launch counters.  With the default null observer the hooks cost a
thread-local read and nothing else.

The kernels that run a plan-based launch (yaSpMV, merge-path CSR,
row-grouped CSR) split it in two.  :meth:`SpMVKernel._bind` does the
x-independent part -- the configuration, workgroup and resource checks,
the plan and its decode checks, the cost profile and the layout of
``y`` -- and returns a :class:`BoundLaunch`, whose
:meth:`~BoundLaunch.apply` does the rest for one operand: the vector
length check, the summation core and the reshape or scatter into ``y``.
A launch is a bind, then an apply.  :meth:`SpMVKernel.profile` is the
bind alone, which is what the auto-tuner ranks candidates on.
"""

from __future__ import annotations

import abc
import copy
import threading
import weakref
from dataclasses import dataclass, replace
from typing import Any, ClassVar

import numpy as np

from ..errors import KernelConfigError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingBreakdown
from ..obs import active_observer

__all__ = [
    "BaselineConfig",
    "BoundLaunch",
    "KernelResult",
    "RowKernel",
    "SpMVKernel",
    "StreamProfile",
    "register_kernel",
    "get_kernel",
    "available_kernels",
]


@dataclass(frozen=True)
class BaselineConfig:
    """Launch configuration shared by the baseline (comparator) kernels.

    The comparators expose a single knob -- the workgroup size -- so this
    is deliberately minimal; kernels with richer spaces (yaSpMV) declare
    their own ``config_cls``.
    """

    workgroup_size: int = 256

    def with_overrides(self, **kw) -> "BaselineConfig":
        """Copy with fields replaced."""
        return replace(self, **kw)


@dataclass
class KernelResult:
    """Output of one simulated kernel execution.

    ``breakdown`` is the launch's simulated clock when the backend
    already holds it (a ``fast`` bound launch keeps it); ``None`` means
    the caller estimates it from ``stats``.
    """

    y: np.ndarray
    stats: KernelStats
    breakdown: TimingBreakdown | None = None

    def __iter__(self):
        # Allow ``y, stats = kernel.run(...)``.
        yield self.y
        yield self.stats


class BoundLaunch(abc.ABC):
    """A plan-based launch with its x-independent part done.

    :meth:`SpMVKernel._bind` makes one: ``plan`` is the launch plan,
    ``sums`` the summation core (``None`` for a profile-only launch) and
    ``stats`` the cost profile.  ``clock`` is the simulated clock a
    backend memoized with the launch, or ``None`` when the caller
    estimates it.  :meth:`apply` runs the x-dependent part and returns
    the :class:`KernelResult`, whose ``stats`` is this launch's profile
    itself: ``fast`` shares one profile between every call of a bound
    launch, so callers must not mutate it.

    A launch holds no format: :meth:`apply` takes it, so a launch cached
    under a weak reference to its format cannot pin it.
    """

    __slots__ = ("plan", "sums", "stats", "clock")

    def __init__(self, plan, sums, stats: KernelStats):
        self.plan = plan
        self.sums = sums
        self.stats = stats
        self.clock: TimingBreakdown | None = None

    @abc.abstractmethod
    def apply(self, fmt, X: np.ndarray) -> KernelResult:
        """Run the launch on ``X``, a vector or an ``(ncols, k)`` block
        of the width it was bound for."""

    def rebind(self, plan) -> "BoundLaunch":
        """This launch over ``plan``, the plan of a value-refreshed twin of
        its format: the profile, clock and layout carry over."""
        clone = copy.copy(self)
        clone.plan = plan
        return clone


class RowLaunch(BoundLaunch):
    """A bound launch whose core returns ``y`` itself: merge-path CSR and
    RG-CSR, one row per matrix row."""

    __slots__ = ("ncols",)

    def __init__(self, plan, sums, stats: KernelStats, ncols: int):
        super().__init__(plan, sums, stats)
        self.ncols = ncols

    def apply(self, fmt, X: np.ndarray) -> KernelResult:
        if X.shape[0] != self.ncols:
            raise KernelConfigError(
                f"vector length {X.shape[0]} != matrix columns {self.ncols}"
                if X.ndim == 1
                else f"X must have shape ({self.ncols}, k), got {X.shape}"
            )
        return KernelResult(self.sums(self.plan, fmt, X), self.stats, self.clock)


class SpMVKernel(abc.ABC):
    """Base class for simulated SpMV kernels.

    Subclasses implement :meth:`_execute`, receiving an already-coerced
    ``config_cls`` instance; :meth:`run` is the single public entry
    point and handles config validation plus observability.
    """

    #: Registry key, e.g. ``"yaspmv"``.
    name: ClassVar[str] = ""
    #: Format registry name this kernel executes.
    format_name: ClassVar[str] = ""
    #: Dataclass type of this kernel's launch configuration.
    config_cls: ClassVar[type] = BaselineConfig
    #: The per-call launch plan of a plan-based kernel (``None`` for the
    #: comparators, which have no :meth:`profile`).
    plan_cls: ClassVar[type | None] = None

    def run(
        self,
        fmt: SparseFormat,
        x: np.ndarray,
        device: DeviceSpec,
        *,
        config: Any | None = None,
    ) -> KernelResult:
        """Execute SpMV; returns exact ``y`` plus the cost profile.

        ``config`` must be an instance of :attr:`config_cls` (defaults
        are used when omitted).
        """
        cfg = self._coerce_config(config)
        obs = active_observer()
        if not obs.enabled:
            return self._execute(fmt, x, device, cfg)
        label = self.name or type(self).__name__
        with obs.span(
            f"kernel.{label}",
            kernel=label,
            format=type(fmt).__name__,
            workgroup_size=cfg.workgroup_size,
        ) as sp:
            result = self._execute(fmt, x, device, cfg)
            self._observe(obs, sp, label, result.stats)
        return result

    def profile(
        self,
        fmt: SparseFormat,
        device: DeviceSpec,
        *,
        config: Any | None = None,
    ) -> KernelStats:
        """The cost profile of one single-vector launch, without its sums.

        Binds the launch :meth:`run` runs -- every configuration, resource
        and decode check, and a plan built per call under the fault
        hooks -- but applies it to no vector.  The profile equals
        ``run(...).stats`` field for field, and a configuration that
        raises raises the same error.
        """
        if self.plan_cls is None:
            raise KernelConfigError(
                f"{type(self).__name__} has no profile-only launch"
            )
        cfg = self._coerce_config(config)
        return self._bind(fmt, device, cfg, self._profile_plan(), None).stats

    def _profile_plan(self):
        """The plan a profile-only launch builds: :attr:`plan_cls`, unless
        the kernel has a cheaper one for launches that compute no sums."""
        return self.plan_cls

    @staticmethod
    def _observe(obs, sp, label: str, stats: KernelStats) -> None:
        """Feed one execution's cost profile to the active observer."""
        sp.set(
            n_launches=stats.n_launches,
            n_workgroups=stats.n_workgroups,
            dram_read_bytes=stats.dram_read_bytes,
            dram_write_bytes=stats.dram_write_bytes,
            cached_read_bytes=stats.cached_read_bytes,
            flops=stats.flops,
        )
        obs.counter(
            "kernel.executions", "simulated kernel executions"
        ).inc(kernel=label)
        obs.counter(
            "kernel.launches", "simulated device launches"
        ).inc(stats.n_launches, kernel=label)
        obs.counter(
            "kernel.atomics", "logical-id atomics issued"
        ).inc(stats.atomics, kernel=label)

    @abc.abstractmethod
    def _execute(
        self,
        fmt: SparseFormat,
        x: np.ndarray,
        device: DeviceSpec,
        config,
    ) -> KernelResult:
        """Kernel body; ``config`` is a validated ``config_cls`` instance."""

    # ------------------------------------------------------------------ #

    def _coerce_config(self, config):
        """Validate ``config``, defaulting to the kernel's ``config_cls``."""
        if config is None:
            return self.config_cls()
        if not isinstance(config, self.config_cls):
            raise KernelConfigError(
                f"{type(self).__name__}.run() needs a "
                f"{self.config_cls.__name__} config, got {type(config).__name__}"
            )
        return config

    @staticmethod
    def _expect(fmt, cls):
        """``fmt``, checked to be the format class this kernel executes."""
        if not isinstance(fmt, cls):
            raise KernelConfigError(
                f"kernel expects {cls.__name__}, got {type(fmt).__name__}"
            )
        return fmt

    @staticmethod
    def _check_block(X) -> np.ndarray:
        """A multi-RHS operand as float64 ``(ncols, k)`` with ``k >= 1``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise KernelConfigError(
                f"X must be 2-D (ncols, k), got shape {X.shape}"
            )
        if X.shape[1] < 1:
            raise KernelConfigError("X needs at least one column")
        return X

    def _bind(
        self, fmt, device: DeviceSpec, cfg, plan_for, sums, k: int | None = None
    ) -> BoundLaunch:
        """The x-independent part of one launch of a plan-based kernel, on
        a vector (``k`` is ``None``) or a ``(ncols, k)`` block.

        ``plan_for(fmt, cfg)`` returns the launch plan and ``sums`` is the
        summation core the launch applies (``None``: profile-only).
        """
        raise KernelConfigError(f"{type(self).__name__} has no plan-based launch")

    def _launch(
        self, fmt, X: np.ndarray, device: DeviceSpec, cfg, plan_for, sums
    ) -> KernelResult:
        """One launch: :meth:`_bind`, then :meth:`BoundLaunch.apply`.  A
        block whose summation core is not marked ``takes_block`` runs as
        one launch per column."""
        if X.ndim == 2 and not getattr(sums, "takes_block", False):
            return self._launch_columns(fmt, X, device, cfg, plan_for, sums)
        k = None if X.ndim == 1 else X.shape[1]
        return self._bind(fmt, device, cfg, plan_for, sums, k).apply(fmt, X)

    def _launch_columns(
        self, fmt, X: np.ndarray, device: DeviceSpec, config, plan_for, sums
    ) -> KernelResult:
        """SpMM as one ``_launch`` per column, each on that column's own
        plan, so fault hooks fire per launch; the cost profiles chain as
        sequential launches.  ``self`` provides ``max_batch_width``.
        """
        if X.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"X must have shape ({fmt.ncols}, k), got {X.shape}"
            )
        k = X.shape[1]
        self._check_batch_width(fmt, device, config, k)
        Y = np.empty((fmt.nrows, k), dtype=np.float64)
        stats = None
        for j in range(k):
            res = self._launch(fmt, X[:, j], device, config, plan_for, sums)
            Y[:, j] = res.y
            stats = res.stats if stats is None else stats.sequential(res.stats)
        return KernelResult(y=Y, stats=stats)

    def _check_batch_width(self, fmt, device: DeviceSpec, config, k: int) -> None:
        limit = self.max_batch_width(fmt, device, config)
        if k > limit:
            raise KernelConfigError(
                f"batch width {k} exceeds device limit {limit}"
            )

    @staticmethod
    def _check_workgroup(workgroup_size: int, device: DeviceSpec) -> None:
        if workgroup_size < device.warp_size:
            raise KernelConfigError(
                f"workgroup size {workgroup_size} below warp size {device.warp_size}"
            )
        if workgroup_size % device.warp_size != 0:
            raise KernelConfigError(
                f"workgroup size {workgroup_size} must be a multiple of the "
                f"warp size {device.warp_size}"
            )
        if workgroup_size > device.max_workgroup_size:
            raise KernelConfigError(
                f"workgroup size {workgroup_size} exceeds device limit "
                f"{device.max_workgroup_size}"
            )


class RowKernel(SpMVKernel):
    """A plan-based kernel over a stream format whose summation core
    returns ``y`` itself, one row per matrix row: merge-path CSR and
    RG-CSR.  Unregistered; each subclass names its :attr:`format_cls`,
    :attr:`~SpMVKernel.plan_cls` and :attr:`sums`.
    """

    #: The format class this kernel executes.
    format_cls: ClassVar[type]
    #: ``faithful``'s summation core, ``sums(plan, fmt, X)``; set it as a
    #: ``staticmethod``.
    sums: ClassVar[Any]

    def _execute(self, fmt, x: np.ndarray, device: DeviceSpec, cfg) -> KernelResult:
        x = np.asarray(x, dtype=np.float64).ravel()
        return self._launch(fmt, x, device, cfg, self.plan_cls, self.sums)

    def run_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        *,
        config=None,
    ) -> KernelResult:
        """SpMM ``Y = A @ X``: one pass of the summation core per
        right-hand side."""
        cfg = self._coerce_config(config)
        X = self._check_block(X)
        return self._launch(fmt, X, device, cfg, self.plan_cls, self.sums)

    def _bind(
        self, fmt, device: DeviceSpec, cfg, plan_for, sums, k: int | None = None
    ) -> RowLaunch:
        """Bind one launch: a vector when ``k`` is ``None``, else a block
        of ``k`` columns, which reports the profile of ``k`` chained
        launches.

        ``plan_for(fmt, cfg)`` returns the plan and ``sums(plan, fmt, x)``
        the result the launch applies.
        """
        fmt = self._expect(fmt, self.format_cls)
        self._check_workgroup(cfg.workgroup_size, device)
        if k is not None:
            self._check_batch_width(fmt, device, cfg, k)
        plan = plan_for(fmt, cfg)
        stats = one = plan.stats(fmt, device)
        for _ in range(1, k or 1):
            stats = stats.sequential(one)
        return RowLaunch(plan, sums, stats, fmt.ncols)


class StreamProfile:
    """What every launch of one merge-path CSR or RG-CSR format derives
    alike, computed once per format and kept for its lifetime.

    ``decoded`` is the stream the kernel decodes and checks (merge-path
    CSR: each element's row; RG-CSR: the lane validity mask), set by the
    kernel on the first launch that runs with no fault plan active, and
    read-only.  ``traffic`` maps each read model -- value bytes, texture
    cache size, line size and whether the texture path is used -- to the
    cache-model traffic of the format's column stream, which every
    workgroup size shares.  Under a fault plan each launch still decodes
    its own perturbed copy.

    Profiles are weak-keyed on their formats, so a profile dies with its
    format, and a profile holds no reference to one.
    """

    __slots__ = ("decoded", "traffic")

    def __init__(self):
        self.decoded: np.ndarray | None = None
        self.traffic: dict[tuple, tuple] = {}

    @classmethod
    def of(cls, fmt) -> "StreamProfile":
        """``fmt``'s profile, made on first use."""
        profile = _STREAM_PROFILES.get(fmt)
        if profile is None:
            with _STREAM_PROFILES_LOCK:
                profile = _STREAM_PROFILES.setdefault(fmt, cls())
        return profile


_STREAM_PROFILES: "weakref.WeakKeyDictionary[SparseFormat, StreamProfile]" = (
    weakref.WeakKeyDictionary()
)
_STREAM_PROFILES_LOCK = threading.Lock()


_REGISTRY: dict[str, SpMVKernel] = {}


def register_kernel(cls: type[SpMVKernel]) -> type[SpMVKernel]:
    """Class decorator: instantiate and register the kernel."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate kernel name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def get_kernel(name: str) -> SpMVKernel:
    """Look up a registered kernel instance by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelConfigError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_kernels() -> dict[str, SpMVKernel]:
    """Read-only view of the kernel registry."""
    return dict(_REGISTRY)
