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
module-global read and nothing else.

The kernels that run a plan-based launch (yaSpMV, merge-path CSR,
row-grouped CSR) also offer :meth:`SpMVKernel.profile`: the same launch
without its sums, which is what the auto-tuner ranks candidates on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, ClassVar

import numpy as np

from ..errors import KernelConfigError
from ..formats.base import SparseFormat
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec
from ..obs import active_observer

__all__ = [
    "BaselineConfig",
    "KernelResult",
    "SpMVKernel",
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
    """Output of one simulated kernel execution."""

    y: np.ndarray
    stats: KernelStats

    def __iter__(self):
        # Allow ``y, stats = kernel.run(...)``.
        yield self.y
        yield self.stats


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

        Runs the launch :meth:`run` runs -- every configuration, resource
        and decode check, and a plan built per call under the fault
        hooks -- but computes no ``y``, so it needs no vector.  The
        profile equals ``run(...).stats`` field for field, and a
        configuration that raises raises the same error.
        """
        if self.plan_cls is None:
            raise KernelConfigError(
                f"{type(self).__name__} has no profile-only launch"
            )
        cfg = self._coerce_config(config)
        return self._launch(fmt, None, device, cfg, self.plan_cls, None).stats

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

    def _launch_columns(
        self, fmt, X: np.ndarray, device: DeviceSpec, config, plan_for, sums
    ) -> KernelResult:
        """SpMM as one ``_launch`` per column, for kernels whose format has
        no batched dataflow; the cost profiles chain as sequential
        launches.  ``self`` provides ``_launch`` and ``max_batch_width``.
        """
        if X.shape[0] != fmt.ncols:
            raise KernelConfigError(
                f"X must have shape ({fmt.ncols}, k), got {X.shape}"
            )
        k = X.shape[1]
        limit = self.max_batch_width(fmt, device, config)
        if k > limit:
            raise KernelConfigError(
                f"batch width {k} exceeds device limit {limit}"
            )
        Y = np.empty((fmt.nrows, k), dtype=np.float64)
        stats = None
        for j in range(k):
            res = self._launch(fmt, X[:, j], device, config, plan_for, sums)
            Y[:, j] = res.y
            stats = res.stats if stats is None else stats.sequential(res.stats)
        return KernelResult(y=Y, stats=stats)

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
