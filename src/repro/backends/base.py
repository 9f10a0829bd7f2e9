"""Execution-backend protocol.

A *backend* decides **how** a prepared format is executed; the format,
the launch configuration and the cost model stay identical across
backends, and so -- bit for bit -- does the output vector:

* ``faithful`` runs the workgroup-interpreting kernels exactly as the
  paper describes them (the correctness anchor);
* ``fast`` vectorizes across all workgroups at once (SciPy CSR passes
  laid out in the interpreter's addition order, no per-workgroup
  Python) and is pinned bit-identical to ``faithful``.

Both run each format's launch through the same kernel, found in one
format->kernel table (:func:`kernel_for`); a backend supplies only the
launch plan and the summation core.  The two instances live in a fixed
table behind :func:`repro.backends.get_backend`.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from ..errors import KernelConfigError
from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from ..gpu.device import DeviceSpec
from ..kernels.base import KernelResult, SpMVKernel, get_kernel

__all__ = ["ExecutionBackend", "kernel_for"]

#: The kernel that runs each executable format; BCCOO+ runs on the BCCOO
#: kernel, which folds its slices.
_KERNELS: dict[type, SpMVKernel] = {
    BCCOOMatrix: get_kernel("yaspmv"),
    BCCOOPlusMatrix: get_kernel("yaspmv"),
    MergeCSRMatrix: get_kernel("merge_csr"),
    RGCSRMatrix: get_kernel("rgcsr"),
}


def kernel_for(fmt) -> SpMVKernel:
    """The kernel whose launch executes ``fmt``."""
    try:
        return _KERNELS[type(fmt)]
    except KeyError:
        raise KernelConfigError(
            f"no kernel executes {type(fmt).__name__}; executable formats: "
            f"{', '.join(cls.__name__ for cls in _KERNELS)}"
        ) from None


class ExecutionBackend(abc.ABC):
    """How SpMV launches execute; output is backend-invariant.

    ``execute``/``execute_multi`` take the same ``(fmt, x/X, device,
    config)`` quadruple as the kernel run protocol.
    """

    #: Table key, e.g. ``"fast"``.
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        """Run ``y = A @ x`` on ``fmt``; exact result + cost profile."""

    @abc.abstractmethod
    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        """Run ``Y = A @ X`` for ``X`` of shape ``(ncols, k)``."""

    def refresh_values(self, old_fmt, new_fmt) -> int:
        """Migrate cached execution state after a value-only rebuild.

        ``new_fmt`` shares ``old_fmt``'s structural arrays (see
        ``BCCOOMatrix.with_values``); a backend holding derived plans
        keyed on ``old_fmt`` may re-point the structural parts and swap
        only the value payload instead of re-deriving from scratch.
        Returns the number of plans migrated; the default (stateless
        backends) is a no-op.
        """
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
