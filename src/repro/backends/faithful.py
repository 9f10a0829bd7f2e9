"""The faithful backend: the workgroup-interpreting kernels, unchanged.

This is the correctness anchor every other backend is pinned against.
It runs each format's kernel (:func:`repro.backends.base.kernel_for`)
through its public ``run``/``run_multi``: the kernel builds its launch
plan on every call, under the fault-injection hooks, and sums with its
reference core -- ``segment_sums_by_stops`` or the Grp_sum chain under
sync-targeting fault plans for BCCOO/BCCOO+, the team loop for
merge-path CSR, the lane loop for RG-CSR.  ``backend="faithful"`` is
exactly the engine's historical behaviour.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..kernels.base import KernelResult
from .base import ExecutionBackend, kernel_for

__all__ = ["FaithfulBackend"]


class FaithfulBackend(ExecutionBackend):
    """Workgroup-by-workgroup interpretation (the paper's dataflow)."""

    name = "faithful"

    def execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        return kernel_for(fmt).run(fmt, x, device, config=config)

    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        return kernel_for(fmt).run_multi(fmt, X, device, config=config)
