"""The faithful backend: the workgroup-interpreting kernels, unchanged.

This is the correctness anchor every other backend is pinned against.
It delegates straight to the per-format interpreter kernels --
:class:`repro.kernels.yaspmv.YaSpMVKernel` / ``YaSpMMKernel`` for
BCCOO/BCCOO+, :class:`repro.kernels.merge_path.MergePathKernel` for
merge-path CSR, :class:`repro.kernels.row_grouped.RowGroupedKernel` for
RG-CSR -- per-workgroup dataflow, fault-injection hooks, the Grp_sum
chain under sync-targeting fault plans -- so ``backend="faithful"`` is
exactly the engine's historical behaviour.
"""

from __future__ import annotations

import numpy as np

from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from ..gpu.device import DeviceSpec
from ..kernels.base import KernelResult
from ..kernels.merge_path import MergePathKernel
from ..kernels.row_grouped import RowGroupedKernel
from ..kernels.yaspmv import YaSpMMKernel, YaSpMVKernel
from .base import ExecutionBackend

__all__ = ["FaithfulBackend"]


class FaithfulBackend(ExecutionBackend):
    """Workgroup-by-workgroup interpretation (the paper's dataflow)."""

    name = "faithful"

    def __init__(self):
        self._kernel = YaSpMVKernel()
        self._kernel_multi = YaSpMMKernel()
        self._merge = MergePathKernel()
        self._rg = RowGroupedKernel()

    def execute(
        self,
        fmt,
        x: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        if isinstance(fmt, MergeCSRMatrix):
            return self._merge.run(fmt, x, device, config=config)
        if isinstance(fmt, RGCSRMatrix):
            return self._rg.run(fmt, x, device, config=config)
        return self._kernel.run(fmt, x, device, config=config)

    def execute_multi(
        self,
        fmt,
        X: np.ndarray,
        device: DeviceSpec,
        config=None,
    ) -> KernelResult:
        if isinstance(fmt, MergeCSRMatrix):
            return self._merge.run_multi(fmt, X, device, config=config)
        if isinstance(fmt, RGCSRMatrix):
            return self._rg.run_multi(fmt, X, device, config=config)
        return self._kernel_multi.run_multi(fmt, X, device, config)

    def capabilities(self) -> dict:
        caps = super().capabilities()
        caps["vectorized"] = False
        caps["fault_sites"] = True
        return caps
