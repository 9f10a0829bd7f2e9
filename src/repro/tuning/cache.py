"""Caches that make auto-tuning fast (paper section 4, accelerations 1-2).

* :class:`KernelPlanCache` reproduces "we cache compiled kernels in a
  hash table so that they can be reused for different matrices": a
  *plan* stands in for a compiled OpenCL binary; the first request for a
  plan key pays a simulated compile cost, later requests are free.  The
  cache is keyed on everything the code generator would specialize on
  (``TuningPoint.plan_key``) and deliberately **not** on the matrix.
* :class:`FormatCache` memoizes format conversions per matrix so the
  tuner converts once per block-dimension choice, not once per kernel
  configuration (the paper's GPU-accelerated conversion plays the same
  role: making conversion cost negligible next to kernel evaluation).
  Its builder, :func:`build_format`, is also the one ``prepare`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from .parameters import TuningPoint

__all__ = ["CompiledPlan", "KernelPlanCache", "FormatCache", "build_format"]

#: Simulated OpenCL JIT cost per distinct kernel specialization, seconds.
#: The paper's 12.8 s average tuning time is dominated by compilation;
#: this constant lets the tuner report comparable simulated totals.
DEFAULT_COMPILE_COST_S = 0.15


@dataclass(frozen=True)
class CompiledPlan:
    """Stand-in for one compiled kernel binary."""

    key: tuple
    compile_cost_s: float


@dataclass
class KernelPlanCache:
    """Hash-table cache of compiled kernel plans.

    ``get`` returns ``(plan, was_hit)``; statistics feed the tuning-time
    benchmark (how much the cache saves across the matrix suite).
    """

    compile_cost_s: float = DEFAULT_COMPILE_COST_S
    _plans: dict[tuple, CompiledPlan] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, point: TuningPoint) -> tuple[CompiledPlan, bool]:
        key = point.plan_key()
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan, True
        plan = CompiledPlan(key=key, compile_cost_s=self.compile_cost_s)
        self._plans[key] = plan
        self.misses += 1
        return plan, False

    @property
    def simulated_compile_time_s(self) -> float:
        """Total simulated JIT time actually paid (misses only)."""
        return self.misses * self.compile_cost_s

    @property
    def simulated_time_saved_s(self) -> float:
        """JIT time avoided thanks to the cache (hits)."""
        return self.hits * self.compile_cost_s

    def __len__(self) -> int:
        return len(self._plans)


def build_format(csr, point: TuningPoint):
    """Convert ``csr`` to the format ``point`` describes -- the one
    point->format builder (the tuner's :class:`FormatCache` and
    ``SpMVEngine.prepare`` both call it)."""
    if point.base_format == "merge_csr":
        return MergeCSRMatrix.from_scipy(csr)
    if point.base_format == "rgcsr":
        return RGCSRMatrix.from_scipy(csr)
    kwargs = dict(
        block_height=point.block_height,
        block_width=point.block_width,
        bit_word_dtype=point.bit_word_dtype,
        col_storage="auto" if point.col_compress else "int32",
        delta_tile_size=point.kernel.effective_tile,
    )
    if point.slice_count > 1:
        return BCCOOPlusMatrix.from_scipy(
            csr, slice_count=point.slice_count, **kwargs
        )
    return BCCOOMatrix.from_scipy(csr, **kwargs)


class FormatCache:
    """Per-matrix memoization of :func:`build_format` conversions."""

    def __init__(self, matrix):
        self._matrix = matrix
        self._built: dict[tuple, object] = {}
        self.conversions = 0

    def get(self, point: TuningPoint):
        key = point.format_key()
        fmt = self._built.get(key)
        if fmt is not None:
            return fmt
        fmt = build_format(self._matrix, point)
        self._built[key] = fmt
        self.conversions += 1
        return fmt
