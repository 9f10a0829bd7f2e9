"""Model-driven candidate pre-filtering for the auto-tuner.

The paper's framework evaluates every pruned candidate by running its
kernel (section 4); it cites Choi et al. [7] for the alternative --
*model-driven* auto-tuning, where an analytical performance model ranks
configurations first.  This module provides that extension: a closed-
form cost predictor needing only cheap per-matrix statistics (no kernel
execution, no vector gather), and :class:`ModelDrivenTuner`, which
ranks the pruned space with the predictor and hands only the top
fraction to the auto-tuner's one evaluation path
(:func:`~repro.tuning.evaluate.evaluate_candidates`).

The predictor mirrors the timing model's dominant terms:

* value/index/flag stream bytes from the block-dimension fill ratio
  (measured once per (h, w) during block-candidate scoring),
* a vector-traffic estimate from the matrix's column span vs. the
  texture cache (slice-count aware, so BCCOO+ candidates are ranked
  sensibly),
* launch and combine overheads.

It deliberately ignores second-order effects (spills, scan skips,
chain shapes) -- those are what the real evaluations of the surviving
candidates are for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import TuningError
from ..formats.blocking import block_keys_by_dim
from ..gpu.device import DeviceSpec
from ..util import as_csr, canonical_csr, ceil_div
from .cache import KernelPlanCache
from .evaluate import evaluate_candidates
from .parameters import TuningPoint
from .space import pruned_space
from .tuner import TuningResult, _fold

__all__ = ["MatrixSummary", "CostModel", "ModelDrivenTuner"]


@dataclass(frozen=True)
class MatrixSummary:
    """Cheap per-matrix statistics the cost model consumes."""

    nrows: int
    ncols: int
    nnz: int
    #: (h, w) -> number of non-zero blocks, measured once per dimension.
    blocks_per_dim: dict[tuple[int, int], int]

    @classmethod
    def measure(cls, matrix, dims: list[tuple[int, int]]) -> "MatrixSummary":
        """Count each ``(h, w)``'s blocks from the key pass alone."""
        csr = canonical_csr(matrix)
        blocks = {
            (h, w): keys.shape[0] for h, w, keys in block_keys_by_dim(csr, dims)
        }
        return cls(
            nrows=csr.shape[0],
            ncols=csr.shape[1],
            nnz=int(csr.nnz),
            blocks_per_dim=blocks,
        )


class CostModel:
    """Closed-form execution-time predictor for yaSpMV candidates."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def predict(self, point: TuningPoint, summary: MatrixSummary) -> float:
        """Predicted seconds for one configuration (ranking metric)."""
        dev = self.device
        h, w = point.block_height, point.block_width
        nb = summary.blocks_per_dim.get((h, w))
        if nb is None:
            raise TuningError(
                f"MatrixSummary lacks block counts for {h}x{w}; "
                f"measure() it with that dimension included"
            )
        k = point.kernel
        val_b = k.value_bytes

        # Matrix streams.
        read = nb * h * w * val_b
        read += nb * (2 if point.col_compress else 4)
        read += ceil_div(nb, 8)  # bit flags
        read += ceil_div(nb, k.effective_tile) * 4  # aux entries

        # Vector traffic: unique elements touched at least once; the
        # re-read fraction misses when the (per-slice) vector span
        # overflows the texture cache.
        touched = min(summary.nnz, summary.ncols) * val_b
        span = summary.ncols * val_b / max(point.slice_count, 1)
        rereads = max(summary.nnz * val_b - touched, 0)
        if k.use_texture and span <= dev.tex_cache_bytes:
            vector = touched  # re-reads all hit
        else:
            miss = min(1.0, span / max(dev.tex_cache_bytes, 1) / 8)
            vector = touched + rereads * miss
        read += vector

        write = summary.nrows * val_b * (1.5 if k.strategy == 1 else 1.0)
        if point.slice_count > 1:
            # Temp buffer round trip + combine launch.
            write += point.slice_count * summary.nrows * val_b
            read += point.slice_count * summary.nrows * val_b

        t_mem = (read + write) / dev.effective_bandwidth
        launches = 1 + (point.slice_count > 1) + (k.cross_wg == "second_kernel")
        return t_mem + launches * dev.kernel_launch_s


#: Fewest survivors :class:`ModelDrivenTuner` evaluates, whatever its
#: ``evaluate_fraction``.
MIN_EVALUATIONS = 24


class ModelDrivenTuner:
    """Rank with :class:`CostModel`, evaluate only the survivors.

    ``evaluate_fraction`` of the pruned space (at least
    :data:`MIN_EVALUATIONS` points) runs through the same evaluation and
    fold as :class:`~repro.tuning.AutoTuner`, in enumeration order, so
    at ``evaluate_fraction=1.0`` the two return the same result; the
    rest is trusted to the model.  At the defaults, against the full
    pruned search on GTX680 (2-core x86 VM, seed 1234), it was 1.48x
    faster on FEM/Harbor and 1.52x on Economics at 60k nnz (medians of
    5), and 3.18x on Epidemiology at 300k nnz (median of 3), picking the
    same winner each time (``benchmarks/bench_autotune.py`` records its evaluations,
    winner gap and wall time).
    """

    def __init__(self, device: DeviceSpec, evaluate_fraction: float = 0.2):
        if not (0 < evaluate_fraction <= 1.0):
            raise TuningError(
                f"evaluate_fraction must be in (0, 1], got {evaluate_fraction}"
            )
        self.device = device
        self.evaluate_fraction = evaluate_fraction
        self.plan_cache = KernelPlanCache()

    def tune(self, matrix) -> TuningResult:
        csr = as_csr(matrix)

        items = list(enumerate(pruned_space(csr, self.device)))
        if not items:
            raise TuningError("empty pruned space")
        dims = sorted({(p.block_height, p.block_width) for _, p in items})
        summary = MatrixSummary.measure(csr, dims)
        model = CostModel(self.device)

        t0 = time.perf_counter()
        ranked = sorted(items, key=lambda it: model.predict(it[1], summary))
        keep = max(int(len(ranked) * self.evaluate_fraction), MIN_EVALUATIONS)
        # Survivors run in enumeration order, so ties break exactly as
        # they do in the full search.
        survivors = sorted(ranked[:keep], key=lambda it: it[0])
        outcomes = evaluate_candidates(survivors, csr, self.device)
        return _fold(outcomes, self.plan_cache, t0, csr, self.device)
