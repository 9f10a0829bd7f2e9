"""Benchmark harness: runs the paper's comparisons on the simulated device.

The figure/table benchmarks under ``benchmarks/`` are thin wrappers over
this module so the same comparisons are scriptable from user code::

    from repro.bench import run_suite_comparison
    rows = run_suite_comparison("gtx680", cap_nnz=150_000)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.baselines import (
    run_clspmv_best_single,
    run_clspmv_cocktail,
    run_cusp,
    run_cusparse_best,
)
from ..core.engine import SpMVEngine
from ..gpu.device import DeviceSpec, get_device
from ..matrices.suite import SUITE, get_spec

__all__ = [
    "SystemScore",
    "MatrixComparison",
    "compare_systems",
    "run_suite_comparison",
    "harmonic_mean",
    "SYSTEMS",
]

#: Seeds each suite matrix's generator and its multiplied vector.
SUITE_SEED = 1234

#: Column order of Figures 13 / 15.
SYSTEMS: tuple[str, ...] = (
    "cusparse",
    "cusp",
    "clspmv_single",
    "clspmv_cocktail",
    "yaspmv",
)


@dataclass
class SystemScore:
    """One system's result on one matrix."""

    system: str
    variant: str
    gflops: float
    time_s: float


@dataclass
class MatrixComparison:
    """One matrix's Figure 13/15 row."""

    name: str
    nrows: int
    ncols: int
    nnz: int
    scale: float
    scores: dict[str, SystemScore] = field(default_factory=dict)

    def speedup(self, over: str, of: str = "yaspmv") -> float:
        """``of``'s throughput relative to ``over``'s (1.0 = parity)."""
        denom = self.scores[over].gflops
        return self.scores[of].gflops / denom if denom > 0 else float("inf")


def harmonic_mean(values) -> float:
    """The paper's average-throughput metric (H-mean over matrices)."""
    vals = np.asarray(list(values), dtype=np.float64)
    vals = vals[vals > 0]
    if vals.size == 0:
        return 0.0
    return float(vals.size / np.sum(1.0 / vals))


def compare_systems(
    matrix,
    device: DeviceSpec | str,
    x: np.ndarray | None = None,
    engine: SpMVEngine | None = None,
) -> dict[str, SystemScore]:
    """Run yaSpMV (auto-tuned) and all comparators on one matrix.

    Numerical agreement across systems is asserted -- a benchmark that
    produces wrong answers should fail loudly, not report GFLOPS.
    """
    dev = get_device(device) if isinstance(device, str) else device
    if x is None:
        x = np.ones(matrix.shape[1], dtype=np.float64)
    eng = engine if engine is not None else SpMVEngine(dev)

    prepared = eng.prepare(matrix)
    ours = eng.multiply(prepared, x)

    runners = {
        "cusparse": run_cusparse_best,
        "cusp": run_cusp,
        "clspmv_single": run_clspmv_best_single,
        "clspmv_cocktail": run_clspmv_cocktail,
    }
    scores: dict[str, SystemScore] = {}
    y_ref = None
    for name, runner in runners.items():
        res = runner(matrix, x, dev)
        if y_ref is None:
            y_ref = res.y
        else:
            np.testing.assert_allclose(res.y, y_ref, rtol=1e-7, atol=1e-6)
        scores[name] = SystemScore(
            system=name, variant=res.variant, gflops=res.gflops, time_s=res.time_s
        )
    assert y_ref is not None
    np.testing.assert_allclose(ours.y, y_ref, rtol=1e-7, atol=1e-6)
    if prepared.point.base_format == "bccoo":
        variant = (
            f"{prepared.point.format_name}-"
            f"{prepared.point.block_height}x{prepared.point.block_width}-"
            f"s{prepared.config.strategy}"
        )
    else:
        # The related-work formats have no blocking or strategy axes;
        # the launch geometry is the whole configuration.
        variant = (
            f"{prepared.point.format_name}-wg{prepared.config.workgroup_size}"
        )
    scores["yaspmv"] = SystemScore(
        system="yaspmv",
        variant=variant,
        gflops=ours.gflops,
        time_s=ours.time_s,
    )
    return scores


def run_suite_comparison(
    device: DeviceSpec | str,
    cap_nnz: int = 150_000,
    names: list[str] | None = None,
) -> list[MatrixComparison]:
    """Figure 13/15: the full suite comparison on one device.

    One engine tunes every matrix with the section 4 pruned search, so
    its kernel-plan cache amortizes tuning cost across matrices exactly
    as in the paper's framework.
    """
    dev = get_device(device) if isinstance(device, str) else device
    eng = SpMVEngine(dev)
    wanted = names if names is not None else [s.name for s in SUITE]

    rows: list[MatrixComparison] = []
    for name in wanted:
        spec = get_spec(name)
        scale = spec.scale_for_nnz(cap_nnz)
        A = spec.load(scale=scale, seed=SUITE_SEED)
        rng = np.random.default_rng(SUITE_SEED)
        x = rng.standard_normal(A.shape[1])
        scores = compare_systems(A, dev, x=x, engine=eng)
        rows.append(
            MatrixComparison(
                name=name,
                nrows=A.shape[0],
                ncols=A.shape[1],
                nnz=int(A.nnz),
                scale=scale,
                scores=scores,
            )
        )
    return rows
