"""Comparator systems: CUSPARSE, CUSP and clSpMV stand-ins.

The paper compares yaSpMV against (section 5):

* **CUSPARSE V5.0** with its three formats -- CSR, HYB (ELL row width
  manually searched) and BCSR (block size searched); the best of them
  per matrix is reported.
* **CUSP** -- the COO segmented-reduction kernel.
* **clSpMV best single** -- the best of clSpMV's nine single formats per
  matrix.
* **clSpMV COCKTAIL** -- the best per-partition mix of formats.

Each runner here reproduces that selection discipline on our simulated
device: it converts the matrix to every admissible format, executes the
corresponding kernels, and returns the fastest, so the comparison in
Figures 13/15 is against comparators that were themselves tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..errors import FormatNotApplicableError, KernelConfigError
from ..formats.bcsr import BCSRMatrix
from ..formats.bell import BELLMatrix
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from ..formats.dia import DIAMatrix
from ..formats.ell import ELLMatrix
from ..formats.hyb import HYBMatrix
from ..formats.sell import SELLMatrix
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingBreakdown, TimingModel
from ..kernels.base import get_kernel
from ..util import as_csr

__all__ = [
    "BaselineResult",
    "run_cusparse_best",
    "run_cusp",
    "run_clspmv_best_single",
    "run_clspmv_cocktail",
]


@dataclass
class BaselineResult:
    """One comparator's best configuration on one matrix."""

    system: str
    variant: str
    y: np.ndarray
    time_s: float
    gflops: float
    breakdown: TimingBreakdown


def _evaluate(candidates, x, device, nnz) -> BaselineResult | None:
    """Run (variant, format, kernel_name) candidates; return the fastest."""
    timing = TimingModel(device)
    best: BaselineResult | None = None
    for variant, fmt, kernel_name in candidates:
        try:
            res = get_kernel(kernel_name).run(fmt, x, device)
        except KernelConfigError:
            continue
        br = timing.estimate(res.stats)
        cand = BaselineResult(
            system="",
            variant=variant,
            y=res.y,
            time_s=br.t_total,
            gflops=br.gflops(nnz),
            breakdown=br,
        )
        if best is None or cand.time_s < best.time_s:
            best = cand
    return best


def _try_format(cls, matrix, **kw):
    try:
        return cls.from_scipy(matrix, **kw)
    except FormatNotApplicableError:
        return None


def run_cusparse_best(matrix, x, device: DeviceSpec) -> BaselineResult:
    """CUSPARSE: best of CSR (scalar/vector), tuned HYB, searched BCSR."""
    csr_like = as_csr(matrix)
    nnz = int(csr_like.nnz)
    candidates = []
    csr = CSRMatrix.from_scipy(csr_like)
    candidates.append(("csr-scalar", csr, "csr_scalar"))
    candidates.append(("csr-vector", csr, "csr_vector"))
    hyb = _try_format(HYBMatrix, csr_like)  # footprint-tuned ELL width
    if hyb is not None:
        candidates.append((f"hyb-k{hyb.K}", hyb, "hyb"))
    for h, w in ((2, 2), (4, 4), (2, 4)):
        bcsr = _try_format(BCSRMatrix, csr_like, block_height=h, block_width=w)
        if bcsr is not None:
            candidates.append((f"bcsr-{h}x{w}", bcsr, "bcsr"))
    best = _evaluate(candidates, x, device, nnz)
    assert best is not None  # CSR always runs
    best.system = "cusparse"
    return best


def run_cusp(matrix, x, device: DeviceSpec) -> BaselineResult:
    """CUSP: the COO segmented-reduction kernel."""
    csr_like = as_csr(matrix)
    coo = COOMatrix.from_scipy(csr_like)
    best = _evaluate([("coo", coo, "coo_segmented")], x, device, int(csr_like.nnz))
    assert best is not None
    best.system = "cusp"
    return best


def run_clspmv_best_single(matrix, x, device: DeviceSpec) -> BaselineResult:
    """clSpMV best single format: best of the single-format zoo."""
    csr_like = as_csr(matrix)
    nnz = int(csr_like.nnz)
    candidates = []
    csr = CSRMatrix.from_scipy(csr_like)
    candidates.append(("csr-scalar", csr, "csr_scalar"))
    candidates.append(("csr-vector", csr, "csr_vector"))
    candidates.append(("coo", COOMatrix.from_scipy(csr_like), "coo_segmented"))
    ell = _try_format(ELLMatrix, csr_like)
    if ell is not None:
        candidates.append(("ell", ell, "ell"))
    dia = _try_format(DIAMatrix, csr_like)
    if dia is not None:
        candidates.append(("dia", dia, "dia"))
    for sh in (32, 64):
        sell = _try_format(SELLMatrix, csr_like, slice_height=sh)
        if sell is not None:
            candidates.append((f"sell-{sh}", sell, "sell"))
    for h, w in ((2, 2), (4, 4)):
        bcsr = _try_format(BCSRMatrix, csr_like, block_height=h, block_width=w)
        if bcsr is not None:
            candidates.append((f"bcsr-{h}x{w}", bcsr, "bcsr"))
        bell = _try_format(BELLMatrix, csr_like, block_height=h, block_width=w)
        if bell is not None:
            candidates.append((f"bell-{h}x{w}", bell, "bell"))
    best = _evaluate(candidates, x, device, nnz)
    assert best is not None
    best.system = "clspmv-single"
    return best


def run_clspmv_cocktail(matrix, x, device: DeviceSpec) -> BaselineResult:
    """clSpMV COCKTAIL: best two-partition row split, or best single.

    Rows sorted by length are split at several quantiles; the short-row
    head runs the best regular-format kernel, the long-row tail the best
    irregular one, each as its own kernel launch (times add).  The best
    split -- including "no split" -- wins, emulating clSpMV's per-
    partition format assignment.
    """
    csr_like = as_csr(matrix)
    nnz = int(csr_like.nnz)
    single = run_clspmv_best_single(matrix, x, device)
    best = BaselineResult(
        system="clspmv-cocktail",
        variant=f"single:{single.variant}",
        y=single.y,
        time_s=single.time_s,
        gflops=single.gflops,
        breakdown=single.breakdown,
    )

    lengths = np.diff(csr_like.indptr)
    order = np.argsort(lengths, kind="stable")
    nrows = csr_like.shape[0]
    timing = TimingModel(device)
    for frac in (0.7, 0.9, 0.97):
        cut = int(nrows * frac)
        if cut in (0, nrows):
            continue
        head_mask = np.zeros(nrows, dtype=bool)
        head_mask[order[:cut]] = True

        # Partitions keep original row ids (kernels write disjoint rows).
        head = _select_rows(csr_like, head_mask)
        tail = _select_rows(csr_like, ~head_mask)
        if head.nnz == 0 or tail.nnz == 0:
            continue

        head_res = _partition_best(head, x, device, regular=True)
        tail_res = _partition_best(tail, x, device, regular=False)
        if head_res is None or tail_res is None:
            continue
        total = head_res.time_s + tail_res.time_s
        if total < best.time_s:
            y = head_res.y + tail_res.y
            br = head_res.breakdown  # representative component
            best = BaselineResult(
                system="clspmv-cocktail",
                variant=f"{head_res.variant}+{tail_res.variant}@{frac:.2f}",
                y=y,
                time_s=total,
                gflops=2.0 * nnz / total / 1e9 if total > 0 else 0.0,
                breakdown=br,
            )
    return best


def _select_rows(csr, row_mask: np.ndarray):
    """Keep only masked rows (shape preserved, other rows empty)."""
    lengths = np.diff(csr.indptr)
    keep = np.repeat(row_mask, lengths)
    new_lengths = np.where(row_mask, lengths, 0)
    indptr = np.concatenate(([0], np.cumsum(new_lengths)))
    return sparse.csr_matrix(
        (csr.data[keep], csr.indices[keep], indptr), shape=csr.shape
    )


def _partition_best(part, x, device, regular: bool) -> BaselineResult | None:
    nnz = int(part.nnz)
    candidates = []
    if regular:
        ell = _try_format(ELLMatrix, part)
        if ell is not None:
            candidates.append(("ell", ell, "ell"))
        for sh in (32,):
            sell = _try_format(SELLMatrix, part, slice_height=sh)
            if sell is not None:
                candidates.append((f"sell-{sh}", sell, "sell"))
    csr = CSRMatrix.from_scipy(part)
    candidates.append(("csr-vector", csr, "csr_vector"))
    candidates.append(("coo", COOMatrix.from_scipy(part), "coo_segmented"))
    return _evaluate(candidates, x, device, max(nnz, 1))
