"""Memory-footprint comparison across formats (reproduces Table 3).

The paper compares, per matrix: COO, ELL, the best *single* format among
clSpMV's nine, clSpMV's COCKTAIL (best per-partition mix), and
BCCOO/BCCOO+ as selected by the auto-tuner.  This module computes each
column of that table:

* ``coo`` / ``ell`` -- direct footprints (ELL may be ``N/A``);
* ``best_single`` -- minimum over our single-format zoo with a small
  per-format parameter search (block sizes for BCSR/BELL, slice height
  for SELL, width for HYB);
* ``cocktail`` -- best row-partitioned two-format mix: rows are sorted by
  length and split at every decile between an ELL-part (dense head) and a
  CSR/COO remainder, emulating how clSpMV's cocktail assigns regular rows
  to ELL-like formats and irregular rows to CSR/COO;
* ``bccoo`` -- minimum over the BCCOO block-size space (the footprint the
  auto-tuner's block-dimension pruning heuristic uses).

Sizes follow the paper: 4-byte values, 4-byte ints, 2-byte shorts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatNotApplicableError
from ..util import as_csr, canonical_csr
from .base import FP32, ByteSizes
from .bccoo import counted_footprint
from .blocking import block_keys_by_dim
from .bcsr import BCSRMatrix
from .bell import BELLMatrix
from .coo import COOMatrix
from .csr import CSRMatrix
from .dia import DIAMatrix
from .ell import ELLMatrix
from .hyb import HYBMatrix
from .sell import SELLMatrix

__all__ = [
    "FootprintReport",
    "footprint_report",
    "best_single_footprint",
    "cocktail_footprint",
    "best_bccoo_footprint",
    "bccoo_block_candidates",
    "BLOCK_WIDTHS",
    "BLOCK_HEIGHTS",
]

#: Table 1 block dimension space.
BLOCK_WIDTHS: tuple[int, ...] = (1, 2, 4)
BLOCK_HEIGHTS: tuple[int, ...] = (1, 2, 3, 4)


@dataclass
class FootprintReport:
    """One row of Table 3 (bytes; ``None`` where the format is N/A)."""

    name: str
    coo: int
    ell: int | None
    best_single: int
    best_single_format: str
    cocktail: int
    cocktail_recipe: str
    bccoo: int
    bccoo_block: tuple[int, int]
    details: dict[str, int] = field(default_factory=dict)

    def as_mb(self, nbytes: int | None) -> float | None:
        return None if nbytes is None else nbytes / (1024.0 * 1024.0)


def _try(fmt_cls, matrix, sizes: ByteSizes, **kw) -> int | None:
    """Footprint of ``fmt_cls`` on ``matrix`` or ``None`` when N/A."""
    try:
        return fmt_cls.from_scipy(matrix, **kw).footprint_bytes(sizes)
    except FormatNotApplicableError:
        return None


def best_single_footprint(
    matrix, sizes: ByteSizes = FP32
) -> tuple[int, str]:
    """Minimum footprint over the single-format zoo -> (bytes, label)."""
    csr = as_csr(matrix)
    candidates: dict[str, int | None] = {
        "csr": _try(CSRMatrix, csr, sizes),
        "coo": _try(COOMatrix, csr, sizes),
        "ell": _try(ELLMatrix, csr, sizes),
        "dia": _try(DIAMatrix, csr, sizes),
        "hyb": _try(HYBMatrix, csr, sizes),
    }
    for sh in (32, 64):
        candidates[f"sell{sh}"] = _try(SELLMatrix, csr, sizes, slice_height=sh)
    for h in (2, 4):
        for w in (2, 4):
            candidates[f"bcsr{h}x{w}"] = _try(
                BCSRMatrix, csr, sizes, block_height=h, block_width=w
            )
            candidates[f"bell{h}x{w}"] = _try(
                BELLMatrix, csr, sizes, block_height=h, block_width=w
            )
    valid = {k: v for k, v in candidates.items() if v is not None}
    best = min(valid, key=valid.__getitem__)
    return valid[best], best


def cocktail_footprint(matrix, sizes: ByteSizes = FP32) -> tuple[int, str]:
    """Best two-partition row split, emulating clSpMV's COCKTAIL.

    Rows are sorted by length; for each decile split point the short-row
    head goes to the best of {ELL, DIA-free SELL} and the long-row tail
    to the best of {CSR, COO}; the best split (including "no split" =
    best single) wins.
    """
    csr = as_csr(matrix)
    single_bytes, single_name = best_single_footprint(csr, sizes)
    best = (single_bytes, f"single:{single_name}")

    lengths = np.diff(csr.indptr)
    order = np.argsort(lengths, kind="stable")
    nrows = csr.shape[0]
    for frac in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
        cut = int(nrows * frac)
        if cut in (0, nrows):
            continue
        head_rows = order[:cut]
        tail_rows = order[cut:]
        head = csr[np.sort(head_rows)]
        tail = csr[np.sort(tail_rows)]
        head_opts = [
            _try(ELLMatrix, head, sizes),
            _try(SELLMatrix, head, sizes, slice_height=32),
        ]
        head_best = min((b for b in head_opts if b is not None), default=None)
        if head_best is None:
            continue
        tail_opts = [
            _try(CSRMatrix, tail, sizes),
            _try(COOMatrix, tail, sizes),
        ]
        tail_best = min(b for b in tail_opts if b is not None)
        # Partition bookkeeping: one row-permutation array.
        total = head_best + tail_best + nrows * sizes.index
        if total < best[0]:
            best = (total, f"split@{frac:.2f}")
    return best


def bccoo_block_candidates(
    matrix, sizes: ByteSizes = FP32, keep: int = 4
) -> list[tuple[int, int, int]]:
    """Rank the Table 1 block space by footprint -> ``[(h, w, bytes)]``.

    This is the paper's pruning heuristic: "select the block dimensions
    corresponding to the 4 smallest memory footprints" (section 4).
    Each (h, w) is scored as ``BCCOOMatrix.from_scipy(matrix, h, w)``
    would be, from one pass over the block keys
    (:func:`~repro.formats.bccoo.counted_footprint`): no format is built.
    Ties keep (h, w) order.
    """
    csr = canonical_csr(matrix)
    dims = [(h, w) for h in BLOCK_HEIGHTS for w in BLOCK_WIDTHS]
    scored = [
        (h, w, counted_footprint(keys, csr.shape, h, w, sizes).total)
        for h, w, keys in block_keys_by_dim(csr, dims)
    ]
    scored.sort(key=lambda t: t[2])
    return scored[:keep]


def best_bccoo_footprint(
    matrix, sizes: ByteSizes = FP32
) -> tuple[int, tuple[int, int]]:
    """Smallest BCCOO footprint over the block space -> (bytes, (h, w))."""
    h, w, nbytes = bccoo_block_candidates(matrix, sizes, keep=1)[0]
    return nbytes, (h, w)


def footprint_report(matrix, name: str = "", sizes: ByteSizes = FP32) -> FootprintReport:
    """Compute one full Table 3 row for ``matrix``."""
    csr = as_csr(matrix)
    coo_bytes = COOMatrix.from_scipy(csr).footprint_bytes(sizes)
    ell_bytes = _try(ELLMatrix, csr, sizes)
    single_bytes, single_name = best_single_footprint(csr, sizes)
    cock_bytes, cock_recipe = cocktail_footprint(csr, sizes)
    bccoo_bytes, block = best_bccoo_footprint(csr, sizes)
    return FootprintReport(
        name=name,
        coo=coo_bytes,
        ell=ell_bytes,
        best_single=single_bytes,
        best_single_format=single_name,
        cocktail=cock_bytes,
        cocktail_recipe=cock_recipe,
        bccoo=bccoo_bytes,
        bccoo_block=block,
    )
