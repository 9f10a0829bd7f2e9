"""Sparse-matrix storage formats.

The zoo of classical formats (COO, CSR, ELL, DIA, HYB, BCSR, BELL, SELL)
plus the paper's contributions: :class:`BCCOOMatrix` and
:class:`BCCOOPlusMatrix`.  Every format registers itself in
:func:`available_formats` and satisfies the :class:`SparseFormat`
interface (lossless scipy round trip, byte-accurate footprint, reference
multiply).
"""

from .base import (
    FP32,
    FP64,
    ByteSizes,
    Footprint,
    SparseFormat,
    available_formats,
    get_format,
    register_format,
)
from .bccoo import BCCOOMatrix
from .bccoo_plus import BCCOOPlusMatrix
from .bcsr import BCSRMatrix
from .bell import BELLMatrix
from .bitflags import BitFlagArray
from .blocking import BlockLayout, extract_blocks
from .coo import COOMatrix
from .csr import CSRMatrix
from .delta import DeltaColumns, compress_columns, decompress_columns
from .dia import DIAMatrix
from .ell import ELLMatrix
from .footprint import (
    FootprintReport,
    bccoo_block_candidates,
    best_bccoo_footprint,
    best_single_footprint,
    cocktail_footprint,
    footprint_report,
)
from .hyb import HYBMatrix
from .merge_csr import MergeCSRMatrix, cal_vectors
from .rgcsr import RGCSRMatrix
from .sell import SELLMatrix

__all__ = [
    "FP32",
    "FP64",
    "ByteSizes",
    "Footprint",
    "SparseFormat",
    "available_formats",
    "get_format",
    "register_format",
    "BCCOOMatrix",
    "BCCOOPlusMatrix",
    "BCSRMatrix",
    "BELLMatrix",
    "BitFlagArray",
    "BlockLayout",
    "extract_blocks",
    "COOMatrix",
    "CSRMatrix",
    "DeltaColumns",
    "compress_columns",
    "decompress_columns",
    "DIAMatrix",
    "ELLMatrix",
    "FootprintReport",
    "bccoo_block_candidates",
    "best_bccoo_footprint",
    "best_single_footprint",
    "cocktail_footprint",
    "footprint_report",
    "HYBMatrix",
    "MergeCSRMatrix",
    "cal_vectors",
    "RGCSRMatrix",
    "SELLMatrix",
]
