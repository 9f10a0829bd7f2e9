"""Segmented scan/sum primitives.

``reference`` holds the sequential ground truth (``faithful``'s
summation core sums per row stop with it), ``tree`` and ``blelloch`` the
classic log-depth parallel scans the paper replaces, and
``matrix_scan`` the matrix-based approach the yaSpMV kernels customize.
``flags`` converts between BCCOO bit flags (row stops) and classic start
flags.  The ``fast`` backend sums with SciPy CSR passes laid out in the
reference's order, not with this package.
"""

from .blelloch import BlellochStats, blelloch_segmented_scan
from .flags import segment_ids, starts_from_stops, stops_from_starts
from .matrix_scan import MatrixScanStats, matrix_segmented_scan
from .reference import (
    segment_sums_by_stops,
    segmented_scan_exclusive,
    segmented_scan_inclusive,
    segmented_sum,
)
from .tree import TreeScanStats, tree_segmented_scan

__all__ = [
    "BlellochStats",
    "blelloch_segmented_scan",
    "segment_ids",
    "starts_from_stops",
    "stops_from_starts",
    "MatrixScanStats",
    "matrix_segmented_scan",
    "segment_sums_by_stops",
    "segmented_scan_exclusive",
    "segmented_scan_inclusive",
    "segmented_sum",
    "TreeScanStats",
    "tree_segmented_scan",
]
