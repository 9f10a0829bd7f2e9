"""Caches that make auto-tuning fast (paper section 4, accelerations 1-2).

* :class:`KernelPlanCache` reproduces "we cache compiled kernels in a
  hash table so that they can be reused for different matrices": a
  *plan* stands in for a compiled OpenCL binary; the first request for a
  plan key pays a simulated compile cost, later requests are free.  The
  cache is keyed on everything the code generator would specialize on
  (``TuningPoint.plan_key``) and deliberately **not** on the matrix.
* :class:`FormatCache` memoizes format conversions per matrix so the
  tuner converts once per format, not once per kernel configuration,
  and extracts each block layout once, not once per format (the paper's
  GPU-accelerated conversion plays the same role: making conversion
  cost negligible next to kernel evaluation).  Its builder,
  :func:`build_format`, is also the one ``prepare`` uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..formats.blocking import extract_blocks
from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from ..kernels.yaspmv_common import FormatProfile
from ..obs.stages import stage
from .parameters import TuningPoint

__all__ = ["CompiledPlan", "KernelPlanCache", "FormatCache", "build_format"]

#: Simulated OpenCL JIT cost per distinct kernel specialization, seconds.
#: The paper's 12.8 s average tuning time is dominated by compilation;
#: this constant lets the tuner report comparable simulated totals.
COMPILE_COST_S = 0.15


@dataclass(frozen=True)
class CompiledPlan:
    """Stand-in for one compiled kernel binary."""

    key: tuple


@dataclass
class KernelPlanCache:
    """Hash-table cache of compiled kernel plans.

    ``get`` returns ``(plan, was_hit)``; statistics feed the tuning-time
    benchmark (how much the cache saves across the matrix suite).  Every
    plan costs :data:`COMPILE_COST_S` of simulated JIT time.
    """

    _plans: dict[tuple, CompiledPlan] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, point: TuningPoint) -> tuple[CompiledPlan, bool]:
        key = point.plan_key()
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan, True
        plan = CompiledPlan(key=key)
        self._plans[key] = plan
        self.misses += 1
        return plan, False

    @property
    def simulated_compile_time_s(self) -> float:
        """Total simulated JIT time actually paid (misses only)."""
        return self.misses * COMPILE_COST_S

    @property
    def simulated_time_saved_s(self) -> float:
        """JIT time avoided thanks to the cache (hits)."""
        return self.hits * COMPILE_COST_S

    def __len__(self) -> int:
        return len(self._plans)


def build_format(csr, point: TuningPoint):
    """Convert ``csr`` to the format ``point`` describes -- the one
    point->format builder (the tuner's :class:`FormatCache` and
    ``SpMVEngine.prepare`` both call it)."""
    if point.base_format != "bccoo":
        fmt_cls = MergeCSRMatrix if point.base_format == "merge_csr" else RGCSRMatrix
        with stage("convert"):
            return fmt_cls.from_scipy(csr)
    return _from_layout(_block_layout(csr, point), point)


def _block_layout(csr, point: TuningPoint):
    """The (h, w, slice) block layout ``point``'s BCCOO/BCCOO+ format is
    built from: every bit word, column storage and tile shares it."""
    h, w = point.block_height, point.block_width
    with stage("blocking"):
        if point.slice_count > 1:
            return BCCOOPlusMatrix.stacked_layout(csr, point.slice_count, h, w)
        return extract_blocks(csr, h, w)


def _from_layout(layout, point: TuningPoint):
    """``point``'s BCCOO/BCCOO+ format, built from its block layout."""
    kwargs = dict(
        bit_word_dtype=point.bit_word_dtype,
        col_storage="auto" if point.col_compress else "int32",
        delta_tile_size=point.kernel.effective_tile,
    )
    with stage("convert"):
        if point.slice_count > 1:
            return BCCOOPlusMatrix.from_stacked_layout(layout, **kwargs)
        return BCCOOMatrix.from_block_layout(layout, **kwargs)


class FormatCache:
    """Per-matrix memoization of :func:`build_format` conversions, one
    block size at a time.

    Each distinct format is built once (``conversions`` counts the
    builds) from its (h, w, slice) block layout, which is extracted once
    (``layouts`` counts the extractions) and shared by every bit word,
    column storage and tile.  A format whose columns are stored as
    ``ushort`` does not depend on the delta tile, so it serves every
    tile.  Each BCCOO format's
    :class:`~repro.kernels.yaspmv_common.FormatProfile` is decoded as it
    is built, sharing what decodes equal with the previous format of its
    layout, so profile-only launches sort a layout's cache-model windows
    once.

    Each BCCOO format is also assigned a *profile class*
    (:meth:`entry`): formats of one class give every kernel
    configuration the same profile-only launch once padded to the same
    block count.  A class holds what such a launch reads of a format --
    the shared stop positions and vector reads, the column storage, the
    delta tile count and fallback fraction, the non-empty block-row
    count and, through its layout, BCCOO+'s slice geometry.  Bit words
    that pad the blocks differently but decode alike share a class
    whenever their column storage is equal: always for ``ushort``
    columns, and for delta columns only when the padding leaves the tile
    count and fallback fraction unchanged.  ``by_class`` holds what a
    caller derives per class (the walk's launch results).

    The cache holds one block size -- one ``(base_format, h, w)`` -- at
    a time: a point of another block size drops every layout, format
    and class of the previous one, with ``by_class``.  Every search
    space enumerates all bit words, slice counts and kernel
    configurations of a block size before the next, so the tuner's walk
    builds nothing twice while keeping one block size's layouts alive,
    not the whole space's.
    """

    def __init__(self, matrix):
        self._matrix = matrix
        #: The ``(base_format, h, w)`` whose formats are held.
        self._block: tuple | None = None
        #: Format key -> (format, profile class or ``None``).
        self._built: dict[tuple, tuple] = {}
        #: The held block size's slice count -> [block layout, last
        #: format profile built on it, that profile's id]
        self._layouts: dict[int, list] = {}
        #: Profile signature -> class.
        self._classes: dict[tuple, int] = {}
        #: Ids of the decoded profiles a signature names.
        self._profile_ids = itertools.count()
        #: Profile-class-keyed results of the caller's, dropped with
        #: the block size.
        self.by_class: dict[tuple, object] = {}
        self.conversions = 0
        self.layouts = 0

    def get(self, point: TuningPoint):
        """``point``'s format."""
        return self.entry(point)[0]

    def entry(self, point: TuningPoint) -> tuple:
        """``(format, profile class)`` of ``point``, the class ``None``
        for a related-work format."""
        block = (point.base_format, point.block_height, point.block_width)
        if block != self._block:
            self._block = block
            self._built.clear()
            self._layouts.clear()
            self._classes.clear()
            self.by_class.clear()
        key = point.format_key()
        built = self._built.get(key)
        if built is None:
            built = self._built[key] = self._build(point, key)
        return built

    def _build(self, point: TuningPoint, key: tuple) -> tuple:
        if point.base_format != "bccoo":
            self.conversions += 1
            return build_format(self._matrix, point), None
        # A ushort-column format does not depend on the delta tile, the
        # key's last member: one format serves every tile.
        any_tile = key[:-1]
        built = self._built.get(any_tile)
        if built is not None:
            return built
        entry = self._layouts.get(point.slice_count)
        if entry is None:
            entry = [_block_layout(self._matrix, point), None, None]
            self._layouts[point.slice_count] = entry
            self.layouts += 1
        fmt = _from_layout(entry[0], point)
        self.conversions += 1
        bccoo = fmt.stacked if isinstance(fmt, BCCOOPlusMatrix) else fmt
        last = entry[1]
        with stage("convert"):
            profile = entry[1] = FormatProfile.of(bccoo, share=last)
        if (
            last is None
            or profile.stop_pos is not last.stop_pos
            or profile.reads is not last.reads
        ):
            entry[2] = next(self._profile_ids)
        delta = bccoo.delta
        signature = (
            entry[2],
            bccoo.col_storage,
            None if delta is None else (delta.n_tiles, delta.fallback_fraction),
            bccoo.nonempty_block_rows.shape[0],
        )
        built = (fmt, self._classes.setdefault(signature, len(self._classes)))
        if bccoo.col_storage == "ushort":
            self._built[any_tile] = built
        return built
