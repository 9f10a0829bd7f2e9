"""Search-space enumeration and the paper's pruning heuristics.

Section 4 prunes Table 1's space with four accelerations, reproduced in
:func:`pruned_space`:

1. block dimensions: keep only the 4 with the smallest BCCOO memory
   footprints (footprint is the dominant cost driver);
2. always use the texture cache for the multiplied vector;
3. always use offline transpose;
4. strategy 2 result-cache size limited to {1, 2} x workgroup size, and
   strategy 1 restricted to registers only (``shm_size = 0``).

We add one structural heuristic the paper folds into its search order:
BCCOO+ slice counts are explored only when the multiplied vector is too
large for the texture cache (the locality win can exist at all) -- this
is what makes the tuner pick BCCOO+ for LP (1.1M columns) and plain
BCCOO elsewhere, matching section 6.

:func:`exhaustive_space` enumerates the unpruned Table 1 axes (optionally
restricted, since the full cross product is combinatorially large).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from ..formats.blocking import BlockOrders
from ..formats.footprint import bccoo_block_candidates
from ..gpu.device import DeviceSpec
from ..kernels.config import YaSpMVConfig
from .parameters import (
    BIT_WORDS,
    BLOCK_HEIGHTS,
    BLOCK_WIDTHS,
    SLICE_COUNTS,
    WORKGROUP_SIZES,
    TuningPoint,
)

__all__ = [
    "pruned_space",
    "exhaustive_space",
    "candidate_slice_counts",
    "base_format_points",
]

#: Per-thread tile sizes explored for strategy 2 / register counts for
#: strategy 1 (the paper sweeps these fine-grained; we keep the coverage
#: that spans the trade-off).
_TILE_SIZES: tuple[int, ...] = (8, 16, 32)
_REG_SIZES: tuple[int, ...] = (8, 16, 32)
_CACHE_MULTIPLES: tuple[int, ...] = (1, 2)


def candidate_slice_counts(matrix, device: DeviceSpec) -> tuple[int, ...]:
    """Slice counts worth trying: (1,) unless the vector overflows cache.

    ``matrix`` may be its :class:`~repro.formats.blocking.BlockOrders`.

    The vector occupies ``ncols * 4`` bytes; when one texture cache
    cannot hold it, vertical slicing can raise the hit rate, so BCCOO+
    joins the search with slice widths bringing each slice's vector
    window near the cache size.
    """
    ncols = BlockOrders.coerce(matrix).shape[1]
    vector_bytes = ncols * 4
    if vector_bytes <= device.tex_cache_bytes:
        return (1,)
    wanted = vector_bytes / device.tex_cache_bytes
    counts = [1]
    for s in SLICE_COUNTS[1:]:
        counts.append(s)
        if s >= wanted:
            break
    return tuple(counts)


@functools.cache
def base_format_points(pruned: bool = True) -> tuple[TuningPoint, ...]:
    """Candidates for the related-work formats (merge-path CSR, RG-CSR).

    Neither format has blocking, bit-flag, column-compression or slicing
    axes, so their sub-space is just the launch geometry: one point per
    (format, workgroup size) -- plus the texture toggle when unpruned.
    Built once per process for each space.
    """
    textures = (True,) if pruned else (True, False)
    return tuple(
        TuningPoint(
            base_format=base,
            kernel=YaSpMVConfig(workgroup_size=wg, use_texture=texture),
        )
        for base in ("merge_csr", "rgcsr")
        for wg in WORKGROUP_SIZES
        for texture in textures
    )


@functools.cache
def _kernel_configs(pruned: bool) -> tuple[YaSpMVConfig, ...]:
    """The kernel configurations of each block layout, in enumeration
    order, built once per process for each space: every layout of every
    tune shares the same (frozen, pre-hashed) configs."""
    return tuple(_enumerate_kernel_configs(pruned))


def _enumerate_kernel_configs(pruned: bool) -> Iterator[YaSpMVConfig]:
    transposes = ("offline",) if pruned else ("offline", "online")
    textures = (True,) if pruned else (True, False)
    shm_sizes = (0,) if pruned else (0, 8)
    caches = _CACHE_MULTIPLES if pruned else (1, 2, 4)
    for wg in WORKGROUP_SIZES:
        for transpose in transposes:
            for texture in textures:
                for reg in _REG_SIZES:
                    for shm in shm_sizes:
                        yield YaSpMVConfig(
                            workgroup_size=wg,
                            strategy=1,
                            reg_size=reg,
                            shm_size=shm,
                            transpose=transpose,
                            use_texture=texture,
                        )
                for tile in _TILE_SIZES:
                    for cache in caches:
                        yield YaSpMVConfig(
                            workgroup_size=wg,
                            strategy=2,
                            tile_size=tile,
                            result_cache_multiple=cache,
                            transpose=transpose,
                            use_texture=texture,
                        )


@functools.cache
def _pruned_points(
    block_height: int, block_width: int, bit_word: str, slice_count: int
) -> tuple[TuningPoint, ...]:
    """The pruned kernel configurations of one (h, w, bit word, slice
    count), as points: built once per process, and at most 12 x 3 x 6
    such tuples exist."""
    return tuple(
        TuningPoint(
            block_height=block_height,
            block_width=block_width,
            bit_word=bit_word,
            col_compress=True,
            slice_count=slice_count,
            kernel=cfg,
        )
        for cfg in _kernel_configs(pruned=True)
    )


def pruned_space(matrix, device: DeviceSpec) -> Iterator[TuningPoint]:
    """The accelerated search of section 4: each of the 4 block
    dimensions with the smallest footprints, crossed with every bit
    word, candidate slice count and pruned kernel configuration, then
    the related-work formats' launch geometries.

    ``matrix`` may be its :class:`~repro.formats.blocking.BlockOrders`,
    so that the walk's layouts reuse the ranking's sorts."""
    orders = BlockOrders.coerce(matrix)
    blocks = bccoo_block_candidates(orders, keep=4)
    slices = candidate_slice_counts(orders, device)
    for h, w, _bytes in blocks:
        for word in BIT_WORDS:
            for s in slices:
                yield from _pruned_points(h, w, word, s)
    yield from base_format_points(pruned=True)


def exhaustive_space(
    matrix,
    device: DeviceSpec,
    block_heights: Iterable[int] = BLOCK_HEIGHTS,
    block_widths: Iterable[int] = BLOCK_WIDTHS,
    bit_words: Iterable[str] = BIT_WORDS,
) -> Iterator[TuningPoint]:
    """Unpruned Table 1 enumeration (restrictable per block axis).

    The benchmark comparing pruned vs exhaustive tuning restricts the
    block shape and bit word to keep the cross product tractable and
    documents the restriction; every workgroup size and the matrix's
    candidate slice counts are always enumerated.
    """
    slice_counts = candidate_slice_counts(matrix, device)
    for h in block_heights:
        for w in block_widths:
            for word in bit_words:
                for compress in (True, False):
                    for s in slice_counts:
                        for cfg in _kernel_configs(pruned=False):
                            yield TuningPoint(
                                block_height=h,
                                block_width=w,
                                bit_word=word,
                                col_compress=compress,
                                slice_count=s,
                                kernel=cfg,
                            )
    yield from base_format_points(pruned=False)
