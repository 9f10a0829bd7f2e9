"""The auto-tuner's parameter space (paper Table 1).

A :class:`TuningPoint` bundles the format-side choices (BCCOO vs BCCOO+,
block dimensions, bit-flag word type, column compression, slice count)
with the kernel-side :class:`~repro.kernels.config.YaSpMVConfig`.  Points
are hashable so the kernel-plan cache can key on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import TuningError
from ..kernels.config import YaSpMVConfig

__all__ = [
    "TuningPoint",
    "BASE_FORMATS",
    "BIT_WORDS",
    "BLOCK_WIDTHS",
    "BLOCK_HEIGHTS",
    "WORKGROUP_SIZES",
    "SLICE_COUNTS",
]

#: Table 1 enumerations.
BLOCK_WIDTHS: tuple[int, ...] = (1, 2, 4)
BLOCK_HEIGHTS: tuple[int, ...] = (1, 2, 3, 4)
BIT_WORDS: tuple[str, ...] = ("uint8", "uint16", "uint32")
WORKGROUP_SIZES: tuple[int, ...] = (64, 128, 256, 512)
SLICE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
#: Storage families the cocktail search picks among.  ``"bccoo"`` covers
#: both BCCOO and BCCOO+ (the slice count decides); the related-work
#: formats carry no block/bit-flag/slice axes of their own.
BASE_FORMATS: tuple[str, ...] = ("bccoo", "merge_csr", "rgcsr")


@dataclass(frozen=True)
class TuningPoint:
    """One candidate configuration: format choices + kernel choices."""

    block_height: int = 1
    block_width: int = 1
    bit_word: str = "uint32"
    col_compress: bool = True
    slice_count: int = 1
    base_format: str = "bccoo"
    kernel: YaSpMVConfig = field(default_factory=YaSpMVConfig)

    def __post_init__(self):
        if self.base_format not in BASE_FORMATS:
            raise TuningError(
                f"base_format {self.base_format!r} not in {BASE_FORMATS}"
            )
        if self.block_height not in BLOCK_HEIGHTS:
            raise TuningError(
                f"block_height {self.block_height} not in {BLOCK_HEIGHTS}"
            )
        if self.block_width not in BLOCK_WIDTHS:
            raise TuningError(f"block_width {self.block_width} not in {BLOCK_WIDTHS}")
        if self.bit_word not in BIT_WORDS:
            raise TuningError(f"bit_word {self.bit_word!r} not in {BIT_WORDS}")
        if self.slice_count not in SLICE_COUNTS:
            raise TuningError(f"slice_count {self.slice_count} not in {SLICE_COUNTS}")
        if self.base_format != "bccoo":
            # The related-work formats have no blocking/slicing axes:
            # reject points that would silently ignore those knobs.
            if self.slice_count != 1:
                raise TuningError(
                    f"{self.base_format} does not slice "
                    f"(slice_count={self.slice_count})"
                )
            if self.block_height != 1 or self.block_width != 1:
                raise TuningError(
                    f"{self.base_format} is unblocked "
                    f"(got {self.block_height}x{self.block_width})"
                )
        # The tuner looks formats and plans up by these keys for every
        # candidate, so each is computed once, here.  They are no fields:
        # equality, repr, fields(), replace() and asdict() ignore them.
        kernel = self.kernel
        format_key = (
            self.format_name,
            self.block_height,
            self.block_width,
            self.bit_word,
            self.col_compress,
            self.slice_count,
            kernel.effective_tile if self.col_compress else 0,
        )
        self.__dict__["_format_key"] = format_key
        self.__dict__["_plan_key"] = format_key + (
            kernel.workgroup_size,
            kernel.strategy,
            kernel.reg_size,
            kernel.shm_size,
            kernel.tile_size,
            kernel.result_cache_multiple,
            kernel.transpose,
            kernel.use_texture,
            kernel.scan_mode,
            kernel.cross_wg,
            kernel.fine_grain,
        )

    @property
    def format_name(self) -> str:
        """``"bccoo"``/``"bccoo+"`` (BCCOO+ iff sliced), or the
        related-work base format's registry name."""
        if self.base_format != "bccoo":
            return self.base_format
        return "bccoo+" if self.slice_count > 1 else "bccoo"

    @property
    def bit_word_dtype(self) -> np.dtype:
        return np.dtype(self.bit_word)

    def format_key(self) -> tuple:
        """Hashable key identifying the format build (conversion cache)."""
        return self._format_key

    def plan_key(self) -> tuple:
        """Hashable key identifying the compiled kernel specialization.

        Mirrors what the paper's OpenCL code generator bakes into a
        kernel binary: everything except the matrix contents.
        """
        return self._plan_key

    def with_kernel(self, **kw) -> "TuningPoint":
        """Copy with kernel-config fields overridden."""
        return replace(self, kernel=self.kernel.with_overrides(**kw))
