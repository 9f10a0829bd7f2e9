"""yaSpMV kernel configuration (the tunable half of Table 1).

Format-side parameters (block size, bit-flag word type, slice count,
column compression) live in the format constructors; everything the
*kernel* varies is here.  The ablation switches (``scan_mode``,
``cross_wg``, ``fine_grain``) reproduce the optimization-breakdown steps
of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter

from ..errors import KernelConfigError

__all__ = ["YaSpMVConfig"]

_TRANSPOSE = ("offline", "online")
_SCAN_MODES = ("matrix", "tree")
_CROSS_WG = ("adjacent", "second_kernel")
_WG_IDS = ("inorder", "atomic")


@dataclass(frozen=True)
class YaSpMVConfig:
    """One point in the kernel-side tuning space.

    Attributes
    ----------
    workgroup_size:
        Threads per workgroup (Table 1: 64/128/256/512).
    strategy:
        1 = per-thread ``intermediate_sums`` buffers (short segments);
        2 = per-workgroup result cache (long segments).
    reg_size / shm_size:
        Strategy 1 split of the intermediate-sums buffer between
        registers and shared memory; the thread-level tile size is their
        sum (Table 1 note).  The pruned search fixes ``shm_size = 0``.
    tile_size:
        Strategy 2 thread-level tile (blocks per thread).
    result_cache_multiple:
        Strategy 2 result-cache entries as a multiple of the workgroup
        size (pruned search: 1 or 2).
    transpose:
        ``"offline"`` (value/col arrays pre-transposed, coalesced reads,
        no staging buffer) or ``"online"`` (staged through shared
        memory).
    use_texture:
        Route multiplied-vector reads through the texture cache.
    scan_mode:
        ``"matrix"`` = the paper's sequential-per-thread + small parallel
        scan; ``"tree"`` = the baseline lockstep tree scan (Figure 14's
        pre-"efficient segmented sum/scan" steps).
    cross_wg:
        ``"adjacent"`` = adjacent synchronization (one kernel);
        ``"second_kernel"`` = accumulate cross-workgroup partials with a
        separate kernel launch (Figure 14's intermediate step).
    fine_grain:
        Enables the fine-grain optimizations: compressed (short) column
        indices and the early check that skips the workgroup parallel
        scan (Figure 14's final step).
    workgroup_ids:
        ``"inorder"`` relies on in-order dispatch; ``"atomic"`` fetches
        logical ids with a global atomic (the <2%-overhead fallback).
    precision:
        ``"fp32"`` (the paper's setting) or ``"fp64"``.  Affects the
        cost model only -- value bytes double, halving the effective
        arithmetic intensity -- numerics are float64 either way.  An
        extension beyond the paper's evaluation.
    """

    workgroup_size: int = 256
    strategy: int = 2
    reg_size: int = 16
    shm_size: int = 0
    tile_size: int = 16
    result_cache_multiple: int = 1
    transpose: str = "offline"
    use_texture: bool = True
    scan_mode: str = "matrix"
    cross_wg: str = "adjacent"
    fine_grain: bool = True
    workgroup_ids: str = "inorder"
    precision: str = "fp32"

    def __post_init__(self):
        if self.precision not in ("fp32", "fp64"):
            raise KernelConfigError(
                f"precision must be 'fp32' or 'fp64', got {self.precision!r}"
            )
        if self.strategy not in (1, 2):
            raise KernelConfigError(f"strategy must be 1 or 2, got {self.strategy}")
        if self.transpose not in _TRANSPOSE:
            raise KernelConfigError(f"transpose must be in {_TRANSPOSE}")
        if self.scan_mode not in _SCAN_MODES:
            raise KernelConfigError(f"scan_mode must be in {_SCAN_MODES}")
        if self.cross_wg not in _CROSS_WG:
            raise KernelConfigError(f"cross_wg must be in {_CROSS_WG}")
        if self.workgroup_ids not in _WG_IDS:
            raise KernelConfigError(f"workgroup_ids must be in {_WG_IDS}")
        if self.strategy == 1:
            if self.reg_size + self.shm_size < 1:
                raise KernelConfigError(
                    "strategy 1 needs reg_size + shm_size >= 1"
                )
        else:
            if self.tile_size < 1:
                raise KernelConfigError(f"tile_size must be >= 1, got {self.tile_size}")
            if self.result_cache_multiple < 1:
                raise KernelConfigError(
                    f"result_cache_multiple must be >= 1, got {self.result_cache_multiple}"
                )
        # The fast backend looks its bound launches up by config on every
        # call, so the 13 fields are hashed once, here.  ``_hash`` is no
        # field: equality, repr, fields(), replace() and asdict() ignore it.
        self.__dict__["_hash"] = hash(_field_values(self))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # str hashes differ between processes: a pickle carries no hash.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__["_hash"] = hash(_field_values(self))

    @property
    def value_bytes(self) -> int:
        """Bytes per matrix/vector value under this precision."""
        return 8 if self.precision == "fp64" else 4

    @property
    def effective_tile(self) -> int:
        """Blocks each thread processes sequentially."""
        return self.reg_size + self.shm_size if self.strategy == 1 else self.tile_size

    @property
    def workgroup_work(self) -> int:
        """Blocks per workgroup-level tile."""
        return self.workgroup_size * self.effective_tile

    def with_overrides(self, **kw) -> "YaSpMVConfig":
        """Copy with fields replaced (ablation helper)."""
        return replace(self, **kw)


#: The field values, in order: what the generated hash would hash.
_field_values = attrgetter(*(f.name for f in fields(YaSpMVConfig)))
