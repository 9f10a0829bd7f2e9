"""Shared machinery for the yaSpMV kernels (fast path and faithful path).

Holds the launch-time preparation both implementations need: padding the
BCCOO arrays to the workgroup working set and mapping each block to the
vector elements it gathers.

A profile-only launch needs none of those arrays.  It reads a format's
:class:`FormatProfile` instead -- row-stop positions and vector reads,
decoded once per format -- and pads by arithmetic.  What a launch
derives from its geometry alone (stop counts, full workgroups, the
adjacent-sync chains) is memoized there too, once per geometry.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ..fault.injection import active_plan
from ..formats.bccoo import BCCOOMatrix
from ..gpu.adjacent_sync import chain_segments
from ..gpu.caches import PaddedReads
from ..obs.stages import active_stages
from ..util import round_up
from .config import YaSpMVConfig

__all__ = ["PaddedBCCOO", "prepare", "FormatProfile"]


@dataclass
class PaddedBCCOO:
    """BCCOO arrays padded to a whole number of workgroup tiles.

    ``stops``/``cols``/``values`` cover ``nb_padded`` blocks, a multiple
    of ``config.workgroup_work``; blocks past ``nb_valid`` are padding
    (zero values, continue flags) exactly as section 2.2 prescribes.
    """

    stops: np.ndarray  # (nb_padded,) bool
    cols: np.ndarray  # (nb_padded,) int64, decompressed
    values: np.ndarray  # (nb_padded, h, w)
    nb_valid: int
    n_workgroups: int
    n_threads_total: int
    config: YaSpMVConfig

    @property
    def nb_padded(self) -> int:
        return int(self.stops.shape[0])

    @property
    def tile(self) -> int:
        return self.config.effective_tile

    def thread_stops(self) -> np.ndarray:
        """Stops reshaped to ``(n_threads_total, tile)``."""
        return self.stops.reshape(-1, self.tile)

    def workgroup_stops(self) -> np.ndarray:
        """Stops reshaped to ``(n_workgroups, workgroup_work)``."""
        return self.stops.reshape(self.n_workgroups, -1)


def prepare(fmt: BCCOOMatrix, config: YaSpMVConfig) -> PaddedBCCOO:
    """Pad and decode a BCCOO instance for a given launch configuration."""
    wg_work = config.workgroup_work
    nb = fmt.nblocks
    nb_pad = fmt.nblocks_padded
    target = round_up(max(nb_pad, 1), wg_work)

    stops = np.zeros(target, dtype=bool)
    stops[:nb_pad] = fmt.stops()
    # Padding past the real blocks must be continue flags ('1' bits);
    # fmt.stops() already guarantees that for its own padding, and the
    # zeros-initialized tail (False = continue) matches for ours.

    cols = np.zeros(target, dtype=np.int64)
    cols[:nb_pad] = fmt.columns().astype(np.int64)

    # Fault-injection hooks: perturb the *decoded copies* this launch
    # reads (a corrupted flag word / truncated delta stream), never the
    # format instance itself.  No-ops without an active plan.
    plan = active_plan()
    if plan is not None:
        stops = plan.perturb_stops(stops, n_valid=nb)
        cols = plan.perturb_columns(cols, n_valid=nb)

    h, w = fmt.block_height, fmt.block_width
    values = np.zeros((target, h, w), dtype=np.float64)
    values[:nb_pad] = fmt.values

    n_wg = target // wg_work
    return PaddedBCCOO(
        stops=stops,
        cols=cols,
        values=values,
        nb_valid=nb,
        n_workgroups=n_wg,
        n_threads_total=target // config.effective_tile,
        config=config,
    )


def gather_map(
    cols: np.ndarray, block_width: int, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """The vector elements each block reads, ``(nb, w)``, with the slots
    past the last column clamped to 0, and the mask of in-range slots."""
    gather = cols[:, None] * block_width + np.arange(block_width, dtype=np.int64)[None, :]
    valid = gather < ncols
    return np.where(valid, gather, 0), valid


class FormatProfile:
    """What every profile-only launch of one BCCOO format reads, decoded
    once: the positions of the row stops its bit flags encode, its padded
    block count, and the vector reads of its decoded columns.

    A launch pads the format to whole workgroup tiles with blocks that
    hold no stop and read column 0, so a candidate's profile needs only
    arithmetic on these: stop counts per thread and per workgroup come
    from the stop positions, and vector traffic from
    :class:`~repro.gpu.caches.PaddedReads`.

    Formats built from one block layout decode to the same stops and
    columns whatever their bit word, column storage or delta tile.  The
    tuner therefore hands each format the profile of the first format
    built from its layout (``share``); whatever decodes equal is shared
    -- the stop positions with their memoized counts and geometries,
    the reads with their sorted cache-model windows and traffic -- so
    that work is done once per layout, and once per launch geometry.

    The memoized arrays are read-only: every launch of a geometry hands
    the same one to its cost profile.
    """

    __slots__ = ("nblocks_padded", "stop_pos", "cols", "reads", "_counts")

    def __init__(self, fmt: BCCOOMatrix, share: "FormatProfile | None" = None):
        stops = fmt.stops()
        self.nblocks_padded = int(stops.shape[0])
        stop_pos = np.flatnonzero(stops)
        if share is not None and np.array_equal(stop_pos, share.stop_pos):
            self.stop_pos, self._counts = share.stop_pos, share._counts
        else:
            self.stop_pos, self._counts = stop_pos, {}
        cols = fmt.columns()
        # Padding blocks read column 0; a stream whose padding holds
        # other columns keeps them as reads of its own.
        nb = fmt.nblocks
        cols = cols[:nb] if not cols[nb:].any() else cols
        if share is not None and np.array_equal(cols, share.cols):
            self.cols, self.reads = share.cols, share.reads
        else:
            w = fmt.block_width
            self.cols = cols
            reads, _ = gather_map(cols.astype(np.int64), w, fmt.ncols)
            pad, _ = gather_map(np.zeros(1, dtype=np.int64), w, fmt.ncols)
            self.reads = PaddedReads(reads, pad)

    @classmethod
    def of(cls, fmt: BCCOOMatrix, share: "FormatProfile | None" = None):
        """``fmt``'s profile, decoded on first use and kept for the
        format's lifetime (``share`` only matters on first use)."""
        profile = _PROFILES.get(fmt)
        if profile is None:
            profile = cls(fmt, share)
            with _PROFILES_LOCK:
                profile = _PROFILES.setdefault(fmt, profile)
        return profile

    def threads_with_stops(self, tile: int) -> np.ndarray:
        """Ascending ids of the threads holding a row stop when each
        thread takes ``tile`` blocks."""
        key = ("threads", tile)
        threads = self._counts.get(key)
        if threads is None:
            ids = self.stop_pos // tile
            first = np.ones(ids.shape, dtype=bool)
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            threads = self._counts.setdefault(key, _read_only(ids[first]))
        return threads

    def workgroup_stops(self, wg_work: int, n_workgroups: int) -> np.ndarray:
        """Row stops per workgroup when each takes ``wg_work`` blocks."""
        key = ("workgroups", wg_work, n_workgroups)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts.setdefault(
                key,
                _read_only(
                    np.bincount(self.stop_pos // wg_work, minlength=n_workgroups)
                ),
            )
        return counts

    def geometry(
        self, tile: int, workgroup_size: int, n_workgroups: int
    ) -> tuple[int, np.ndarray]:
        """``(full_workgroups, sync_chains)`` of a launch whose threads
        take ``tile`` blocks, ``workgroup_size`` threads to each of its
        ``n_workgroups`` workgroups: the workgroups in which every
        thread's tile holds a row stop, and the lengths of the
        adjacent-sync chains (:func:`~repro.gpu.adjacent_sync.chain_segments`
        of the workgroups holding a stop).

        Computed once per geometry, for every configuration and padded
        format that shares it; each computation counts as one
        ``geometries`` on the active stage clock.
        """
        key = ("geometry", tile, workgroup_size, n_workgroups)
        geometry = self._counts.get(key)
        if geometry is None:
            per_wg = np.bincount(self.threads_with_stops(tile) // workgroup_size)
            full = int(np.count_nonzero(per_wg == workgroup_size))
            has_stop = self.workgroup_stops(tile * workgroup_size, n_workgroups) > 0
            chains = _read_only(chain_segments(has_stop))
            geometry = self._counts.setdefault(key, (full, chains))
            clock = active_stages()
            if clock is not None:
                clock.count("geometries")
        return geometry


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Format instance -> its profile; weak-keyed, so a profile dies with
#: its format (and a profile holds no reference to one).
_PROFILES: "weakref.WeakKeyDictionary[BCCOOMatrix, FormatProfile]" = (
    weakref.WeakKeyDictionary()
)
_PROFILES_LOCK = threading.Lock()

