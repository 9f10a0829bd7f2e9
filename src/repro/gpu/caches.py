"""Texture / read-only cache model for multiplied-vector accesses.

SpMV reads the matrix once but the vector many times; whether those
re-reads hit cache decides a large slice of the bandwidth bill.  The
paper routes vector reads through the texture cache (a Table 1 tuning
knob, "always on" in the pruned search) and motivates BCCOO+ by the
higher hit rate of slice-local column indices.

Two estimators are provided:

* :func:`windowed_miss_estimate` (default) -- a reuse-window
  approximation: the access stream is cut into windows holding roughly
  one cache's worth of distinct lines; every distinct line per window is
  one miss.  This tracks LRU closely for SpMV's streaming-with-locality
  patterns and, as one row-wise sort, is fast enough for the
  auto-tuner's inner loop.
* :class:`LRUCache` -- an exact set-associative-free (fully associative)
  LRU simulator for validation on small streams.
"""

from __future__ import annotations

import numpy as np

from ..util import ceil_div

__all__ = ["windowed_miss_estimate", "LRUCache", "vector_read_traffic"]


def windowed_miss_estimate(
    line_ids: np.ndarray, capacity_lines: int, window: int | None = None
) -> int:
    """Approximate LRU miss count for an access stream of cache lines.

    The stream is split into windows of ``window`` accesses (default
    ``4 * capacity_lines``); distinct lines per window are counted as
    misses.  Lines re-referenced within a window (the common SpMV case:
    several non-zeros of nearby rows sharing vector lines) are hits;
    reuse across windows -- further apart than the cache can remember --
    misses, as it would under LRU.

    Computed without a per-window loop: the stream, reshaped to one
    window per row (the last padded with its own last id, which adds no
    distinct line), is sorted row-wise, and each row's distinct count is
    one plus its number of adjacent changes.
    """
    ids = np.asarray(line_ids, dtype=np.int64).ravel()
    n = ids.size
    if n == 0:
        return 0
    if capacity_lines <= 0:
        return int(n)
    if window is None:
        window = max(4 * capacity_lines, 1)
    window = min(max(int(window), 1), n)
    n_windows = ceil_div(n, window)
    pad = n_windows * window - n
    if pad:
        ids = np.concatenate([ids, np.full(pad, ids[-1], dtype=np.int64)])
    rows = np.sort(ids.reshape(n_windows, window), axis=1)
    return n_windows + int(np.count_nonzero(rows[:, 1:] != rows[:, :-1]))


class LRUCache:
    """Exact fully-associative LRU over line ids (validation tool)."""

    def __init__(self, capacity_lines: int):
        if capacity_lines < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_lines}")
        self.capacity = int(capacity_lines)
        self._stamp: dict[int, int] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def access(self, line_id: int) -> bool:
        """Touch one line; returns True on hit."""
        self._clock += 1
        if line_id in self._stamp:
            self._stamp[line_id] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        if len(self._stamp) >= self.capacity:
            victim = min(self._stamp, key=self._stamp.__getitem__)
            del self._stamp[victim]
        self._stamp[line_id] = self._clock
        return False

    def run(self, line_ids: np.ndarray) -> tuple[int, int]:
        """Feed a whole stream; returns ``(hits, misses)`` of this run."""
        h0, m0 = self.hits, self.misses
        for lid in np.asarray(line_ids).ravel():
            self.access(int(lid))
        return self.hits - h0, self.misses - m0


def vector_read_traffic(
    element_indices: np.ndarray,
    element_bytes: int,
    cache_bytes: int,
    line_bytes: int,
    use_cache: bool = True,
) -> tuple[int, int]:
    """DRAM vs cached bytes for vector reads through the texture path.

    Parameters
    ----------
    element_indices:
        Flat stream of vector element indices in kernel access order.
    element_bytes:
        Size of one vector element (4 for fp32 accounting).
    cache_bytes / line_bytes:
        Texture cache geometry of the device.
    use_cache:
        False models the "no texture cache" tuning choice: every access
        goes to DRAM at line granularity (L2 still merges a warp's
        accesses, approximated by counting distinct lines per warp-sized
        run -- which :func:`windowed_miss_estimate` with one-warp windows
        reproduces).

    Returns
    -------
    ``(dram_bytes, cached_bytes)``: DRAM traffic from misses, and bytes
    served from cache.
    """
    idx = np.asarray(element_indices, dtype=np.int64).ravel()
    if idx.size == 0:
        return 0, 0
    elems_per_line = max(line_bytes // element_bytes, 1)
    lines = idx // elems_per_line
    total_bytes = int(idx.size) * element_bytes
    if use_cache:
        capacity = max(cache_bytes // line_bytes, 1)
        misses = windowed_miss_estimate(lines, capacity)
    else:
        # Without the texture cache only intra-warp coalescing merges
        # accesses: count distinct lines per 32-access (one-warp) window.
        misses = windowed_miss_estimate(lines, capacity_lines=32, window=32)
    dram = misses * line_bytes
    cached = max(total_bytes - dram, 0)
    return int(dram), int(cached)
