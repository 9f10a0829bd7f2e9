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

A launch pads its block stream to whole workgroup tiles, and padding
blocks read line 0 only.  :class:`PaddedReads` sorts the windows of the
unpadded stream once and then returns, for any padded length, the
traffic :func:`vector_read_traffic` reports on the materialized padded
stream (:class:`PaddedWindows` holds the closed form).
"""

from __future__ import annotations

import numpy as np

from ..util import ceil_div

__all__ = [
    "windowed_miss_estimate",
    "LRUCache",
    "vector_read_traffic",
    "PaddedWindows",
    "PaddedReads",
]


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

    A stream shorter than one window is one window.  Computed without a
    per-window loop (see :class:`PaddedWindows`): the whole windows,
    one per row, are sorted row-wise, and each row's distinct count is
    one plus its number of adjacent changes.
    """
    ids = np.asarray(line_ids, dtype=np.int64).ravel()
    return PaddedWindows(ids, capacity_lines, window).misses(ids.size)


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


def _read_model(
    element_bytes: int, cache_bytes: int, line_bytes: int, use_cache: bool
) -> tuple[int, int, int]:
    """``(elements per line, capacity in lines, window)`` of vector reads
    through the texture path (see :func:`vector_read_traffic`)."""
    elems_per_line = max(line_bytes // element_bytes, 1)
    if use_cache:
        capacity = max(cache_bytes // line_bytes, 1)
        return elems_per_line, capacity, 4 * capacity
    # Without the texture cache only intra-warp coalescing merges
    # accesses: count distinct lines per 32-access (one-warp) window.
    return elems_per_line, 32, 32


def _split(misses: int, n_reads: int, element_bytes: int, line_bytes: int):
    """``(dram_bytes, cached_bytes)`` of ``n_reads`` with ``misses``."""
    dram = misses * line_bytes
    cached = max(n_reads * element_bytes - dram, 0)
    return int(dram), int(cached)


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
    elems_per_line, capacity, window = _read_model(
        element_bytes, cache_bytes, line_bytes, use_cache
    )
    misses = windowed_miss_estimate(idx // elems_per_line, capacity, window)
    return _split(misses, int(idx.size), element_bytes, line_bytes)


def _distinct_sorted_rows(rows: np.ndarray) -> int:
    """Distinct values summed over the rows of a row-wise sorted 2-D array."""
    return rows.shape[0] * (rows.shape[1] > 0) + int(
        np.count_nonzero(rows[:, 1:] != rows[:, :-1])
    )


class PaddedWindows:
    """:func:`windowed_miss_estimate` of a line stream followed by any
    number of reads of line 0, in closed form.

    Appending reads of line 0 adds windows that read only line 0 (one
    miss each) and adds line 0 to the window that holds the stream's
    end; no other window changes.  So the whole windows of the stream
    are sorted once, here, and :meth:`misses` returns the estimate for
    any padded length from four integers -- the same integer the
    estimator returns on the materialized padded stream.
    """

    __slots__ = ("n", "capacity", "window", "_full", "_tail", "_tail_has_zero")

    def __init__(
        self, line_ids: np.ndarray, capacity_lines: int, window: int | None = None
    ):
        ids = np.asarray(line_ids, dtype=np.int64).ravel()
        self.n = int(ids.size)
        self.capacity = int(capacity_lines)
        if window is None:
            window = 4 * self.capacity
        self.window = max(int(window), 1)
        q = self.n // self.window
        whole = np.sort(ids[: q * self.window].reshape(q, self.window), axis=1)
        tail = np.sort(ids[q * self.window :]).reshape(1, -1)
        #: Distinct lines summed over the stream's whole windows.
        self._full = _distinct_sorted_rows(whole)
        #: Distinct lines in the stream's last, partial window (0 if none).
        self._tail = _distinct_sorted_rows(tail)
        self._tail_has_zero = bool(np.any(tail == 0))

    def misses(self, n: int) -> int:
        """The estimate for the stream followed by ``n - self.n`` reads of
        line 0 (``n`` is the padded length)."""
        pad = n - self.n
        if pad < 0:
            raise ValueError(f"padded length {n} is shorter than the stream ({self.n})")
        if n == 0:
            return 0
        if self.capacity <= 0:
            return n
        tail_with_zero = self._tail + (not self._tail_has_zero)
        if n < self.window:
            # The estimator shrinks its window to the stream: one window.
            return tail_with_zero if pad else self._tail
        if not pad:
            return self._full + self._tail
        whole, partial = divmod(self.n, self.window)
        boundary = int(partial > 0)
        # The boundary window reads the tail and line 0; every window
        # after it reads line 0 only.
        return (
            self._full
            + boundary * tail_with_zero
            + ceil_div(n, self.window)
            - whole
            - boundary
        )


class PaddedReads:
    """Vector reads of a block stream that a launch pads with blocks
    reading ``pad``.

    :meth:`traffic` returns what :func:`vector_read_traffic` reports for
    the stream padded to ``n_reads`` reads.  When every padding read
    falls on line 0 -- the case for every block width, element size and
    line size of the registered devices -- the windows are sorted once
    per cache geometry and each padded length costs a closed form
    (:class:`PaddedWindows`); otherwise the padded stream is built.
    Either way each padded length is priced once per read model: every
    launch padded to it reads the same traffic.
    """

    __slots__ = ("indices", "pad", "_windows", "_traffic")

    def __init__(self, element_indices: np.ndarray, pad: np.ndarray):
        self.indices = np.asarray(element_indices, dtype=np.int64).ravel()
        self.pad = np.asarray(pad, dtype=np.int64).ravel()
        self._windows: dict[tuple[int, int, int], PaddedWindows] = {}
        self._traffic: dict[tuple, tuple[int, int]] = {}

    def traffic(
        self,
        n_reads: int,
        element_bytes: int,
        cache_bytes: int,
        line_bytes: int,
        use_cache: bool = True,
    ) -> tuple[int, int]:
        """``(dram_bytes, cached_bytes)`` of the stream padded to
        ``n_reads`` reads, computed once per padded length and read
        model."""
        key = (n_reads, element_bytes, cache_bytes, line_bytes, use_cache)
        traffic = self._traffic.get(key)
        if traffic is None:
            traffic = self._traffic.setdefault(key, self._compute(*key))
        return traffic

    def _compute(
        self,
        n_reads: int,
        element_bytes: int,
        cache_bytes: int,
        line_bytes: int,
        use_cache: bool,
    ) -> tuple[int, int]:
        if n_reads == 0:
            return 0, 0
        geometry = _read_model(element_bytes, cache_bytes, line_bytes, use_cache)
        elems_per_line, capacity, window = geometry
        if self.pad.size and self.pad.max() >= elems_per_line:
            padded = np.concatenate(
                [self.indices, np.resize(self.pad, n_reads - self.indices.size)]
            )
            return vector_read_traffic(
                padded, element_bytes, cache_bytes, line_bytes, use_cache
            )
        windows = self._windows.get(geometry)
        if windows is None:
            windows = self._windows.setdefault(
                geometry,
                PaddedWindows(self.indices // elems_per_line, capacity, window),
            )
        return _split(windows.misses(n_reads), n_reads, element_bytes, line_bytes)
