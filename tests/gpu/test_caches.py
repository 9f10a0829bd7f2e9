"""Tests for the texture-cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import LRUCache, vector_read_traffic, windowed_miss_estimate
from repro.gpu.caches import PaddedReads, PaddedWindows


def per_window_misses(line_ids, capacity_lines, window=None) -> int:
    """The estimator's definition, one ``np.unique`` per window."""
    ids = np.asarray(line_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        return 0
    if capacity_lines <= 0:
        return int(ids.size)
    if window is None:
        window = max(4 * capacity_lines, 1)
    return sum(
        int(np.unique(ids[start : start + window]).size)
        for start in range(0, ids.size, window)
    )


@st.composite
def line_streams(draw):
    """``(stream, capacity, window)``: 0 to 5 windows of int64 line ids,
    the last window either whole or a short tail."""
    capacity = draw(st.sampled_from([-4, 0, 1, 1536]))
    window = draw(st.sampled_from([None, 1, 32]))
    span = window if window is not None else max(4 * capacity, 1)
    n_windows = draw(st.integers(0, 5))
    last = draw(st.one_of(st.just(span), st.integers(1, span)))
    n = (n_windows - 1) * span + last if n_windows else 0
    low = draw(st.integers(-(2**62), 2**62))
    spread = draw(st.sampled_from([1, 2, 40, 5000, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stream = rng.integers(low, low + spread, size=n, dtype=np.int64)
    return stream, capacity, window


class TestLRUCache:
    def test_cold_misses(self):
        c = LRUCache(4)
        for i in range(4):
            assert not c.access(i)
        assert c.misses == 4 and c.hits == 0

    def test_hits_on_reuse(self):
        c = LRUCache(4)
        c.run(np.array([0, 1, 2, 0, 1, 2]))
        assert c.hits == 3

    def test_eviction_order_is_lru(self):
        c = LRUCache(2)
        c.access(0)
        c.access(1)
        c.access(0)  # 1 is now LRU
        c.access(2)  # evicts 1
        assert c.access(0)  # still resident
        assert not c.access(1)  # was evicted

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestWindowedEstimate:
    def test_matches_lru_on_streaming(self):
        # Pure streaming: both models report one miss per line.
        stream = np.arange(10_000)
        assert windowed_miss_estimate(stream, 512) == 10_000
        lru = LRUCache(512)
        lru.run(stream)
        assert lru.misses == 10_000

    def test_close_to_lru_on_loopy_stream(self, rng):
        stream = np.concatenate(
            [np.tile(np.arange(100), 10), rng.integers(0, 5000, 3000)]
        )
        est = windowed_miss_estimate(stream, 512)
        lru = LRUCache(512)
        lru.run(stream)
        assert est == pytest.approx(lru.misses, rel=0.25)

    def test_tiny_reuse_window_hits(self):
        stream = np.repeat(np.arange(100), 8)  # immediate reuse
        assert windowed_miss_estimate(stream, 512) <= 110

    def test_zero_capacity_all_miss(self):
        assert windowed_miss_estimate(np.arange(10), 0) == 10

    def test_empty(self):
        assert windowed_miss_estimate(np.array([], dtype=np.int64), 16) == 0

    @settings(max_examples=300, deadline=None)
    @given(line_streams())
    def test_equals_per_window_definition(self, case):
        stream, capacity, window = case
        assert windowed_miss_estimate(stream, capacity, window) == (
            per_window_misses(stream, capacity, window)
        )


class TestVectorReadTraffic:
    def test_conservation(self, rng):
        idx = rng.integers(0, 4096, 2000)
        dram, cached = vector_read_traffic(idx, 4, 48 * 1024, 32)
        assert dram >= 0 and cached >= 0
        # Cached bytes never exceed total requested bytes.
        assert cached <= idx.size * 4

    def test_local_stream_mostly_cached(self):
        idx = np.repeat(np.arange(64), 50)  # heavy reuse of 64 elements
        dram, cached = vector_read_traffic(idx, 4, 48 * 1024, 32)
        assert cached > dram

    def test_scattered_stream_mostly_dram(self, rng):
        idx = rng.integers(0, 10_000_000, 5000)
        dram, cached = vector_read_traffic(idx, 4, 12 * 1024, 32)
        assert dram > cached

    def test_no_cache_worse_or_equal(self, rng):
        idx = rng.integers(0, 100_000, 5000)
        with_cache, _ = vector_read_traffic(idx, 4, 48 * 1024, 32, use_cache=True)
        without, _ = vector_read_traffic(idx, 4, 48 * 1024, 32, use_cache=False)
        assert without >= with_cache

    def test_slicing_improves_locality(self, rng):
        # The BCCOO+ mechanism: the same accesses grouped by slice touch
        # fewer distinct lines per reuse window.
        n = 20_000
        cols = rng.integers(0, 65536, n)
        interleaved = cols
        sliced = np.sort(cols) // 1  # grouping by value = extreme slicing
        d_inter, _ = vector_read_traffic(interleaved, 4, 12 * 1024, 32)
        d_sliced, _ = vector_read_traffic(sliced, 4, 12 * 1024, 32)
        assert d_sliced < d_inter

    def test_empty(self):
        assert vector_read_traffic(np.array([], dtype=np.int64), 4, 1024, 32) == (0, 0)


@st.composite
def padded_line_streams(draw):
    """``(lines, capacity, window, n)``: a stream of line ids and a padded
    length ``n``: no padding, padding inside the stream's last window,
    or padding over several windows; the stream may be shorter than one
    window."""
    capacity = draw(st.sampled_from([-4, 0, 1, 3, 1536]))
    window = draw(st.sampled_from([None, 1, 7, 32]))
    span = window if window is not None else max(4 * capacity, 1)
    m = draw(st.integers(0, 3 * span + 2))
    pad = draw(
        st.one_of(
            st.just(0),
            st.integers(1, max(span - 1, 1)),
            st.integers(span, 3 * span + 1),
        )
    )
    spread = draw(st.sampled_from([1, 3, 50, 5000]))
    low = draw(st.sampled_from([0, 1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = rng.integers(low, low + spread, size=m, dtype=np.int64)
    return lines, capacity, window, m + pad


class TestPaddedWindows:
    """The closed form equals the estimator on the materialized stream."""

    @settings(max_examples=400, deadline=None)
    @given(padded_line_streams())
    def test_equals_estimate_of_padded_stream(self, case):
        lines, capacity, window, n = case
        padded = np.concatenate([lines, np.zeros(n - lines.size, dtype=np.int64)])
        windows = PaddedWindows(lines, capacity, window)
        assert windows.misses(n) == per_window_misses(padded, capacity, window)
        assert windows.misses(n) == windowed_miss_estimate(padded, capacity, window)

    def test_one_summary_serves_every_padded_length(self):
        lines = np.random.default_rng(1).integers(0, 40, size=100)
        windows = PaddedWindows(lines, 3)  # 12-read windows
        for n in range(100, 160):
            padded = np.concatenate([lines, np.zeros(n - 100, dtype=np.int64)])
            assert windows.misses(n) == windowed_miss_estimate(padded, 3)

    def test_rejects_a_shorter_length(self):
        with pytest.raises(ValueError):
            PaddedWindows(np.arange(10), 4).misses(9)


@st.composite
def padded_gathers(draw):
    """``(indices, pad, n_reads, element_bytes, cache_bytes, line_bytes,
    use_cache)``: a block gather stream of width ``w`` and the reads of
    one padding block, as a BCCOO launch pads it."""
    w = draw(st.sampled_from([1, 2, 4]))
    ncols = draw(st.sampled_from([1, 3, 200, 100_000]))
    nb = draw(st.integers(0, 600))
    pad_blocks = draw(st.one_of(st.just(0), st.integers(1, 40), st.integers(41, 3000)))
    element_bytes = draw(st.sampled_from([4, 8]))
    line_bytes = draw(st.sampled_from([32, 8]))
    cache_bytes = draw(st.sampled_from([12 * 1024, 48 * 1024, 64]))
    use_cache = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = np.sort(rng.integers(0, max(ncols // w, 1) + 1, size=nb))
    gather = cols[:, None] * w + np.arange(w)[None, :]
    indices = np.where(gather < ncols, gather, 0).ravel()
    pad = np.where(np.arange(w) < ncols, np.arange(w), 0)
    n_reads = (nb + pad_blocks) * w
    return indices, pad, n_reads, element_bytes, cache_bytes, line_bytes, use_cache


class TestPaddedReads:
    @settings(max_examples=300, deadline=None)
    @given(padded_gathers())
    def test_equals_traffic_of_padded_stream(self, case):
        indices, pad, n_reads, elem, cache, line, use_cache = case
        padded = np.concatenate([indices, np.resize(pad, n_reads - indices.size)])
        reads = PaddedReads(indices, pad)
        assert reads.traffic(n_reads, elem, cache, line, use_cache) == (
            vector_read_traffic(padded, elem, cache, line, use_cache)
        )

    def test_geometries_are_memoized_separately(self):
        indices = np.arange(0, 4000, 3)
        reads = PaddedReads(indices, np.zeros(1, dtype=np.int64))
        for elem in (4, 8):
            for use_cache in (True, False):
                padded = np.concatenate([indices, np.zeros(700, dtype=np.int64)])
                assert reads.traffic(indices.size + 700, elem, 48 * 1024, 32, use_cache) == (
                    vector_read_traffic(padded, elem, 48 * 1024, 32, use_cache)
                )
