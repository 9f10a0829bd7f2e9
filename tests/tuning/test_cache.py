"""Tests for the kernel-plan and format caches."""

import weakref

from scipy import sparse

from repro.formats import BCCOOMatrix, BCCOOPlusMatrix
from repro.gpu import GTX680
from repro.kernels import YaSpMVConfig
from repro.tuning import FormatCache, KernelPlanCache, TuningPoint, pruned_space


class TestKernelPlanCache:
    def test_miss_then_hit(self):
        cache = KernelPlanCache()
        p = TuningPoint()
        _, hit1 = cache.get(p)
        _, hit2 = cache.get(p)
        assert (hit1, hit2) == (False, True)
        assert cache.misses == 1 and cache.hits == 1

    def test_reuse_across_matrices_by_design(self):
        # The key contains no matrix identity: the same configuration on
        # another matrix reuses the plan (the paper's acceleration #2).
        cache = KernelPlanCache()
        a = TuningPoint(block_height=2)
        b = TuningPoint(block_height=2)
        cache.get(a)
        _, hit = cache.get(b)
        assert hit

    def test_simulated_times(self):
        cache = KernelPlanCache()
        p1, p2 = TuningPoint(), TuningPoint(block_height=2)
        cache.get(p1)
        cache.get(p2)
        cache.get(p1)
        # 0.15 s of simulated JIT per distinct plan.
        assert cache.simulated_compile_time_s == 2 * 0.15
        assert cache.simulated_time_saved_s == 0.15
        assert len(cache) == 2


class TestFormatCache:
    def test_conversion_reused_across_kernel_geometry(self, random_matrix):
        fc = FormatCache(random_matrix())
        a = TuningPoint(kernel=YaSpMVConfig(workgroup_size=64, tile_size=16))
        b = TuningPoint(kernel=YaSpMVConfig(workgroup_size=512, tile_size=16))
        fa = fc.get(a)
        fb = fc.get(b)
        assert fa is fb
        assert fc.conversions == 1

    def test_distinct_blocks_distinct_builds(self, random_matrix):
        fc = FormatCache(random_matrix())
        fc.get(TuningPoint(block_height=1))
        fc.get(TuningPoint(block_height=2))
        assert fc.conversions == 2

    def test_builds_requested_types(self, random_matrix):
        fc = FormatCache(random_matrix(ncols=200))
        plain = fc.get(TuningPoint())
        plus = fc.get(TuningPoint(slice_count=4))
        assert isinstance(plain, BCCOOMatrix)
        assert isinstance(plus, BCCOOPlusMatrix)

    def test_col_compress_flag(self, random_matrix):
        fc = FormatCache(random_matrix(ncols=100))
        raw = fc.get(TuningPoint(col_compress=False))
        assert raw.col_storage == "int32"


def _wide_banded():
    """100 x 70_000: more block columns than ushort holds, and small
    in-tile column gaps, so ``auto`` storage delta-compresses."""
    import numpy as np
    from scipy import sparse

    rows = np.repeat(np.arange(100), 10)
    cols = rows * 600 + np.tile(np.arange(10), 100)
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(100, 70_000))


class TestFormatCacheLayouts:
    def test_each_layout_is_extracted_once(self, random_matrix):
        fc = FormatCache(random_matrix(ncols=200))
        for word in ("uint8", "uint16", "uint32"):
            for slices in (1, 2):
                for tile in (8, 16):
                    fc.get(
                        TuningPoint(
                            bit_word=word,
                            slice_count=slices,
                            kernel=YaSpMVConfig(tile_size=tile),
                        )
                    )
        assert fc.layouts == 2

    def test_ushort_format_serves_every_tile(self, random_matrix):
        fc = FormatCache(random_matrix())
        a = fc.get(TuningPoint(kernel=YaSpMVConfig(tile_size=8)))
        b = fc.get(TuningPoint(kernel=YaSpMVConfig(tile_size=32)))
        assert a.col_storage == "ushort"
        assert a is b and fc.conversions == 1

    def test_delta_formats_are_built_per_tile(self):
        fc = FormatCache(_wide_banded())
        a = fc.get(TuningPoint(kernel=YaSpMVConfig(tile_size=8)))
        b = fc.get(TuningPoint(kernel=YaSpMVConfig(tile_size=32)))
        assert a.col_storage == b.col_storage == "delta"
        assert a.delta.tile_size == 8 and b.delta.tile_size == 32
        assert fc.conversions == 2 and fc.layouts == 1

    def test_formats_equal_fresh_builds(self, random_matrix):
        import numpy as np

        from repro.tuning.cache import build_format

        A = random_matrix(ncols=200)
        fc = FormatCache(A)
        for point in (
            TuningPoint(bit_word="uint8", block_height=2),
            TuningPoint(bit_word="uint32", block_height=2),
            TuningPoint(slice_count=4, block_width=2),
        ):
            cached, fresh = fc.get(point), build_format(A, point)
            assert type(cached) is type(fresh)
            cached = getattr(cached, "stacked", cached)
            fresh = getattr(fresh, "stacked", fresh)
            assert np.array_equal(cached.flags.words, fresh.flags.words)
            assert np.array_equal(cached.columns(), fresh.columns())
            assert np.array_equal(cached.values, fresh.values)
            assert np.array_equal(cached.nonempty_block_rows, fresh.nonempty_block_rows)

    def test_walk_keeps_one_block_size_alive(self):
        # 20k columns overflow the texture cache, so every block size
        # also has a sliced layout.
        A = sparse.random(300, 20_000, density=0.002, random_state=0, format="csr")
        points = list(pruned_space(A, GTX680))
        fc = FormatCache(A)
        earlier, current, block = [], [], None
        for point in points:
            key = (point.base_format, point.block_height, point.block_width)
            if key != block:
                earlier, current, block = earlier + current, [], key
            current.append(weakref.ref(fc.get(point)))
            # The formats of every block size the walk has left are gone.
            assert all(ref() is None for ref in earlier)
        layouts = {
            (p.block_height, p.block_width, p.slice_count)
            for p in points
            if p.base_format == "bccoo"
        }
        assert {s for _, _, s in layouts} == {1, 2}
        assert fc.layouts == len(layouts)
