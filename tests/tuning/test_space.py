"""Tests for search-space enumeration and pruning."""

import numpy as np
import pytest
from scipy import sparse

from repro.gpu import GTX680
from repro.tuning import (
    WORKGROUP_SIZES,
    candidate_slice_counts,
    exhaustive_space,
    pruned_space,
)


@pytest.fixture
def narrow(random_matrix):
    return random_matrix(nrows=100, ncols=100, density=0.05)


@pytest.fixture
def wide():
    return sparse.random(100, 500_000, density=2e-5, random_state=0, format="csr")


class TestPrunedSpace:
    def test_section4_heuristics_hold(self, narrow):
        points = list(pruned_space(narrow, GTX680))
        assert points
        blocks = {(p.block_height, p.block_width) for p in points}
        assert len(blocks) <= 4  # only the 4 smallest footprints
        assert all(p.kernel.transpose == "offline" for p in points)
        assert all(p.kernel.use_texture for p in points)
        assert all(
            p.kernel.strategy != 1 or p.kernel.shm_size == 0 for p in points
        )
        assert all(
            p.kernel.strategy != 2 or p.kernel.result_cache_multiple in (1, 2)
            for p in points
        )

    def test_narrow_matrix_skips_bccoo_plus(self, narrow):
        points = list(pruned_space(narrow, GTX680))
        assert all(p.slice_count == 1 for p in points)

    def test_wide_matrix_includes_bccoo_plus(self, wide):
        points = list(pruned_space(wide, GTX680))
        assert any(p.slice_count > 1 for p in points)

    def test_much_smaller_than_exhaustive(self, narrow):
        pruned = sum(1 for _ in pruned_space(narrow, GTX680))
        exhaustive = sum(1 for _ in exhaustive_space(narrow, GTX680))
        assert pruned * 4 < exhaustive


class TestSliceCandidates:
    def test_small_vector_one(self, narrow):
        assert candidate_slice_counts(narrow, GTX680) == (1,)

    def test_large_vector_scales_with_overflow(self, wide):
        counts = candidate_slice_counts(wide, GTX680)
        assert counts[0] == 1
        assert counts[-1] >= 500_000 * 4 / GTX680.tex_cache_bytes / 2

    def test_counts_are_valid_slice_counts(self, wide):
        from repro.tuning import SLICE_COUNTS

        for c in candidate_slice_counts(wide, GTX680):
            assert c in SLICE_COUNTS


class TestExhaustiveSpace:
    def test_restrictable(self, narrow):
        points = list(
            exhaustive_space(
                narrow,
                GTX680,
                block_heights=(1,),
                block_widths=(1,),
                bit_words=("uint32",),
            )
        )
        assert points
        bccoo = [p for p in points if p.base_format == "bccoo"]
        assert {(p.block_height, p.block_width, p.bit_word)
                for p in bccoo} == {(1, 1, "uint32")}
        # Every workgroup size and candidate slice count is enumerated.
        assert {p.kernel.workgroup_size for p in points} == set(WORKGROUP_SIZES)
        assert {p.slice_count for p in bccoo} == set(
            candidate_slice_counts(narrow, GTX680)
        )
        # Unpruned axes present: both transposes, both texture modes.
        assert {p.kernel.transpose for p in points} == {"offline", "online"}
        assert {p.kernel.use_texture for p in points} == {True, False}
        assert {p.col_compress for p in points} == {True, False}
