"""Tests for the Table 3 footprint comparison machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.formats import (
    FP32,
    FP64,
    BCCOOMatrix,
    bccoo_block_candidates,
    best_bccoo_footprint,
    best_single_footprint,
    cocktail_footprint,
    footprint_report,
)
from repro.formats.footprint import BLOCK_HEIGHTS, BLOCK_WIDTHS


@pytest.fixture
def medium(rng):
    return sparse.random(300, 300, density=0.03, random_state=5, format="csr")


class TestBestSingle:
    def test_returns_valid_label(self, medium):
        nbytes, label = best_single_footprint(medium)
        assert nbytes > 0
        assert isinstance(label, str) and label

    def test_dia_wins_on_stencil(self, stencil_matrix):
        _, label = best_single_footprint(stencil_matrix)
        assert label == "dia"

    def test_beats_or_ties_coo(self, medium):
        from repro.formats import COOMatrix

        nbytes, _ = best_single_footprint(medium)
        assert nbytes <= COOMatrix.from_scipy(medium).footprint_bytes()


class TestCocktail:
    def test_never_worse_than_best_single(self, medium, skewed_matrix):
        for A in (medium, skewed_matrix):
            single, _ = best_single_footprint(A)
            cocktail, _ = cocktail_footprint(A)
            assert cocktail <= single

    def test_split_helps_skewed(self, skewed_matrix):
        _, recipe = cocktail_footprint(skewed_matrix)
        # The hub row should push the cocktail to an actual partition
        # (or at worst the single recipe; either way a recipe string).
        assert recipe


class TestBccooCandidates:
    def test_keep_limit(self, medium):
        assert len(bccoo_block_candidates(medium, keep=4)) == 4
        assert len(bccoo_block_candidates(medium, keep=2)) == 2

    def test_sorted_ascending(self, medium):
        cands = bccoo_block_candidates(medium, keep=12)
        sizes = [b for _, _, b in cands]
        assert sizes == sorted(sizes)

    def test_dense_prefers_large_blocks(self):
        import numpy as np

        A = sparse.csr_matrix(np.ones((64, 64)))
        h, w, _ = bccoo_block_candidates(A, keep=1)[0]
        assert h * w == 16  # 4x4 wins: fewest index bytes, no fill-in

    def test_scattered_prefers_1x1(self):
        A = sparse.random(400, 400, density=0.005, random_state=2, format="csr")
        h, w, _ = bccoo_block_candidates(A, keep=1)[0]
        assert (h, w) == (1, 1)


@st.composite
def raw_csr(draw):
    """A CSR matrix as a caller may hand it over: duplicate and unsorted
    column indices, explicit zeros, duplicates that cancel, empty rows.
    Wide draws have more than 65,535 block columns for some block
    widths, with columns clustered (delta storage) or scattered (int32).
    """
    nrows = draw(st.integers(1, 24))
    if draw(st.booleans()):
        ncols = draw(st.integers(65_536, 300_000))
        span = draw(st.sampled_from([ncols, 600]))
    else:
        ncols = span = draw(st.integers(1, 60))
    base = draw(st.integers(0, ncols - span))
    entry = st.tuples(
        st.integers(0, span - 1), st.sampled_from([0.0, 1.0, -1.0, 2.5])
    )
    rows = draw(
        st.lists(st.lists(entry, max_size=12), min_size=nrows, max_size=nrows)
    )
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([base + c for r in rows for c, _ in r], dtype=np.int64)
    data = np.array([v for r in rows for _, v in r], dtype=np.float64)
    return sparse.csr_matrix((data, indices, indptr), shape=(nrows, ncols))


def _wide_banded():
    """100 x 70,000 with small in-tile column gaps: delta columns."""
    rows = np.repeat(np.arange(100), 10)
    cols = rows * 600 + np.tile(np.arange(10), 100)
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(100, 70_000))


def _wide_scattered():
    """200 x 100,000 with random columns: int32 columns at width 1."""
    rng = np.random.default_rng(1)
    rows = np.repeat(np.arange(200), 3)
    cols = rng.integers(0, 100_000, rows.size)
    return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(200, 100_000))


class TestCountedRanking:
    """``bccoo_block_candidates`` counts blocks instead of building
    formats; every count must be the built format's byte count."""

    @given(A=raw_csr())
    @example(A=_wide_banded())
    @example(A=_wide_scattered())
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_built_footprints(self, A):
        built = {
            (h, w): BCCOOMatrix.from_scipy(A, block_height=h, block_width=w)
            for h in BLOCK_HEIGHTS
            for w in BLOCK_WIDTHS
        }
        for sizes in (FP32, FP64):
            reference = [
                (h, w, fmt.footprint_bytes(sizes)) for (h, w), fmt in built.items()
            ]
            counted = bccoo_block_candidates(A, sizes, keep=len(reference))
            # Each (h, w)'s bytes, and today's ranking with ties kept in
            # (h, w) order.
            assert sorted(counted) == reference
            assert counted == sorted(reference, key=lambda t: t[2])

    def test_examples_cover_every_column_storage(self):
        modes = {
            BCCOOMatrix.from_scipy(A, block_height=1, block_width=w).col_storage
            for A in (_wide_banded(), _wide_scattered())
            for w in BLOCK_WIDTHS
        }
        assert modes == {"ushort", "delta", "int32"}

    def test_builds_no_format(self, medium, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a format was built to rank block sizes")

        monkeypatch.setattr(BCCOOMatrix, "from_block_layout", refuse)
        assert len(bccoo_block_candidates(medium, keep=12)) == 12


class TestReport:
    def test_full_row(self, medium):
        rep = footprint_report(medium, name="medium")
        assert rep.name == "medium"
        assert rep.bccoo <= rep.coo
        assert rep.cocktail <= rep.best_single
        assert rep.as_mb(rep.coo) == pytest.approx(rep.coo / 2**20)
        assert rep.as_mb(None) is None

    def test_ell_na_for_skewed(self, skewed_matrix):
        rep = footprint_report(skewed_matrix)
        assert rep.ell is None

    def test_fp64_larger_than_fp32(self, medium):
        nbytes32, _ = best_bccoo_footprint(medium, FP32)
        nbytes64, _ = best_bccoo_footprint(medium, FP64)
        assert nbytes64 > nbytes32
