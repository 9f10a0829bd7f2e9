"""Tests for the model-driven tuner extension."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import TuningError
from repro.formats.blocking import extract_blocks
from repro.gpu import GTX680
from repro.tuning import (
    BLOCK_HEIGHTS,
    BLOCK_WIDTHS,
    AutoTuner,
    CostModel,
    MatrixSummary,
    ModelDrivenTuner,
    TuningPoint,
)
from repro.tuning.model import MIN_EVALUATIONS


@pytest.fixture
def matrix(random_matrix):
    return random_matrix(nrows=150, ncols=150, density=0.05)


class TestCostModel:
    def test_predicts_positive_time(self, matrix):
        summary = MatrixSummary.measure(matrix, [(1, 1), (2, 2)])
        model = CostModel(GTX680)
        t = model.predict(TuningPoint(), summary)
        assert t > 0

    def test_bigger_blocks_cost_fill_in(self, matrix):
        # On a scattered matrix, 2x2 blocks store ~4x the values: the
        # model must rank 1x1 faster.
        summary = MatrixSummary.measure(matrix, [(1, 1), (2, 2)])
        model = CostModel(GTX680)
        t11 = model.predict(TuningPoint(block_height=1, block_width=1), summary)
        t22 = model.predict(TuningPoint(block_height=2, block_width=2), summary)
        assert t11 < t22

    def test_fp64_costs_more(self, matrix):
        summary = MatrixSummary.measure(matrix, [(1, 1)])
        model = CostModel(GTX680)
        p32 = TuningPoint()
        p64 = p32.with_kernel(precision="fp64")
        assert model.predict(p64, summary) > model.predict(p32, summary)

    def test_missing_dimension_rejected(self, matrix):
        summary = MatrixSummary.measure(matrix, [(1, 1)])
        with pytest.raises(TuningError, match="lacks block counts"):
            CostModel(GTX680).predict(TuningPoint(block_height=2), summary)


def messy_matrix():
    """61x90 CSR with duplicate entries (five cancelling), stored zeros
    and empty rows, as a caller may hand it over."""
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 61, 500)
    rows = rows[rows % 7 != 0]  # every seventh row empty
    cols = rng.integers(0, 90, rows.size)
    r = np.concatenate([rows, rows[:40]])
    c = np.concatenate([cols, cols[:40]])
    v = rng.standard_normal(r.size)
    v[rows.size : rows.size + 5] = -v[:5]  # duplicates that sum to zero
    v[7::11] = 0.0  # stored zeros
    order = np.argsort(r, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=61))])
    return sparse.csr_matrix((v[order], c[order], indptr), shape=(61, 90))


class TestMatrixSummary:
    def test_counts_equal_extracted_blocks(self):
        A = messy_matrix()
        assert (A.data == 0).any() and not A.has_canonical_format
        dims = [(h, w) for h in BLOCK_HEIGHTS for w in BLOCK_WIDTHS]
        summary = MatrixSummary.measure(A, dims)
        assert summary.blocks_per_dim == {
            (h, w): extract_blocks(A, h, w).nblocks for h, w in dims
        }


class TestModelDrivenTuner:
    def test_finds_near_optimal_with_fraction_of_work(self, matrix):
        full = AutoTuner(GTX680).tune(matrix)
        fast = ModelDrivenTuner(GTX680, evaluate_fraction=0.2).tune(matrix)
        # Far fewer kernel executions...
        assert fast.evaluated < full.evaluated / 2
        # ...and a winner within 15% of the full pruned search.
        assert fast.best.time_s <= full.best.time_s * 1.15

    def test_best_point_runnable(self, matrix, rng):
        from repro.core import SpMVEngine

        res = ModelDrivenTuner(GTX680).tune(matrix)
        eng = SpMVEngine(GTX680)
        prep = eng.prepare(matrix, point=res.best_point)
        x = rng.standard_normal(matrix.shape[1])
        np.testing.assert_allclose(eng.multiply(prep, x).y, matrix @ x, atol=1e-9)

    def test_fraction_validation(self):
        with pytest.raises(TuningError, match="evaluate_fraction"):
            ModelDrivenTuner(GTX680, evaluate_fraction=0.0)

    def test_min_evaluations_floor(self, matrix):
        res = ModelDrivenTuner(GTX680, evaluate_fraction=0.001).tune(matrix)
        assert res.evaluated + res.skipped >= MIN_EVALUATIONS == 24
