"""Tuner integration for the widened (merge-path CSR + RG-CSR) space.

Three contracts:

* The pruned space *enumerates* the new formats -- one candidate per
  (format, workgroup size) next to the BCCOO/BCCOO+ sub-space.
* The search stays **bit-identical** across a checkpoint/resume cycle
  with the new candidates in play (``base_format`` must survive the
  journal byte-for-byte).
* Each new format actually *wins* a structural family end-to-end: the
  far-diagonal band goes to merge-path CSR (equal-work teams, no
  blocking to exploit), the uniform dense-row family goes to RG-CSR
  (short columns, lane-major gather).  A cost-model change that takes
  either win away fails here, not in production.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import GTX480, GTX680
from repro.tuning import (
    WORKGROUP_SIZES,
    AutoTuner,
    KernelPlanCache,
    TuningCheckpoint,
    base_format_points,
    pruned_space,
)

@pytest.fixture(scope="module")
def fardiag():
    """Far-apart diagonals: every gather misses cache, rows are uniform
    but unblockable -- the merge-path CSR home turf."""
    nr, nd = 2000, 96
    gaps = 65601 + np.arange(nd) * 1664
    offs = np.concatenate([[0], np.cumsum(gaps[:-1])])
    nc = int(offs[-1]) + nr
    cols = np.arange(nr)[:, None] + offs[None, :]
    rows = np.repeat(np.arange(nr), nd)
    return sp.coo_matrix(
        (np.ones(nr * nd), (rows, cols.ravel())), shape=(nr, nc)
    ).tocsr()


@pytest.fixture(scope="module")
def dense_rows():
    """Thousands of identical mid-length strided rows over a narrow
    column space -- the RG-CSR home turf."""
    nr, nc, rl = 12000, 3000, 48
    cols = np.sort(
        (np.arange(nr)[:, None] * 7 + np.arange(rl)[None, :] * 61) % nc,
        axis=1,
    )
    rows = np.repeat(np.arange(nr), rl)
    vals = np.random.default_rng(0).standard_normal(nr * rl)
    return sp.coo_matrix(
        (vals, (rows, cols.ravel())), shape=(nr, nc)
    ).tocsr()


def _assert_identical(a, b):
    assert a.best.point == b.best.point
    assert a.best.time_s == b.best.time_s
    assert [(e.point, e.time_s, e.gflops) for e in a.history] == [
        (e.point, e.time_s, e.gflops) for e in b.history
    ]
    assert a.evaluated == b.evaluated
    assert a.skipped == b.skipped
    assert a.skip_reasons == b.skip_reasons


class TestSpaceEnumeration:
    def test_pruned_space_contains_new_formats(self, random_matrix):
        A = random_matrix(nrows=60, ncols=60, density=0.08)
        formats = {p.base_format for p in pruned_space(A, GTX680)}
        assert {"bccoo", "merge_csr", "rgcsr"} <= formats

    def test_one_point_per_format_and_geometry(self):
        pts = list(base_format_points())
        assert len(pts) == 2 * len(WORKGROUP_SIZES)
        assert {(p.base_format, p.kernel.workgroup_size) for p in pts} == {
            (f, wg)
            for f in ("merge_csr", "rgcsr")
            for wg in WORKGROUP_SIZES
        }

    def test_unpruned_adds_texture_toggle(self):
        pts = list(base_format_points(pruned=False))
        assert len(pts) == 4 * len(WORKGROUP_SIZES)
        assert {p.kernel.use_texture for p in pts} == {True, False}


class TestFormatWins:
    def test_merge_csr_wins_far_diagonals(self, fardiag):
        res = AutoTuner(GTX480).tune(fardiag)
        assert res.best.point.base_format == "merge_csr"
        # The win is over a real contest, not a walkover: BCCOO was
        # evaluated and ranked.
        contested = {e.point.base_format for e in res.history}
        assert "bccoo" in contested

    def test_rgcsr_wins_uniform_dense_rows(self, dense_rows):
        res = AutoTuner(GTX480).tune(dense_rows)
        assert res.best.point.base_format == "rgcsr"
        contested = {e.point.base_format for e in res.history}
        assert "bccoo" in contested


class TestExecutorIdentity:
    @pytest.fixture(scope="class")
    def A(self):
        rng = np.random.default_rng(31)
        return sp.random(200, 200, density=0.05, random_state=rng,
                         format="csr")

    @pytest.fixture(scope="class")
    def serial(self, A):
        return AutoTuner(GTX680, plan_cache=KernelPlanCache()).tune(A)

    def test_serial_covers_new_formats(self, serial):
        # Guard against a vacuous identity: the widened candidates must
        # actually be in the compared history.
        formats = {e.point.base_format for e in serial.history}
        assert {"merge_csr", "rgcsr"} <= formats


class TestCheckpointResume:
    def test_resume_replays_widened_space(self, tmp_path, random_matrix):
        A = random_matrix(nrows=60, ncols=60, density=0.08)
        ck = tmp_path / "tuning.journal"
        first = AutoTuner(GTX680, checkpoint=ck).tune(A)
        resumed = AutoTuner(GTX680, checkpoint=TuningCheckpoint(ck)).tune(A)
        _assert_identical(first, resumed)
        assert resumed.resumed == first.evaluated + first.skipped
        assert not resumed.partial
        # base_format survives the journal: resumed history still names
        # the widened candidates.
        formats = {e.point.base_format for e in resumed.history}
        assert {"merge_csr", "rgcsr"} <= formats
