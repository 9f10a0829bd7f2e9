"""Merge-path CSR and RG-CSR launches priced once per format.

With no fault plan active, a format's decoded stream (merge-path rows,
RG-CSR lane mask) and the cache-model traffic of its column stream are
computed once and shared by every launch of the format
(:class:`~repro.kernels.base.StreamProfile`).  Every launch must still
report the stats a fresh launch computes, field for field; the memo
must die with its format; and under a fault plan each launch must still
draw its own faults.  The RG-CSR builder must equal the per-lane loop it
replaced.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro.backends import get_backend
from repro.fault import FaultPlan, fault_scope
from repro.formats import MergeCSRMatrix, RGCSRMatrix
from repro.gpu import GTX480, GTX680
from repro.kernels import YaSpMVConfig, get_kernel
from repro.kernels import base as kernel_base
from repro.matrices import get_spec
from repro.tuning import WORKGROUP_SIZES

STAND_INS = ("FEM/Harbor", "QCD", "Circuit", "Economics")


def _stand_in(name: str, nnz: int = 4_000):
    spec = get_spec(name)
    return spec.load(scale=spec.scale_for_nnz(nnz), seed=1234)


def _long_row():
    A = sparse.random(120, 3000, density=0.01, random_state=3, format="lil")
    A[7, :] = np.arange(1, 3001)
    return A.tocsr()


MATRICES = [pytest.param(lambda n=n: _stand_in(n), id=n) for n in STAND_INS] + [
    pytest.param(_long_row, id="long_row")
]


def _fields(stats) -> dict:
    return {
        f.name: (
            getattr(stats, f.name).tolist()
            if isinstance(getattr(stats, f.name), np.ndarray)
            else getattr(stats, f.name)
        )
        for f in dataclasses.fields(stats)
    }


@pytest.mark.parametrize("make", MATRICES)
@pytest.mark.parametrize("cls", [MergeCSRMatrix, RGCSRMatrix])
def test_profiles_equal_full_launches_at_every_workgroup_size(make, cls):
    fmt = cls.from_scipy(make())
    kernel = get_kernel(cls.name)
    x = np.ones(fmt.ncols)
    for device in (GTX680, GTX480):
        for texture in (True, False):
            for wg in WORKGROUP_SIZES:
                cfg = YaSpMVConfig(workgroup_size=wg, use_texture=texture)
                profile = kernel.profile(fmt, device, config=cfg)
                # A fresh format of the same matrix prices from scratch.
                fresh = cls.from_scipy(make())
                for stats in (
                    get_backend("faithful").execute(fmt, x, device, config=cfg).stats,
                    get_backend("faithful").execute(fresh, x, device, config=cfg).stats,
                ):
                    assert _fields(profile) == _fields(stats)


@pytest.mark.parametrize("cls", [MergeCSRMatrix, RGCSRMatrix])
def test_memo_dies_with_its_format(cls):
    fmt = cls.from_scipy(_long_row())
    get_kernel(cls.name).profile(fmt, GTX680, config=YaSpMVConfig())
    profile = kernel_base._STREAM_PROFILES[fmt]
    assert profile.decoded is not None and not profile.decoded.flags.writeable
    assert len(profile.traffic) == 1
    ref = weakref.ref(fmt)
    del fmt, profile
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("cls", [MergeCSRMatrix, RGCSRMatrix])
def test_every_launch_draws_its_own_faults(cls):
    fmt = cls.from_scipy(_long_row())
    x = np.ones(fmt.ncols)
    plan = FaultPlan.parse("format.bitflag_flip:p=1.0,count=inf,seed=3")
    faithful = get_backend("faithful")
    with fault_scope(plan):
        for wg in WORKGROUP_SIZES:
            try:
                faithful.execute(fmt, x, GTX680, config=YaSpMVConfig(workgroup_size=wg))
            except Exception:
                pass
    assert len(plan.events) == len(WORKGROUP_SIZES)
    # The faulted launches left the shared decode untouched.
    assert kernel_base._STREAM_PROFILES.get(fmt) is None or (
        kernel_base._STREAM_PROFILES[fmt].decoded is None
    )
    y = faithful.execute(fmt, x, GTX680, config=YaSpMVConfig()).y
    np.testing.assert_array_equal(y, fmt.to_scipy() @ x)


def _loop_rgcsr(matrix):
    """The per-lane RG-CSR builder: one Python iteration per lane."""
    fmt = RGCSRMatrix.from_scipy(matrix)
    csr = sparse.csr_matrix(matrix)
    csr.sum_duplicates()
    cols = np.zeros(fmt.padded_slots, dtype=np.int64)
    vals = np.zeros(fmt.padded_slots)
    mask = np.zeros(fmt.padded_slots, dtype=bool)
    for g in range(fmt.n_groups):
        r0, r1 = int(fmt.group_row_offsets[g]), int(fmt.group_row_offsets[g + 1])
        n, w = r1 - r0, int(fmt.group_widths[g])
        base = int(fmt.group_data_offsets[g])
        rows = fmt.row_perm[r0:r1]
        lens = fmt.row_lengths[r0:r1]
        assert w == lens.max()
        for j in range(w):
            valid = np.flatnonzero(lens > j)
            src = csr.indptr[rows[valid]] + j
            dst = base + j * n + valid
            cols[dst] = csr.indices[src]
            vals[dst] = csr.data[src]
            mask[base + j * n : base + (j + 1) * n] = lens > j
    return cols, vals, mask


@pytest.mark.parametrize("make", MATRICES)
def test_rgcsr_equals_the_per_lane_loop(make):
    A = make()
    fmt = RGCSRMatrix.from_scipy(A)
    cols, vals, mask = _loop_rgcsr(A)
    assert np.array_equal(fmt.col_index, cols)
    assert np.array_equal(fmt.values, vals)
    assert np.array_equal(fmt.lane_mask(), mask)
    back = fmt.to_scipy()
    assert (back != sparse.csr_matrix(A)).nnz == 0
    B = sparse.csr_matrix(A).copy()
    B.data = B.data * 2.0 + 0.5
    refreshed = fmt.with_values(B)
    assert np.array_equal(refreshed.values, RGCSRMatrix.from_scipy(B).values)
    assert refreshed.col_index is fmt.col_index
