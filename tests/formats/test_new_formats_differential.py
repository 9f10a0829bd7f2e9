"""Differential harness pinning the two new formats to the CSR fold.

Merge-path CSR and RG-CSR join the cocktail under the same contract
BCCOO ships with: both backends (``faithful`` and ``fast``) must
produce output *bit-identical* (``np.array_equal``, zero tolerance) to
the strict sequential per-row CSR fold, and therefore to BCCOO run on
the same operand.  The sweep below covers

    format x backend x matrix class x fault site

where the matrix classes are scaled-down versions of the benchmark
families (band, uniform dense rows, blocked band) plus the adversarial
shapes from the backend corpus (hub row, empty rows, single column).
Under an injected fault, fast delegates to the faithful interpreter, so
both backends must fail -- or corrupt -- the same way; that delegation
is re-proven here for the new kernels' hook sites.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro.backends import get_backend
from repro.errors import ReproError
from repro.fault import FaultPlan
from repro.fault.injection import fault_scope
from repro.formats import BCCOOMatrix, MergeCSRMatrix, RGCSRMatrix
from repro.gpu import get_device
from repro.kernels.config import YaSpMVConfig

DEVICE = get_device("gtx680")
BACKENDS = ["faithful", "fast"]
FORMATS = [MergeCSRMatrix, RGCSRMatrix]

#: Fault sites wired into the merge-path and row-grouped kernels:
#: stop-mask bit flips, truncated column streams, NaN/Inf partials.
FAULT_SITES = [
    "format.bitflag_flip",
    "format.column_truncate",
    "kernel.nan_partial",
    "kernel.inf_partial",
]


def _matrix_classes():
    """Benchmark families at test scale plus the adversarial corpus."""
    rng = np.random.default_rng(1207)
    out = {}
    n = 160
    out["stencil_band"] = (sparse.diags(
        [np.ones(n - 2), np.ones(n - 1), 2.0 * np.ones(n),
         np.ones(n - 1), np.ones(n - 2)],
        (-2, -1, 0, 1, 2), format="csr",
    ) * 1.0).tocsr()
    nr, nc, row_len = 180, 90, 12
    cols = np.sort(
        (np.arange(nr)[:, None] * 7 + np.arange(row_len)[None, :] * 13) % nc,
        axis=1,
    )
    out["dense_rows_uniform"] = sparse.coo_matrix(
        (rng.standard_normal(nr * row_len),
         (np.repeat(np.arange(nr), row_len), cols.ravel())),
        shape=(nr, nc),
    ).tocsr()
    tri = sparse.diags([np.ones(29), np.ones(30), np.ones(29)], (-1, 0, 1))
    out["blocked_banded"] = (
        sparse.kron(tri, np.ones((4, 4)), format="csr") * 1.0
    ).tocsr()
    hub = sparse.random(90, 90, density=0.02, random_state=2, format="lil")
    hub[7, :70] = rng.standard_normal(70)
    out["hub_row"] = hub.tocsr()
    empty = sparse.random(60, 50, density=0.05, random_state=3,
                          format="lil")
    empty[10, :] = 0
    empty[11, :] = 0
    out["empty_rows"] = empty.tocsr()
    out["single_col"] = sparse.csr_matrix(rng.standard_normal((30, 1)))
    for A in out.values():
        A.sum_duplicates()
        A.eliminate_zeros()
    return out


def _csr_fold(csr, x):
    """The strict sequential per-row CSR reference fold."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return np.bincount(
        rows, weights=csr.data * x[csr.indices], minlength=csr.shape[0]
    )


def _assert_stats_equal(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert np.array_equal(np.asarray(va), np.asarray(vb)), f.name
        else:
            assert va == vb, f"{f.name}: {va!r} != {vb!r}"


@pytest.fixture(scope="module")
def corpus():
    return _matrix_classes()


class TestBitIdentity:
    """format x backend x class: exact equality with the CSR fold."""

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_matches_csr_fold(self, corpus, fmt_cls, backend_name):
        backend = get_backend(backend_name)
        cfg = YaSpMVConfig()
        rng = np.random.default_rng(5)
        for name, A in corpus.items():
            fmt = fmt_cls.from_scipy(A)
            x = rng.standard_normal(A.shape[1])
            y = backend.execute(fmt, x, DEVICE, cfg).y
            assert np.array_equal(y, _csr_fold(A, x)), (
                f"{fmt_cls.__name__}/{backend_name} drifted on {name}"
            )

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    def test_matches_bccoo_same_operand(self, corpus, fmt_cls):
        faithful = get_backend("faithful")
        cfg = YaSpMVConfig()
        rng = np.random.default_rng(6)
        for name, A in corpus.items():
            x = rng.standard_normal(A.shape[1])
            y_new = faithful.execute(
                fmt_cls.from_scipy(A), x, DEVICE, cfg
            ).y
            y_bccoo = faithful.execute(
                BCCOOMatrix.from_scipy(A), x, DEVICE, cfg
            ).y
            assert np.array_equal(y_new, y_bccoo), name

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    def test_stats_identical_across_backends(self, corpus, fmt_cls):
        # The cost model is part of the contract: the fast path must
        # report the exact counters the interpreter would.
        faithful, fast = get_backend("faithful"), get_backend("fast")
        cfg = YaSpMVConfig()
        rng = np.random.default_rng(7)
        for name, A in corpus.items():
            fmt = fmt_cls.from_scipy(A)
            x = rng.standard_normal(A.shape[1])
            rf = faithful.execute(fmt, x, DEVICE, cfg)
            rv = fast.execute(fmt, x, DEVICE, cfg)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_spmm_exact(self, corpus, fmt_cls, k):
        faithful, fast = get_backend("faithful"), get_backend("fast")
        cfg = YaSpMVConfig()
        rng = np.random.default_rng(8)
        for name, A in corpus.items():
            fmt = fmt_cls.from_scipy(A)
            X = rng.standard_normal((A.shape[1], k))
            rf = faithful.execute_multi(fmt, X, DEVICE, cfg)
            rv = fast.execute_multi(fmt, X, DEVICE, cfg)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)
            for j in range(k):
                assert np.array_equal(rf.y[:, j], _csr_fold(A, X[:, j])), (
                    f"{name} col {j}"
                )

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    def test_extreme_values_exact(self, fmt_cls):
        # Denormals, huge magnitudes: any reassociation in the fast
        # path's segmented reduction would change these sums.
        rng = np.random.default_rng(11)
        A = sparse.random(80, 80, density=0.1, random_state=4, format="csr")
        A.data = np.concatenate([
            rng.standard_normal(A.nnz // 3) * 1e120,
            rng.standard_normal(A.nnz // 3) * 1e-120,
            rng.standard_normal(A.nnz - 2 * (A.nnz // 3)),
        ])[np.argsort(rng.random(A.nnz))]
        fmt = fmt_cls.from_scipy(A)
        x = rng.standard_normal(80) * np.exp(rng.uniform(-80, 80, 80))
        cfg = YaSpMVConfig()
        rf = get_backend("faithful").execute(fmt, x, DEVICE, cfg)
        rv = get_backend("fast").execute(fmt, x, DEVICE, cfg)
        assert np.array_equal(rf.y, rv.y)
        assert np.array_equal(rf.y, _csr_fold(A, x))


class TestFaultDelegation:
    """Injected faults corrupt every backend identically."""

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_fault_identical_across_backends(self, corpus, fmt_cls, site):
        A = corpus["dense_rows_uniform"]
        fmt = fmt_cls.from_scipy(A)
        x = np.random.default_rng(13).standard_normal(A.shape[1])
        cfg = YaSpMVConfig()

        def run(backend_name):
            # Fresh plan per run: counts are consumed, seeds replay.
            plan = FaultPlan.single(site, seed=21, count=1)
            backend = get_backend(backend_name)
            with fault_scope(plan):
                try:
                    return backend.execute(fmt, x, DEVICE, cfg).y
                except ReproError as exc:
                    return type(exc).__name__

        ref, got = run("faithful"), run("fast")
        if isinstance(ref, str):
            assert got == ref, f"fast error mismatch on {site}"
        else:
            assert np.array_equal(ref, got, equal_nan=True), (
                f"fast drifted under {site}"
            )

    @pytest.mark.parametrize("fmt_cls", FORMATS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_fault_actually_fired(self, corpus, fmt_cls, site):
        # A site the kernel never visits would make the test above pass
        # vacuously; require the event (or a typed error) to show up.
        A = corpus["dense_rows_uniform"]
        fmt = fmt_cls.from_scipy(A)
        x = np.random.default_rng(13).standard_normal(A.shape[1])
        plan = FaultPlan.single(site, seed=21, count=1)
        clean = get_backend("faithful").execute(
            fmt, x, DEVICE, YaSpMVConfig()
        ).y
        with fault_scope(plan):
            try:
                y = get_backend("faithful").execute(
                    fmt, x, DEVICE, YaSpMVConfig()
                ).y
            except ReproError:
                y = None
        assert plan.events, f"{site} never fired for {fmt_cls.__name__}"
        if y is not None:
            assert not np.array_equal(clean, y, equal_nan=True), (
                f"{site} fired but left the output untouched"
            )
