"""The ``fast`` backend's CSR passes call SciPy's compiled loop directly.

The loop (``csr_matvec`` / ``csr_matvecs``) checks no bounds, so every
pass checks its operand first; the one-time probes run through the same
call the passes make; and a value refresh swaps one array, building no
SciPy matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _compressed

from repro import SpMVEngine
from repro.backends import get_backend
from repro.backends import fast as fast_backend
from repro.errors import KernelConfigError
from repro.gpu import get_device
from repro.tuning import TuningPoint

DEVICE = get_device("gtx680")

#: One point per core shape: one pass (1x1, h x 1, the stream formats)
#: and two passes (w > 1).
POINTS = [
    pytest.param(TuningPoint(), id="1x1"),
    pytest.param(TuningPoint(block_height=2), id="2x1"),
    pytest.param(TuningPoint(block_height=2, block_width=2), id="2x2"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


def _core(point, seed=3):
    """A prepared random matrix and its cached fast core, built by one
    multiply."""
    A = sparse.random(90, 110, density=0.06, random_state=seed, format="csr")
    prepared = SpMVEngine(device=DEVICE).prepare(A, point=point)
    fast = get_backend("fast")
    x = np.random.default_rng(seed).standard_normal(110)
    fast.execute(prepared.fmt, x, DEVICE, prepared.config)
    (plan,) = fast._plans[prepared.fmt].values()
    return prepared, plan.core


def _reversed_matvec(m, n, indptr, indices, data, x, y):
    """``csr_matvec`` adding each row's entries last to first."""
    for i in range(m):
        s = y[i]
        for j in range(indptr[i + 1] - 1, indptr[i] - 1, -1):
            s += data[j] * x[indices[j]]
        y[i] = s


def _reversed_matvecs(m, n, k, indptr, indices, data, x, y):
    """``csr_matvecs`` adding each row's entries last to first."""
    X, Y = x.reshape(n, k), y.reshape(m, k)
    for i in range(m):
        for j in range(indptr[i + 1] - 1, indptr[i] - 1, -1):
            Y[i] += data[j] * X[indices[j]]


@pytest.fixture
def loop_calls(monkeypatch):
    """Every call that reaches the compiled loop, by entry name."""
    calls = []
    for name in ("_matvec", "_matvecs"):
        real = getattr(fast_backend, name)

        def recording(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(fast_backend, name, recording)
    return calls


class TestProbe:
    """The probes call the loop through the passes' own entry."""

    @pytest.mark.parametrize("unit", [False, True], ids=["products", "unit"])
    def test_reversed_loop_fails_the_probe(self, monkeypatch, unit):
        monkeypatch.setattr(fast_backend, "_matvec", _reversed_matvec)
        monkeypatch.setattr(fast_backend, "_matvecs", _reversed_matvecs)
        assert fast_backend._adds_in_order(unit) is False

    @pytest.mark.parametrize("unit", [False, True], ids=["products", "unit"])
    def test_probe_runs_both_entries(self, loop_calls, unit):
        fast_backend._adds_in_order(unit)
        assert loop_calls == ["_matvec", "_matvecs"]


class TestOperandChecks:
    """A wrong operand raises before the loop sees it, on either pass."""

    @staticmethod
    def _bad_operands(n):
        rng = np.random.default_rng(5)
        for shape in ((n + 1,), (n - 1, 3)):  # wrong length
            yield rng.standard_normal(shape)
        for shape in ((n,), (n, 3)):  # wrong dtype
            yield rng.standard_normal(shape).astype(np.float32)
            yield np.arange(np.prod(shape)).reshape(shape)

    def test_first_and_second_pass(self, loop_calls):
        _, core = _core(TuningPoint(block_height=2, block_width=2))
        assert core.second is not None
        loop_calls.clear()
        for which in (core.first, core.second):
            for bad in self._bad_operands(which.ncols):
                with pytest.raises(KernelConfigError, match="CSR pass"):
                    which(bad)
        assert loop_calls == []

    @pytest.mark.parametrize("point", POINTS)
    def test_non_contiguous_block_is_copied(self, point):
        prepared, core = _core(point)
        rng = np.random.default_rng(7)
        wide = rng.standard_normal((110, 8))
        for X in (wide[:, ::2], np.asfortranarray(wide[:, :4])):
            assert not X.flags.c_contiguous
            assert np.array_equal(core(X), core(np.ascontiguousarray(X)))
            fmt, cfg = prepared.fmt, prepared.config
            want = get_backend("faithful").execute_multi(fmt, X, DEVICE, cfg)
            got = get_backend("fast").execute_multi(fmt, X, DEVICE, cfg)
            assert np.array_equal(got.y, want.y)


def _refuse_scipy_matrices(monkeypatch):
    """From here on, building any SciPy CSR/CSC matrix fails the test."""

    def refuse(self, *args, **kwargs):
        pytest.fail("a refill built a SciPy sparse matrix")

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", refuse)


class TestRefill:
    """A refreshed core swaps one array and builds no SciPy matrix."""

    @pytest.mark.parametrize("point", POINTS)
    def test_scipy_products_swap_the_data(self, monkeypatch, point):
        if not fast_backend._fused_matvec_exact():
            pytest.skip("this SciPy build's CSR matvec is not exact")
        prepared, core = _core(point)
        values = prepared.fmt.values * 2.0
        _refuse_scipy_matrices(monkeypatch)
        fresh = core.refill(values)
        assert fresh.first.indptr is core.first.indptr
        assert fresh.first.indices is core.first.indices
        assert fresh.second is core.second
        assert np.array_equal(fresh.first.data, core.first.data * 2.0)

    @pytest.mark.parametrize("fused", [True, False], ids=["scipy", "numpy"])
    @pytest.mark.parametrize(
        "point", [p for p in POINTS if p.id in ("1x1", "2x2", "merge_csr")]
    )
    def test_identity_slots_read_the_values_in_place(
        self, monkeypatch, point, fused
    ):
        # A 1x1 core's slots are the identity, and so are a 2x2 core's
        # when every gather slot is in range (110 columns, 55 block
        # columns): a refreshed plan reads the refreshed format's values
        # in place, and still answers like faithful.
        if fused and not fast_backend._fused_matvec_exact():
            pytest.skip("this SciPy build's CSR matvec is not exact")
        monkeypatch.setattr(fast_backend, "_FUSED_EXACT", fused)
        A = sparse.random(90, 110, density=0.06, random_state=3, format="csr")
        engine = SpMVEngine(device=DEVICE, backend="fast")
        x = np.random.default_rng(3).standard_normal(110)
        prepared = engine.prepare(A, point=point)
        engine.multiply(prepared, x)
        refreshed = engine.update_values(prepared, A * 2.0)
        y = engine.multiply(refreshed, x).y
        (plan,) = get_backend("fast")._plans[refreshed.fmt].values()
        core = plan.core
        data = core.first.data if core.cols is None else core.data
        assert np.shares_memory(data, refreshed.fmt.values)
        faithful = SpMVEngine(device=DEVICE, backend="faithful")
        assert np.array_equal(y, faithful.multiply(refreshed, x).y)

    @pytest.mark.parametrize("point", POINTS)
    def test_numpy_products_swap_the_values(self, monkeypatch, point):
        monkeypatch.setattr(fast_backend, "_FUSED_EXACT", False)
        prepared, core = _core(point)
        values = prepared.fmt.values * 2.0
        _refuse_scipy_matrices(monkeypatch)
        fresh = core.refill(values)
        assert fresh.first is core.first and fresh.second is core.second
        assert fresh.cols is core.cols
        assert np.array_equal(fresh.data, core.data * 2.0)
