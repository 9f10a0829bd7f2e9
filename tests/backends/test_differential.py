"""Differential tests: ``fast`` must be *bit-identical* to ``faithful``.

The fast backend's contract is exact equality (``np.array_equal``), not
numerical closeness -- it must produce the same addition sequence as the
workgroup interpreter, so the sweep below covers formats x configs x
matrix shapes x fault sites and compares with zero tolerance.  The cost
model is part of the contract too: :class:`~repro.gpu.counters.
KernelStats` is compared field by field.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro import Observer, SpMVEngine
from repro.backends import FaithfulBackend, FastBackend, get_backend
from repro.backends import fast as fast_backend
from repro.errors import KernelConfigError, ReproError, ValidationError
from repro.fault import FaultPlan
from repro.fault.injection import fault_scope
from repro.formats import BCCOOMatrix
from repro.gpu import TimingModel, get_device
from repro.tuning import TuningPoint

DEVICE = get_device("gtx680")
#: Bound on every thread wait in the concurrency test.
WAIT_S = 30.0

#: Config spread: the fused 1x1 path, tall/wide/square blocks, BCCOO+
#: slicing, raw (uncompressed) column indices, non-default bit words.
CONFIGS = [
    TuningPoint(),
    TuningPoint(block_height=2, block_width=2),
    TuningPoint(block_height=1, block_width=4),
    TuningPoint(block_height=4, block_width=1),
    TuningPoint(block_height=2, block_width=1, col_compress=False),
    TuningPoint(bit_word="uint8"),
    TuningPoint(slice_count=4),
    TuningPoint(block_height=2, block_width=2, slice_count=2),
]


def _config_id(p):
    return (
        f"{p.block_height}x{p.block_width}-{p.bit_word}"
        f"{'-nocc' if not p.col_compress else ''}"
        f"{'-s' + str(p.slice_count) if p.slice_count > 1 else ''}"
    )


#: SpMM cases: every config at k = 1, 3 and 8.  The default point keeps
#: the bare ``k`` id it had when it was the only config swept.
SPMM_CASES = [
    pytest.param(
        point, k,
        id=str(k) if point == TuningPoint() else f"{_config_id(point)}-{k}",
    )
    for point in CONFIGS
    for k in (1, 3, 8)
]

#: Fault sites that perturb kernel execution.  Under an active plan the
#: fast backend delegates wholesale to the interpreter, so injected
#: faults corrupt both backends identically -- that delegation is the
#: property under test.
KERNEL_FAULT_SITES = [
    "sync.stale_grp_sum",
    "dispatch.out_of_order",
    "format.bitflag_flip",
    "format.column_truncate",
    "kernel.nan_partial",
    "kernel.inf_partial",
]


def _matrices(rng):
    """Structurally diverse corpus: banded, hub row, empty rows, tiny."""
    out = {}
    out["random"] = sparse.random(120, 140, density=0.06, random_state=1,
                                  format="csr")
    out["square_dense"] = sparse.csr_matrix(
        rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.4)
    )
    hub = sparse.random(90, 90, density=0.02, random_state=2, format="lil")
    hub[7, :70] = rng.standard_normal(70)
    out["hub_row"] = hub.tocsr()
    empty = sparse.random(60, 50, density=0.05, random_state=3, format="csr")
    empty = empty.tolil()
    empty[10, :] = 0
    empty[11, :] = 0
    out["empty_rows"] = empty.tocsr()
    out["single_col"] = sparse.csr_matrix(rng.standard_normal((30, 1)))
    return out


def _assert_stats_equal(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert np.array_equal(np.asarray(va), np.asarray(vb)), f.name
        else:
            assert va == vb, f"{f.name}: {va!r} != {vb!r}"


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def corpus(self):
        return _matrices(np.random.default_rng(99))

    @pytest.mark.parametrize("point", CONFIGS, ids=_config_id)
    def test_spmv_exact(self, corpus, point):
        engine = SpMVEngine(device=DEVICE)
        faithful, fast = get_backend("faithful"), get_backend("fast")
        rng = np.random.default_rng(5)
        for name, A in corpus.items():
            prepared = engine.prepare(A, point=point)
            fmt, cfg = prepared.fmt, prepared.config
            x = rng.standard_normal(A.shape[1])
            rf = faithful.execute(fmt, x, DEVICE, cfg)
            rv = fast.execute(fmt, x, DEVICE, cfg)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)

    @pytest.mark.parametrize("point, k", SPMM_CASES)
    def test_spmm_exact(self, corpus, point, k):
        # Blocked, raw-column, uint8-word and BCCOO+ sliced formats: the
        # batched multi path, the 2-D slice fold and the SpMM cost deltas.
        engine = SpMVEngine(device=DEVICE)
        faithful, fast = get_backend("faithful"), get_backend("fast")
        rng = np.random.default_rng(6)
        for name, A in corpus.items():
            prepared = engine.prepare(A, point=point)
            fmt, cfg = prepared.fmt, prepared.config
            X = rng.standard_normal((A.shape[1], k))
            if k > engine.max_batch_width(prepared):
                # Past the shared-memory bound both backends refuse.
                for backend in (faithful, fast):
                    with pytest.raises(KernelConfigError):
                        backend.execute_multi(fmt, X, DEVICE, cfg)
                continue
            rf = faithful.execute_multi(fmt, X, DEVICE, cfg)
            rv = fast.execute_multi(fmt, X, DEVICE, cfg)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)

    def test_extreme_values_exact(self):
        # Denormals, huge magnitudes, negative zero: any reassociation
        # in the fast path would change these sums.
        rng = np.random.default_rng(11)
        A = sparse.random(80, 80, density=0.1, random_state=4, format="csr")
        A.data = np.concatenate([
            rng.standard_normal(A.nnz // 3) * 1e120,
            rng.standard_normal(A.nnz // 3) * 1e-120,
            rng.standard_normal(A.nnz - 2 * (A.nnz // 3)),
        ])[np.argsort(rng.random(A.nnz))]
        engine = SpMVEngine(device=DEVICE)
        prepared = engine.prepare(A, point=TuningPoint())
        x = rng.standard_normal(80) * np.exp(rng.uniform(-80, 80, 80))
        rf = get_backend("faithful").execute(prepared.fmt, x, DEVICE, prepared.config)
        rv = get_backend("fast").execute(prepared.fmt, x, DEVICE, prepared.config)
        assert np.array_equal(rf.y, rv.y)


#: One point per summation-core shape: 1x1, h x 1 (one pass), w > 1 (two
#: passes), BCCOO+, merge-path CSR and RG-CSR.
CORE_POINTS = [
    pytest.param(TuningPoint(), id="1x1"),
    pytest.param(TuningPoint(block_height=2), id="2x1"),
    pytest.param(TuningPoint(block_height=2, block_width=2), id="2x2"),
    pytest.param(TuningPoint(block_width=4), id="1x4"),
    pytest.param(TuningPoint(block_width=2, slice_count=2), id="bccoo+"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


def _cached_plans(fmt):
    """The fast backend's cached plans of ``fmt`` (BCCOO+ runs its
    stacked matrix)."""
    per_fmt = get_backend("fast")._plans.get(getattr(fmt, "stacked", fmt), {})
    return list(per_fmt.values())


def _both_backends(prepared, X):
    faithful, fast = get_backend("faithful"), get_backend("fast")
    fmt, cfg = prepared.fmt, prepared.config
    if X.ndim == 1:
        return (faithful.execute(fmt, X, DEVICE, cfg),
                fast.execute(fmt, X, DEVICE, cfg))
    return (faithful.execute_multi(fmt, X, DEVICE, cfg),
            fast.execute_multi(fmt, X, DEVICE, cfg))


#: One point per block shape the NumPy-products mode lays out: 1x1, h x 1,
#: h x w, BCCOO+, merge-path CSR and RG-CSR.
NUMPY_POINTS = [
    pytest.param(TuningPoint(), id="1x1"),
    pytest.param(TuningPoint(block_height=2), id="2x1"),
    pytest.param(TuningPoint(block_height=3, block_width=2), id="3x2"),
    pytest.param(TuningPoint(block_width=2, slice_count=2), id="bccoo+"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


def _numpy_products(plan) -> bool:
    """Whether ``plan``'s core multiplies in NumPy, with every SciPy pass
    it runs on unit data."""
    core = plan.core
    passes = [core.first] if core.second is None else [core.first, core.second]
    return core.cols is not None and all(np.all(s.data == 1.0) for s in passes)


class TestSummationCores:
    """``fast`` sums with exact SciPy CSR passes, which take the products
    when the probe passes and NumPy's products when it fails; both equal
    ``faithful``, and a lost fast path fails here, not only in a timing."""

    @pytest.mark.parametrize("k", [None, 3], ids=["spmv", "spmm3"])
    @pytest.mark.parametrize("point", CORE_POINTS)
    def test_csr_cores_cached_and_exact(self, point, k):
        if not fast_backend._fused_matvec_exact():
            pytest.skip("this SciPy build's CSR matvec is not exact")
        rng = np.random.default_rng(17)
        engine = SpMVEngine(device=DEVICE)
        for name, A in _matrices(rng).items():
            prepared = engine.prepare(A, point=point)
            X = rng.standard_normal(A.shape[1] if k is None else (A.shape[1], k))
            rf, rv = _both_backends(prepared, X)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)
            plans = _cached_plans(prepared.fmt)
            assert plans and all(p.core.cols is None for p in plans), name
            # A cached BCCOO plan keeps its core and gather map, not the
            # padded values and columns they were built from.
            padded = [p.padded for p in plans if hasattr(p, "padded")]
            assert all(pd.values is None and pd.cols is None for pd in padded)
            two_pass = getattr(prepared.fmt, "block_width", 1) > 1
            assert all((p.core.second is not None) == two_pass for p in plans)

    @pytest.mark.parametrize("k", [None, 3], ids=["spmv", "spmm3"])
    @pytest.mark.parametrize("point", CORE_POINTS)
    def test_numpy_products_exact(self, monkeypatch, point, k):
        # Plans of freshly built formats take the probe's verdict.
        monkeypatch.setattr(fast_backend, "_FUSED_EXACT", False)
        rng = np.random.default_rng(19)
        engine = SpMVEngine(device=DEVICE)
        for name, A in _matrices(rng).items():
            prepared = engine.prepare(A, point=point)
            X = rng.standard_normal(A.shape[1] if k is None else (A.shape[1], k))
            rf, rv = _both_backends(prepared, X)
            assert np.array_equal(rf.y, rv.y), name
            _assert_stats_equal(rf.stats, rv.stats)
            plans = _cached_plans(prepared.fmt)
            assert plans and all(p.core.cols is not None for p in plans), name

    @pytest.mark.parametrize("point", NUMPY_POINTS)
    def test_numpy_products_unit_passes(self, monkeypatch, point):
        monkeypatch.setattr(fast_backend, "_FUSED_EXACT", False)
        rng = np.random.default_rng(29)
        engine = SpMVEngine(device=DEVICE)
        for name, A in _matrices(rng).items():
            prepared = engine.prepare(A, point=point)
            for X in (rng.standard_normal(A.shape[1]),
                      rng.standard_normal((A.shape[1], 2))):
                rf, rv = _both_backends(prepared, X)
                assert np.array_equal(rf.y, rv.y), name
            plans = _cached_plans(prepared.fmt)
            assert plans and all(_numpy_products(p) for p in plans), name

    @pytest.mark.parametrize("point", NUMPY_POINTS)
    def test_numpy_products_value_refresh(self, monkeypatch, point):
        # A refreshed core swaps the values its NumPy products read.
        monkeypatch.setattr(fast_backend, "_FUSED_EXACT", False)
        rng = np.random.default_rng(31)
        fast, faithful = get_backend("fast"), get_backend("faithful")
        engine = SpMVEngine(device=DEVICE, backend="fast")
        for name, A in _matrices(rng).items():
            prepared = engine.prepare(A, point=point)
            x = rng.standard_normal(A.shape[1])
            X = rng.standard_normal((A.shape[1], 2))
            engine.multiply(prepared, x)
            engine.multiply_many(prepared, X)
            B = A.copy()
            B.data = rng.uniform(0.5, 2.0, size=B.nnz) * np.sign(A.data)
            before = fast.n_value_refreshes
            refreshed = engine.update_values(prepared, B)
            assert fast.n_value_refreshes > before, name
            fmt, cfg = refreshed.fmt, refreshed.config
            assert np.array_equal(
                engine.multiply(refreshed, x).y,
                faithful.execute(fmt, x, DEVICE, cfg).y,
            ), name
            assert np.array_equal(
                engine.multiply_many(refreshed, X).y,
                faithful.execute_multi(fmt, X, DEVICE, cfg).y,
            ), name
            plans = _cached_plans(fmt)
            assert plans and all(_numpy_products(p) for p in plans), name

    @pytest.mark.parametrize("k", [None, 3], ids=["spmv", "spmm3"])
    @pytest.mark.parametrize("point", CORE_POINTS)
    def test_special_values_exact(self, point, k):
        # Overflowing products, +-inf and NaN in x, signed zeros and
        # subnormals: a zero inside a block must still meet an inf (NaN),
        # and no core may reassociate.
        rng = np.random.default_rng(23)
        A = sparse.random(70, 90, density=0.12, random_state=5, format="csr")
        A.data = A.data * np.exp(rng.uniform(-700, 690, A.nnz))
        prepared = SpMVEngine(device=DEVICE).prepare(A, point=point)
        shape = 90 if k is None else (90, k)
        X = rng.standard_normal(shape) * np.exp(rng.uniform(-700, 700, shape))
        flat = X.reshape(-1)
        picks = rng.choice(flat.size, size=flat.size // 4, replace=False)
        flat[picks] = rng.choice(
            [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan], size=picks.size
        )
        with np.errstate(all="ignore"):
            rf, rv = _both_backends(prepared, X)
        assert np.isnan(rf.y).any()
        assert np.array_equal(rf.y, rv.y, equal_nan=True)


class TestUnitSumDelegation:
    """Without exact unit-data sums, ``fast`` hands every call to
    ``faithful`` and caches no plan."""

    @pytest.mark.parametrize("point", NUMPY_POINTS)
    def test_faithful_bits_and_no_plan(self, monkeypatch, point):
        monkeypatch.setattr(fast_backend, "_UNIT_EXACT", False)
        rng = np.random.default_rng(37)
        fast = get_backend("fast")
        engine = SpMVEngine(device=DEVICE)
        for name, A in _matrices(rng).items():
            prepared = engine.prepare(A, point=point)
            before = fast.plan_count()
            for X in (rng.standard_normal(A.shape[1]),
                      rng.standard_normal((A.shape[1], 2))):
                rf, rv = _both_backends(prepared, X)
                assert np.array_equal(rf.y, rv.y), name
                _assert_stats_equal(rf.stats, rv.stats)
            assert _cached_plans(prepared.fmt) == [], name
            assert fast.plan_count() <= before, name


class TestFaultDelegation:
    """Under an active fault plan, fast == faithful fault for fault."""

    @pytest.mark.parametrize("site", KERNEL_FAULT_SITES)
    def test_injected_fault_identical(self, site, random_matrix, rng):
        A = random_matrix(nrows=100, ncols=100, density=0.06, seed=13)
        engine = SpMVEngine(device=DEVICE)
        prepared = engine.prepare(A, point=TuningPoint())
        fmt, cfg = prepared.fmt, prepared.config
        x = rng.standard_normal(100)

        def run(backend_name):
            # Fresh plan per run: counts are consumed, seeds replay.
            plan = FaultPlan.single(site, seed=21, count=1)
            backend = get_backend(backend_name)
            with fault_scope(plan):
                try:
                    return backend.execute(fmt, x, DEVICE, cfg).y
                except ReproError as exc:
                    return type(exc).__name__

        ref, fast = run("faithful"), run("fast")
        if isinstance(ref, str):
            assert fast == ref
        else:
            # NaN-injecting sites need equal_nan; array_equal treats
            # -0.0 == 0.0 either way, which matches the contract.
            assert np.array_equal(ref, fast, equal_nan=True), site


class TestRegistry:
    def test_two_builtins(self):
        assert isinstance(get_backend("faithful"), FaithfulBackend)
        assert isinstance(get_backend("fast"), FastBackend)

    def test_unknown_backend_rejected(self):
        for name in ("warp_speed", "auto"):
            with pytest.raises(ReproError):
                get_backend(name)

    def test_engine_backends_agree(self, random_matrix, rng):
        A = random_matrix(nrows=70, ncols=70, seed=23)
        faithful = SpMVEngine(device=DEVICE, backend="faithful")
        fast = SpMVEngine(device=DEVICE, backend="fast")
        prepared = faithful.prepare(A, point=TuningPoint())
        x = rng.standard_normal(70)
        base = faithful.multiply(prepared, x)
        other = fast.multiply(prepared, x)
        assert np.array_equal(base.y, other.y)
        _assert_stats_equal(base.stats, other.stats)


def _drop_one_row_stop(fmt):
    """Turn the first row stop of ``fmt``'s bit flags into a continue."""
    flags = fmt.flags
    i = int(np.flatnonzero(fmt.stops())[0])
    bits = flags.bits_per_word
    flags.words[i // bits] |= flags.word_dtype.type(1 << (i % bits))


class TestRowStopCheck:
    """Flags and row map disagree: every backend and entry point refuses."""

    @pytest.mark.parametrize("multi", [False, True],
                             ids=["execute", "execute_multi"])
    @pytest.mark.parametrize("backend_name", ["faithful", "fast"])
    def test_missing_row_stop_rejected(self, backend_name, multi):
        A = sparse.random(200, 200, density=0.05, random_state=3, format="csr")
        fmt = BCCOOMatrix.from_scipy(A)
        _drop_one_row_stop(fmt)
        assert fmt.flags.n_row_stops == fmt.nonempty_block_rows.shape[0] - 1
        rng = np.random.default_rng(8)
        backend = get_backend(backend_name)
        with pytest.raises(ValidationError) as info:
            if multi:
                backend.execute_multi(
                    fmt, rng.standard_normal((200, 3)), DEVICE, None
                )
            else:
                backend.execute(fmt, rng.standard_normal(200), DEVICE, None)
        assert info.value.check == "row_stop_count"

    def test_failed_bind_is_not_kept(self):
        A = sparse.random(200, 200, density=0.05, random_state=3, format="csr")
        fmt = BCCOOMatrix.from_scipy(A)
        _drop_one_row_stop(fmt)
        fast = get_backend("fast")
        for _ in range(2):
            with pytest.raises(ValidationError):
                fast.execute(fmt, np.ones(200), DEVICE, None)
            assert not fast._launches.get(fmt)


#: One point per base format, plus BCCOO+ slicing.
FORMAT_POINTS = [
    pytest.param(TuningPoint(), id="bccoo"),
    pytest.param(TuningPoint(slice_count=2), id="bccoo+"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


class TestEmptyBatch:
    @pytest.mark.parametrize("backend_name", ["faithful", "fast"])
    @pytest.mark.parametrize("point", FORMAT_POINTS)
    def test_zero_columns_rejected(self, random_matrix, point, backend_name):
        A = random_matrix(nrows=60, ncols=50, seed=31)
        engine = SpMVEngine(device=DEVICE, backend=backend_name)
        prepared = engine.prepare(A, point=point)
        with pytest.raises(KernelConfigError, match="at least one column"):
            engine.multiply_many(prepared, np.zeros((50, 0)))


class TestFastObservability:
    """A fast dispatch reports as one backend span, no kernel span."""

    @pytest.fixture
    def prepared(self, random_matrix):
        A = random_matrix(nrows=70, ncols=70, seed=37)
        return SpMVEngine(device=DEVICE).prepare(A, point=TuningPoint())

    @staticmethod
    def _kernel_spans(obs):
        return [s for s in obs.tracer.spans() if s.name.startswith("kernel.")]

    def test_multiply(self, prepared, rng):
        obs = Observer()
        engine = SpMVEngine(device=DEVICE, backend="fast", observer=obs)
        engine.multiply(prepared, rng.standard_normal(70))
        assert len(obs.tracer.find_all("backend.fast")) == 1
        assert self._kernel_spans(obs) == []
        executions = obs.metrics.get("kernel.executions")
        assert executions.value(kernel="yaspmv") == 1

    def test_multiply_many(self, prepared, rng):
        obs = Observer()
        engine = SpMVEngine(device=DEVICE, backend="fast", observer=obs)
        engine.multiply_many(prepared, rng.standard_normal((70, 3)))
        assert len(obs.tracer.find_all("backend.fast_multi")) == 1
        assert self._kernel_spans(obs) == []
        executions = obs.metrics.get("kernel.executions")
        assert executions.value(kernel="yaspmm") == 1


#: One point per fast summation core: the 1x1 segment pass, the 2x2
#: block-product and segment passes, the merge-path pass and the RG-CSR
#: lane pass.
CLOCK_POINTS = [
    pytest.param(TuningPoint(), id="bccoo-1x1"),
    pytest.param(TuningPoint(block_height=2, block_width=2), id="bccoo-2x2"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


@pytest.fixture
def estimate_calls(monkeypatch):
    """Every profile ``TimingModel.estimate`` is asked to time, in order."""
    calls = []
    estimate = TimingModel.estimate

    def counting(self, stats):
        calls.append(stats)
        return estimate(self, stats)

    monkeypatch.setattr(TimingModel, "estimate", counting)
    return calls


class TestMemoizedClock:
    """A fast plan computes its simulated clock once per device and batch
    width, and the clock equals the one the engine would estimate."""

    @pytest.mark.parametrize("k", [None, 3], ids=["spmv", "spmm3"])
    @pytest.mark.parametrize("point", CLOCK_POINTS)
    def test_clock_estimated_once_per_plan(self, point, k, estimate_calls):
        A = sparse.random(150, 150, density=0.05, random_state=41, format="csr")
        fast = SpMVEngine(device=DEVICE, backend="fast")
        faithful = SpMVEngine(device=DEVICE, backend="faithful")
        prepared = fast.prepare(A, point=point)
        rng = np.random.default_rng(43)
        X = rng.standard_normal(150 if k is None else (150, k))

        def run(engine, prep):
            if k is None:
                return engine.multiply(prep, X)
            return engine.multiply_many(prep, X)

        first = run(fast, prepared)
        assert first.breakdown == TimingModel(DEVICE).estimate(first.stats)
        assert first.breakdown == run(faithful, prepared).breakdown

        estimate_calls.clear()
        assert run(fast, prepared).breakdown == first.breakdown
        assert estimate_calls == []  # the second multiply of the plan
        refreshed = fast.update_values(
            prepared, prepared.reference_csr().data * 2.0
        )
        assert run(fast, refreshed).breakdown == first.breakdown
        assert estimate_calls == []  # the first multiply after a refresh

    def test_bccoo_plus_folds_per_launch(self, estimate_calls):
        # The slice-combine profile is folded in on every launch, so the
        # result carries no clock and the engine estimates one.
        A = sparse.random(150, 150, density=0.05, random_state=41, format="csr")
        engine = SpMVEngine(device=DEVICE, backend="fast")
        prepared = engine.prepare(A, point=TuningPoint(slice_count=2))
        x = np.random.default_rng(43).standard_normal(150)
        result = get_backend("fast").execute(
            prepared.fmt, x, DEVICE, prepared.config
        )
        assert result.breakdown is None
        estimate_calls.clear()
        out = engine.multiply(prepared, x)
        assert len(estimate_calls) == 1
        assert out.breakdown == TimingModel(DEVICE).estimate(out.stats)


#: One cached plan per kernel: the 1x1 and a blocked BCCOO, merge-path
#: CSR and RG-CSR.
SHARED_PROFILE_POINTS = [
    pytest.param(TuningPoint(), id="bccoo-1x1"),
    pytest.param(TuningPoint(block_height=3, block_width=2), id="bccoo-3x2"),
    pytest.param(TuningPoint(base_format="merge_csr"), id="merge_csr"),
    pytest.param(TuningPoint(base_format="rgcsr"), id="rgcsr"),
]


class TestSharedProfile:
    """Every call of a fast bound launch returns its one profile, so SpMV
    and SpMM on one plan must leave each other's profiles as
    ``faithful`` computes them afresh."""

    @pytest.mark.parametrize("point", SHARED_PROFILE_POINTS)
    def test_spmv_spmm_spmv_on_one_plan(self, point):
        A = sparse.random(150, 150, density=0.05, random_state=47, format="csr")
        prepared = SpMVEngine(device=DEVICE).prepare(A, point=point)
        fmt, cfg = prepared.fmt, prepared.config
        fast, faithful = get_backend("fast"), get_backend("faithful")
        rng = np.random.default_rng(53)
        runs = []
        for k in (None, 8, 3, None):
            if k is None:
                x = rng.standard_normal(150)
                got = fast.execute(fmt, x, DEVICE, cfg)
                want = faithful.execute(fmt, x, DEVICE, cfg)
            else:
                X = rng.standard_normal((150, k))
                got = fast.execute_multi(fmt, X, DEVICE, cfg)
                want = faithful.execute_multi(fmt, X, DEVICE, cfg)
            assert np.array_equal(got.y, want.y)
            runs.append((got, want))
        assert len(_cached_plans(fmt)) == 1
        # Checked once every call has run: a later launch that mutated a
        # shared profile would show here.
        model = TimingModel(DEVICE)
        for got, want in runs:
            _assert_stats_equal(got.stats, want.stats)
            assert got.breakdown == model.estimate(got.stats)
        assert runs[0][0].stats is runs[3][0].stats


class TestConcurrentBinds:
    """Threads racing on a format's first call bind one launch between
    them, and every answer still equals ``faithful``'s."""

    def test_racing_threads_keep_one_launch(self):
        A = sparse.random(300, 300, density=0.02, random_state=61, format="csr")
        x = np.random.default_rng(67).standard_normal(300)
        want = get_backend("faithful").execute(
            BCCOOMatrix.from_scipy(A), x, DEVICE, None
        )
        fast = get_backend("fast")
        fmts = [BCCOOMatrix.from_scipy(A) for _ in range(12)]
        results = {id(fmt): [] for fmt in fmts}
        start = threading.Barrier(4)

        def worker():
            start.wait(WAIT_S)
            for fmt in fmts:
                # A fresh default config per call: launches key on its value.
                results[id(fmt)].append(fast.execute(fmt, x, DEVICE, None))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_S)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        for fmt in fmts:
            runs = results[id(fmt)]
            assert len(runs) == 4
            assert len(fast._launches[fmt]) == 1
            for res in runs:
                assert np.array_equal(res.y, want.y)
                assert res.stats is runs[0].stats
            _assert_stats_equal(runs[0].stats, want.stats)


class TestDeviceValueKeys:
    """Plan memos key on the device's value, not its name."""

    def test_renamed_override_is_another_device(self):
        A = sparse.random(2000, 2000, density=0.005, random_state=7, format="csr")
        slow = DEVICE.with_overrides(
            tex_cache_bytes=1024, dram_bandwidth=DEVICE.dram_bandwidth / 2
        )
        assert slow.name == DEVICE.name
        prepared = SpMVEngine(device=DEVICE).prepare(A, point=TuningPoint())
        x = np.random.default_rng(3).standard_normal(2000)
        results = {
            (backend, dev): SpMVEngine(device=dev, backend=backend).multiply(
                prepared, x
            )
            for backend in ("faithful", "fast")
            for dev in (DEVICE, slow)  # fast memoizes DEVICE's first
        }
        for dev in (DEVICE, slow):
            base, other = results["faithful", dev], results["fast", dev]
            _assert_stats_equal(base.stats, other.stats)
            assert base.breakdown == other.breakdown
        fast_slow, fast_base = results["fast", slow], results["fast", DEVICE]
        assert fast_slow.stats.dram_bytes > fast_base.stats.dram_bytes
        assert fast_slow.breakdown.t_total > fast_base.breakdown.t_total
