"""Tests for the public engine API."""

import gc

import numpy as np
import pytest

from repro import SpMVEngine, get_backend, yaspmv
from repro.gpu import GTX480, GTX680
from repro.matrices import get_spec
from repro.tuning import TuningPoint


class TestEngine:
    def test_prepare_and_multiply(self, random_matrix, rng):
        A = random_matrix(nrows=150, ncols=150, density=0.05)
        x = rng.standard_normal(150)
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A)
        res = eng.multiply(prep, x)
        np.testing.assert_allclose(res.y, A @ x, atol=1e-9)
        assert res.gflops > 0
        assert res.time_s > 0
        assert prep.tuning is not None

    def test_prepare_once_multiply_many(self, random_matrix, rng):
        A = random_matrix(nrows=100, ncols=100, density=0.08)
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A)
        for _ in range(3):
            x = rng.standard_normal(100)
            np.testing.assert_allclose(eng.multiply(prep, x).y, A @ x, atol=1e-9)

    def test_explicit_point_skips_tuning(self, random_matrix, rng):
        A = random_matrix()
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A, point=TuningPoint())
        assert prep.tuning is None
        x = rng.standard_normal(A.shape[1])
        np.testing.assert_allclose(eng.multiply(prep, x).y, A @ x, atol=1e-9)

    def test_bccoo_plus_point(self, random_matrix, rng):
        A = random_matrix(nrows=60, ncols=120)
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A, point=TuningPoint(slice_count=4))
        assert prep.point.format_name == "bccoo+"
        x = rng.standard_normal(120)
        np.testing.assert_allclose(eng.multiply(prep, x).y, A @ x, atol=1e-9)

    def test_device_spec_accepted(self, random_matrix, rng):
        eng = SpMVEngine(GTX480)
        A = random_matrix()
        x = rng.standard_normal(A.shape[1])
        res = eng.multiply(eng.prepare(A, point=TuningPoint()), x)
        np.testing.assert_allclose(res.y, A @ x, atol=1e-9)
        assert res.time_s > 0

    def test_one_shot(self, random_matrix, rng):
        A = random_matrix(nrows=100, ncols=100)
        x = rng.standard_normal(100)
        np.testing.assert_allclose(yaspmv(A, x), A @ x, atol=1e-9)

    def test_stats_exposed(self, random_matrix, rng):
        A = random_matrix()
        eng = SpMVEngine("gtx680")
        res = eng.multiply(eng.prepare(A, point=TuningPoint()), rng.standard_normal(A.shape[1]))
        assert res.stats.dram_read_bytes > 0
        assert res.breakdown.bound in ("memory", "compute")


class TestWinnerFormat:
    """A tuned prepare keeps the format its winner check built and
    executed; a store hit or an explicit point converts once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.core.engine as engine_module

        calls = []
        original = engine_module.build_format

        def counting(csr, point):
            calls.append(point)
            return original(csr, point)

        monkeypatch.setattr(engine_module, "build_format", counting)
        return calls

    def test_tuned_prepare_keeps_the_checked_format(self, builds, random_matrix, rng):
        A = random_matrix(nrows=150, ncols=150, density=0.05)
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A)
        assert builds == []
        assert prep.tuning.checked_format is None
        assert "checked_format" not in prep.tuning.to_dict()
        x = rng.standard_normal(150)
        np.testing.assert_allclose(eng.multiply(prep, x).y, A @ x, atol=1e-9)

    def test_store_hit_and_explicit_point_build_once(self, builds, random_matrix, tmp_path):
        from repro.tuning import TuningStore

        A = random_matrix(nrows=150, ncols=150, density=0.05)
        store = TuningStore(tmp_path / "store.json")
        tuned = SpMVEngine("gtx680", plan_store=store).prepare(A)
        hit = SpMVEngine("gtx680", plan_store=store).prepare(A)
        assert hit.tuning.store_hit
        SpMVEngine("gtx680").prepare(A, point=tuned.point)
        assert builds == [tuned.point, tuned.point]


class TestUnifiedExecutionAPI:
    """The one-shot overload, the removed alias, and resilient SpMM."""

    def test_multiply_accepts_raw_matrix(self, random_matrix, rng):
        A = random_matrix(nrows=90, ncols=90)
        x = rng.standard_normal(90)
        res = SpMVEngine("gtx680").multiply(A, x)
        np.testing.assert_allclose(res.y, A @ x, atol=1e-9)

    def test_multiply_many_accepts_raw_matrix(self, random_matrix, rng):
        A = random_matrix(nrows=90, ncols=90)
        X = rng.standard_normal((90, 3))
        res = SpMVEngine("gtx680").multiply_many(A, X)
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)
        assert res.nnz == A.nnz * 3

    def test_multiply_matrix_alias_removed(self, random_matrix, rng):
        # The deprecated alias is gone; ``multiply`` accepts raw
        # matrices directly (tested above).
        assert not hasattr(SpMVEngine("gtx680"), "multiply_matrix")

    def test_multiply_many_validated(self, random_matrix, rng):
        A = random_matrix(nrows=90, ncols=90)
        X = rng.standard_normal((90, 4))
        eng = SpMVEngine("gtx680", validate=True, policy="permissive")
        res = eng.multiply_many(eng.prepare(A, point=TuningPoint()), X)
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)
        # Same resilience policy as multiply: the trail is reported.
        assert res.failure is not None
        assert res.failure.fallback_used == "tuned"
        assert res.failure.attempts[0].validation.ok
        assert res.nnz == A.nnz * 4

    def test_max_batch_width_matches_kernel_limit(self, random_matrix, rng):
        # The public bound must agree with what run_multi actually
        # accepts: the widest batch runs, one column more is rejected
        # for shared memory.
        from repro.errors import KernelConfigError, ValidationError

        A = random_matrix(nrows=80, ncols=80)
        eng = SpMVEngine("gtx680")
        prep = eng.prepare(A, point=TuningPoint())
        k = eng.max_batch_width(prep)
        assert k >= 1
        X = rng.standard_normal((80, k))
        np.testing.assert_allclose(eng.multiply_many(prep, X).y, A @ X, atol=1e-9)
        with pytest.raises(KernelConfigError):
            eng.multiply_many(prep, rng.standard_normal((80, k + 1)))
        with pytest.raises(ValidationError):
            eng.max_batch_width(A)  # raw matrices are not accepted

    def test_multiply_many_fallback_chain(self, random_matrix, rng):
        from repro.fault import FaultPlan

        A = random_matrix(nrows=90, ncols=90)
        X = rng.standard_normal((90, 2))
        plan = FaultPlan.single("format.column_truncate", seed=1, count=None)
        eng = SpMVEngine("gtx680", policy="permissive", fault_plan=plan)
        res = eng.multiply_many(eng.prepare(A, point=TuningPoint()), X)
        # Every simulated stage is corrupted; the CSR reference (fault
        # injection disabled) must deliver the exact product.
        np.testing.assert_allclose(res.y, A @ X, atol=1e-9)
        assert res.degraded
        assert res.failure.fallback_used == "csr-reference"
        stages = [a.stage for a in res.failure.attempts]
        assert stages == ["tuned", "tuned-retry", "untuned", "csr-reference"]


class TestResultProtocol:
    """``summary()``/``to_dict()``: the exporters' interchange surface."""

    def test_to_dict_is_jsonable(self, random_matrix, rng):
        import json

        A = random_matrix(nrows=90, ncols=90)
        x = rng.standard_normal(90)
        res = SpMVEngine("gtx680").multiply(A, x)
        d = json.loads(json.dumps(res.to_dict()))
        assert d["kind"] == "spmv_result"
        assert d["nnz"] == A.nnz
        assert d["time_s"] > 0
        assert d["breakdown"]["t_total"] == pytest.approx(d["time_s"])
        assert d["stats"]["n_launches"] >= 1

    def test_summary_mentions_throughput_and_fallback(self, random_matrix, rng):
        A = random_matrix(nrows=90, ncols=90)
        x = rng.standard_normal(90)
        eng = SpMVEngine("gtx680", validate=True, policy="permissive")
        res = eng.multiply(eng.prepare(A, point=TuningPoint()), x)
        text = res.summary()
        assert "GFLOPS" in text
        assert "[fallback: tuned]" in text


class TestReferenceCsrThreadSafety:
    def test_concurrent_lazy_decode_yields_one_csr(self, random_matrix):
        import threading

        A = random_matrix(nrows=120, ncols=120)
        prep = SpMVEngine("gtx680").prepare(A, point=TuningPoint())
        results = []
        barrier = threading.Barrier(8)

        def decode():
            barrier.wait()
            results.append(prep.reference_csr())

        threads = [threading.Thread(target=decode) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        # Double-checked locking: every caller sees the same decoded object.
        assert all(r is results[0] for r in results)
        np.testing.assert_allclose(results[0].toarray(), A.toarray(), atol=1e-12)


class TestMultiplyManyVectorSequences:
    """Regression: a sequence of 1-D vectors must coalesce into ONE SpMM
    dispatch (the serving layer's batch shape), not a per-vector loop,
    and each output column must be bit-identical to a sequential
    multiply of the corresponding vector."""

    def test_list_of_vectors_single_dispatch(self, random_matrix, rng):
        from repro import Observer

        obs = Observer()
        eng = SpMVEngine("gtx680", observer=obs)
        A = random_matrix(nrows=100, ncols=100)
        prep = eng.prepare(A, point=TuningPoint())
        xs = [rng.standard_normal(100) for _ in range(5)]
        result = eng.multiply_many(prep, xs)
        # Exactly one SpMM kernel dispatch; zero single-vector dispatches.
        assert len(obs.tracer.find_all("kernel.yaspmm")) == 1
        assert len(obs.tracer.find_all("kernel.yaspmv")) == 0
        assert result.y.shape == (100, 5)
        for j, x in enumerate(xs):
            assert np.array_equal(result.y[:, j], eng.multiply(prep, x).y)

    def test_tuple_of_vectors_accepted(self, random_matrix, rng):
        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=60, ncols=60)
        prep = eng.prepare(A, point=TuningPoint())
        xs = tuple(rng.standard_normal(60) for _ in range(3))
        result = eng.multiply_many(prep, xs)
        expected = np.column_stack([A @ x for x in xs])
        np.testing.assert_allclose(result.y, expected, atol=1e-9)
        # nnz accounting scales with the batch width.
        assert result.nnz == prep.nnz * 3

    def test_empty_sequence_rejected(self, random_matrix):
        from repro.errors import ValidationError

        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=40, ncols=40)
        prep = eng.prepare(A, point=TuningPoint())
        with pytest.raises(ValidationError):
            eng.multiply_many(prep, [])

    def test_mismatched_lengths_rejected(self, random_matrix, rng):
        from repro.errors import ValidationError

        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=40, ncols=40)
        prep = eng.prepare(A, point=TuningPoint())
        with pytest.raises(ValidationError):
            eng.multiply_many(prep, [rng.standard_normal(40), rng.standard_normal(39)])

    def test_non_1d_members_rejected(self, random_matrix, rng):
        from repro.errors import ValidationError

        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=40, ncols=40)
        prep = eng.prepare(A, point=TuningPoint())
        with pytest.raises(ValidationError):
            eng.multiply_many(prep, [rng.standard_normal((40, 2))])

    def test_resilient_path_also_coalesces(self, random_matrix, rng):
        """Under validation/permissive policy the sequence shape still
        goes through the fallback chain as one multi-RHS execution."""
        eng = SpMVEngine("gtx680", validate=True, policy="permissive")
        A = random_matrix(nrows=80, ncols=80)
        prep = eng.prepare(A, point=TuningPoint())
        xs = [rng.standard_normal(80) for _ in range(4)]
        result = eng.multiply_many(prep, xs)
        expected = np.column_stack([A @ x for x in xs])
        np.testing.assert_allclose(result.y, expected, atol=1e-9)


class TestBackendAPI:
    """``backend=``: one option, chosen at construction; capabilities."""

    def test_ctor_and_setter(self, random_matrix, rng):
        eng = SpMVEngine("gtx680", backend="fast")
        # The engine executes on the shared table instance.
        assert eng.backend is get_backend("fast")
        assert SpMVEngine("gtx680").backend is get_backend("faithful")
        # No setter: the backend is fixed at construction.
        with pytest.raises(AttributeError):
            eng.backend = "faithful"
        A = random_matrix(nrows=60, ncols=60)
        x = rng.standard_normal(60)
        res = eng.multiply(eng.prepare(A, point=TuningPoint()), x)
        np.testing.assert_allclose(res.y, A @ x, atol=1e-9)

    def test_unknown_backend_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            SpMVEngine("gtx680", backend="sparta")
        with pytest.raises(ReproError):
            SpMVEngine("gtx680", backend="auto")

    def test_prepare_leaves_no_candidate_plans(self, rng):
        # Tuning never runs on the fast backend, so a prepare on a fast
        # engine caches no plans for losing candidates: only the
        # multiply of the winner builds one.
        spec = get_spec("QCD")
        A = spec.load(scale=spec.scale_for_nnz(3_000), seed=0)
        fast = get_backend("fast")
        eng = SpMVEngine("gtx680", backend="fast")
        gc.collect()
        before = fast.plan_count()
        prep = eng.prepare(A)
        eng.multiply(prep, rng.standard_normal(A.shape[1]))
        assert fast.plan_count() - before <= 1

    def test_prepared_to_dict_and_summary(self, random_matrix):
        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=70, ncols=70)
        prep = eng.prepare(A, point=TuningPoint(slice_count=2))
        d = prep.to_dict()
        assert d["kind"] == "prepared_matrix"
        assert d["format"] == "bccoo+"
        assert d["slices"] == 2
        assert d["shared"] is False and d["shared_bytes"] == 0
        assert "bccoo+" in prep.summary()

    def test_prepared_shared_summary(self, random_matrix):
        eng = SpMVEngine("gtx680")
        A = random_matrix(nrows=70, ncols=70)
        prep = eng.prepare(A, point=TuningPoint()).share()
        try:
            d = prep.to_dict()
            assert d["shared"] is True
            assert d["shared_bytes"] == prep.arena.nbytes > 0
            assert "shared" in prep.summary()
        finally:
            prep.release_shared()
