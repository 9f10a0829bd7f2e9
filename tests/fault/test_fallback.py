"""End-to-end tests: engine resilience under every fault class."""

import time

import numpy as np
import pytest
from scipy import sparse

from repro.core import SpMVEngine
from repro.errors import FaultInjectedError, ReproError, ValidationError
from repro.fault import FaultPlan, FaultSpec


@pytest.fixture(scope="module")
def big():
    """A matrix large enough for several workgroups under the default
    tuned configuration -- the sync/dispatch faults need neighbours."""
    A = sparse.random(2000, 2000, density=0.01, random_state=3, format="csr")
    x = np.random.default_rng(7).standard_normal(2000)
    return A, x


def permissive(plan, **kw):
    return SpMVEngine(policy="permissive", fault_plan=plan, **kw)


class TestPermissiveRecovery:
    """With any injected fault class, permissive mode still returns a
    correct y (via some fallback stage) and reports the trail."""

    @pytest.mark.parametrize(
        "site",
        [
            "kernel.nan_partial",
            "kernel.inf_partial",
            "format.bitflag_flip",
            "format.column_truncate",
            "dispatch.out_of_order",
        ],
    )
    def test_persistent_fault_recovered(self, big, site):
        A, x = big
        eng = permissive(FaultPlan.single(site, seed=2, count=None))
        res = eng.multiply(eng.prepare(A), x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        assert res.failure is not None
        assert res.failure.fallback_used is not None
        assert any(ev.site == site for ev in res.failure.injected_events)

    def test_stale_grp_sum_recovered(self, big):
        A, x = big
        # The chosen stale workgroup's incoming carry can legitimately be
        # zero (its predecessor ends on a row stop), making the fault
        # harmless; scan a few seeds and require that a corrupting one
        # was detected and recovered.
        degraded = False
        for seed in range(1, 8):
            eng = permissive(
                FaultPlan.single("sync.stale_grp_sum", seed=seed, count=None)
            )
            res = eng.multiply(eng.prepare(A), x)
            np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
            if res.degraded:
                degraded = True
                break
        assert degraded, "no seed in range produced a corrupting stale read"

    def test_transient_fault_recovered_by_retry(self, big, monkeypatch):
        A, x = big
        eng = permissive(FaultPlan.single("kernel.nan_partial", seed=1, count=1))
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        res = eng.multiply(eng.prepare(A), x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        assert res.failure.fallback_used == "tuned-retry"
        # The tuned run fails, its one retry passes, and nothing sleeps.
        assert [(a.stage, a.ok) for a in res.failure.attempts] == [
            ("tuned", False), ("tuned-retry", True),
        ]
        assert slept == []

    def test_out_of_order_absorbed_by_logical_ids(self, big):
        A, x = big
        eng = permissive(
            FaultPlan.single("dispatch.out_of_order", seed=2, count=None)
        )
        res = eng.multiply(eng.prepare(A), x)
        assert res.failure.fallback_used in ("tuned", "logical-ids")
        if res.failure.fallback_used == "logical-ids":
            # The repair stage records the absorption event.
            last = res.failure.attempts[-1]
            assert any(
                dict(ev.detail).get("absorbed_by") == "logical_ids"
                for ev in last.injected
            )

    def test_persistent_nan_reaches_csr_reference(self, big):
        A, x = big
        eng = permissive(FaultPlan.single("kernel.nan_partial", seed=1, count=None))
        res = eng.multiply(eng.prepare(A), x)
        assert res.failure.fallback_used == "csr-reference"
        assert res.degraded
        stages = [a.stage for a in res.failure.attempts]
        assert stages == ["tuned", "tuned-retry", "untuned", "csr-reference"]
        assert all(not a.ok for a in res.failure.attempts[:-1])

    def test_composed_plan(self, big):
        A, x = big
        plan = FaultPlan(
            [
                FaultSpec("kernel.nan_partial", count=1),
                FaultSpec("format.column_truncate", count=1),
            ],
            seed=5,
        )
        eng = permissive(plan)
        res = eng.multiply(eng.prepare(A), x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        sites = {ev.site for ev in res.failure.injected_events}
        assert sites == {"kernel.nan_partial", "format.column_truncate"}


class TestStrictPolicy:
    def test_strict_raises_fault_injected(self, big):
        A, x = big
        eng = SpMVEngine(
            policy="strict",
            fault_plan=FaultPlan.single("kernel.nan_partial", seed=1, count=None),
        )
        with pytest.raises(FaultInjectedError) as exc_info:
            eng.multiply(eng.prepare(A), x)
        assert exc_info.value.site == "kernel.nan_partial"
        assert exc_info.value.seed == 1

    def test_strict_is_default(self):
        assert SpMVEngine().policy == "strict"

    def test_bad_policy_rejected(self):
        with pytest.raises(ValidationError):
            SpMVEngine(policy="yolo")

    def test_bad_validate_rejected(self):
        with pytest.raises(ValidationError):
            SpMVEngine(validate="sometimes")


class TestCleanRunsUnaffected:
    def test_no_plan_results_bit_identical(self, big):
        A, x = big
        r0 = SpMVEngine().multiply(SpMVEngine().prepare(A), x)
        eng = SpMVEngine(validate=True, policy="permissive")
        r1 = eng.multiply(eng.prepare(A), x)
        assert np.array_equal(r0.y, r1.y)
        assert r1.failure.fallback_used == "tuned"
        assert not r1.degraded

    def test_default_engine_has_no_failure_report(self, random_matrix, rng):
        A = random_matrix()
        eng = SpMVEngine()
        res = eng.multiply(eng.prepare(A), rng.standard_normal(A.shape[1]))
        assert res.failure is None and not res.degraded

    def test_exhausted_budget_goes_quiet(self, big):
        A, x = big
        plan = FaultPlan.single("format.bitflag_flip", seed=2, count=1)
        eng = permissive(plan)
        prepared = eng.prepare(A)
        first = eng.multiply(prepared, x)
        assert first.degraded or first.failure.fallback_used == "tuned-retry"
        second = eng.multiply(prepared, x)  # budget spent in run one
        assert second.failure.fallback_used == "tuned"
        np.testing.assert_allclose(second.y, A @ x, rtol=1e-9, atol=1e-12)


class TestTunerQuarantine:
    def test_skip_reasons_taxonomy(self, random_matrix):
        from repro.gpu import get_device
        from repro.tuning import AutoTuner
        from repro.tuning.cache import FormatCache

        A = random_matrix()
        tuner = AutoTuner(get_device("gtx680"))
        fails = {"n": 0}
        original = FormatCache.entry

        def flaky(self, point):
            # Some, not all, pruned candidates: one bit word of three.
            if point.bit_word == "uint16":
                fails["n"] += 1
                raise ReproError("synthetic per-candidate failure")
            return original(self, point)

        FormatCache.entry = flaky
        try:
            result = tuner.tune(A)
        finally:
            FormatCache.entry = original
        assert fails["n"] > 0
        assert result.best is not None
        assert result.best.point.bit_word != "uint16"
        assert result.skipped >= fails["n"]
        assert result.skip_reasons.get("ReproError") == fails["n"]
        assert sum(result.skip_reasons.values()) == result.skipped

    def test_non_repro_errors_propagate(self, random_matrix):
        from repro.gpu import get_device
        from repro.tuning import AutoTuner
        from repro.tuning.cache import FormatCache

        A = random_matrix()
        original = FormatCache.entry

        def buggy(self, point):
            raise TypeError("a genuine bug")

        FormatCache.entry = buggy
        try:
            with pytest.raises(TypeError):
                AutoTuner(get_device("gtx680")).tune(A)
        finally:
            FormatCache.entry = original
