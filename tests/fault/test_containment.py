"""Engine-level failure containment: breaker, tuned retry, watchdog routing."""

import time

import numpy as np
import pytest
from scipy import sparse

from repro.core import SpMVEngine
from repro.errors import ValidationError
from repro.fault import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    CircuitBreaker,
    FaultPlan,
)
from repro.fault.retry import FAILURE_THRESHOLD
from repro.obs import Observer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(scope="module")
def big():
    A = sparse.random(2000, 2000, density=0.01, random_state=3, format="csr")
    x = np.random.default_rng(7).standard_normal(2000)
    return A, x


class TestEngineBreaker:
    def test_persistent_failure_trips_circuit(self, big):
        A, x = big
        breaker = CircuitBreaker(30.0, clock=FakeClock())
        eng = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("kernel.nan_partial", seed=2, count=None),
            breaker=breaker,
        )
        prepared = eng.prepare(A)
        family = prepared.point.format_name

        # Each multiply walks past the tuned path: one failure apiece,
        # and the threshold-th trips the circuit.
        for i in range(FAILURE_THRESHOLD):
            assert breaker.state(family) == BREAKER_CLOSED
            res = eng.multiply(prepared, x)
            np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        assert breaker.state(family) == BREAKER_OPEN
        assert breaker.trips == 1

        # Open circuit: the next multiply skips the tuned stages outright
        # (recorded in the trail) and still produces a correct result.
        res2 = eng.multiply(prepared, x)
        np.testing.assert_allclose(res2.y, A @ x, rtol=1e-9, atol=1e-12)
        first = res2.failure.attempts[0]
        assert first.stage == "tuned"
        assert first.error_type == "CircuitOpenError"
        assert not any(a.stage == "tuned-retry" for a in res2.failure.attempts)

    def test_half_open_probe_closes_on_clean_run(self, big):
        A, x = big
        clock = FakeClock()
        breaker = CircuitBreaker(30.0, clock=clock)
        eng = SpMVEngine(policy="permissive", breaker=breaker)  # no faults
        prepared = eng.prepare(A)
        family = prepared.point.format_name

        breaker.trip(family)  # open it by hand
        res = eng.multiply(prepared, x)  # short-circuited, fallback wins
        assert res.failure.attempts[0].error_type == "CircuitOpenError"
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        assert breaker.state(family) == BREAKER_OPEN

        clock.advance(30.0)  # cooldown over: one probe is allowed
        res2 = eng.multiply(prepared, x)
        assert res2.failure is None or res2.failure.fallback_used == "tuned"
        assert breaker.state(family) == BREAKER_CLOSED
        assert breaker.recoveries == 1

    def test_breaker_ignored_under_strict_policy(self, big):
        A, x = big
        breaker = CircuitBreaker(30.0, clock=FakeClock())
        eng = SpMVEngine(breaker=breaker)  # strict (default)
        prepared = eng.prepare(A)
        breaker.trip(prepared.point.format_name)
        # Strict mode never consults the breaker -- the tuned path runs.
        res = eng.multiply(prepared, x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)

    def test_type_validation(self):
        with pytest.raises(ValidationError):
            SpMVEngine(breaker="nope")


class TestEngineRetryPolicy:
    def test_policy_governs_count_and_backoff(self, big, monkeypatch):
        # The engine's tuned retry is fixed: one retry, no backoff.
        A, x = big
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        eng = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single("kernel.nan_partial", seed=2, count=2),
            observer=(obs := Observer()),
        )
        prepared = eng.prepare(A)
        res = eng.multiply(prepared, x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        # Budget 2: the tuned run and its single retry both fail; the
        # untuned stage, past the budget, succeeds.
        assert [a.stage for a in res.failure.attempts] == [
            "tuned", "tuned-retry", "untuned",
        ]
        assert res.failure.fallback_used == "untuned"
        assert obs.metrics.get("retry.attempts").value() == 1
        assert slept == []


class TestWatchdogRouting:
    def test_dispatch_fault_trips_watchdog_and_recovers(self, big):
        A, x = big
        obs = Observer()
        eng = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single(
                "dispatch.out_of_order", seed=7, count=1
            ),
            observer=obs,
        )
        prepared = eng.prepare(A)
        res = eng.multiply(prepared, x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        # The out-of-order chain hit the spin cap (typed timeout, not a
        # silently wrong carry) and the bounded retry recovered it.
        assert obs.metrics.get("watchdog.timeouts").value() >= 1
        failed = [a for a in res.failure.attempts if not a.ok]
        assert any(a.error_type == "AdjacentSyncTimeout" for a in failed)

    def test_persistent_dispatch_reaches_logical_ids(self, big):
        A, x = big
        obs = Observer()
        eng = SpMVEngine(
            policy="permissive",
            fault_plan=FaultPlan.single(
                "dispatch.out_of_order", seed=7, count=None
            ),
            observer=obs,
        )
        prepared = eng.prepare(A)
        res = eng.multiply(prepared, x)
        np.testing.assert_allclose(res.y, A @ x, rtol=1e-9, atol=1e-12)
        # Every tuned attempt timed out; the paper's logical-id repair
        # absorbed the disorder.
        assert res.failure.fallback_used == "logical-ids"
        assert obs.metrics.get("watchdog.timeouts").value() >= 2
