"""Tests for the failure-containment policies (retry/deadline/breaker)."""

import math

import pytest

from repro.errors import ReproError
from repro.fault import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.fault.retry import FAILURE_THRESHOLD


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, base_delay_s=0.1)
        assert len(p.delays()) == 3
        for k, delay in enumerate(p.delays(), start=1):
            raw = 0.1 * 2.0 ** (k - 1)
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_max_delay_caps(self):
        p = RetryPolicy(max_attempts=6, base_delay_s=0.5)
        for k, delay in enumerate(p.delays(), start=1):
            raw = min(0.5 * 2.0 ** (k - 1), 1.0)
            assert raw * 0.9 <= delay <= raw * 1.1
        assert max(p.delays()) <= 1.1

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=1.0)
        q = RetryPolicy(max_attempts=5, base_delay_s=1.0)
        assert p.delays() == q.delays()
        # Every raw delay sits at the 1 s cap, so the schedule is the
        # jitter factors: one draw per attempt, each within 10%.
        assert len(set(p.delays())) == 4
        assert all(0.9 <= d <= 1.1 for d in p.delays())

    def test_zero_base_never_sleeps(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        assert p.delays() == [0.0] * 4

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay_s=-1.0)


class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline(None)
        assert d.remaining() == math.inf
        assert not d.expired()

    def test_expiry_with_fake_clock(self):
        clock = FakeClock()
        d = Deadline(5.0, clock=clock)
        assert d.remaining() == 5.0
        clock.advance(4.0)
        assert not d.expired()
        clock.advance(1.5)
        assert d.expired()

    def test_coerce(self):
        d = Deadline(1.0)
        assert Deadline.coerce(d) is d
        assert Deadline.coerce(None) is None
        assert Deadline.coerce(2.5).seconds == 2.5
        with pytest.raises(ReproError):
            Deadline.coerce("soon")

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            Deadline(-1.0)


class TestCircuitBreaker:
    def make(self, cooldown=10.0):
        clock = FakeClock()
        return CircuitBreaker(cooldown, clock=clock), clock

    def test_closed_until_threshold(self):
        br, _ = self.make()
        assert FAILURE_THRESHOLD == 3
        for _ in range(2):
            br.record_failure("bccoo")
        assert br.state("bccoo") == BREAKER_CLOSED
        assert br.allow("bccoo")
        br.record_failure("bccoo")
        assert br.state("bccoo") == BREAKER_OPEN
        assert not br.allow("bccoo")
        assert br.trips == 1

    def test_success_resets_consecutive_count(self):
        br, _ = self.make()
        for _ in range(2):
            br.record_failure("k")
        br.record_success("k")
        for _ in range(2):
            br.record_failure("k")
        assert br.state("k") == BREAKER_CLOSED  # never 3 in a row

    def test_half_open_probe_success_closes(self):
        br, clock = self.make(cooldown=10.0)
        br.trip("k")
        assert br.state("k") == BREAKER_OPEN
        clock.advance(10.0)
        assert br.state("k") == BREAKER_HALF_OPEN
        assert br.allow("k")  # the probe slot
        assert br.probes == 1
        br.record_success("k")
        assert br.state("k") == BREAKER_CLOSED
        assert br.recoveries == 1

    def test_half_open_probe_failure_reopens(self):
        br, clock = self.make(cooldown=10.0)
        br.trip("k")
        clock.advance(10.0)
        assert br.allow("k")
        br.record_failure("k")
        assert br.state("k") == BREAKER_OPEN
        assert not br.allow("k")
        assert br.trips == 2
        clock.advance(9.9)  # cooldown restarted at the re-open
        assert br.state("k") == BREAKER_OPEN

    def test_keys_are_independent(self):
        br, _ = self.make()
        br.trip("a")
        assert not br.allow("a")
        assert br.allow("b")
        assert br.snapshot() == {"a": BREAKER_OPEN, "b": BREAKER_CLOSED}

    def test_state_value_encoding(self):
        br, clock = self.make(cooldown=5.0)
        assert br.state_value("k") == 0
        br.trip("k")
        assert br.state_value("k") == 2
        clock.advance(5.0)
        assert br.state_value("k") == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(-1.0)


class TestHalfOpenProbeSlot:
    """Half-open must admit exactly ONE probe, also under concurrency."""

    def make_half_open(self, cooldown=10.0):
        clock = FakeClock()
        br = CircuitBreaker(cooldown, clock=clock)
        br.trip("k")
        clock.advance(cooldown)
        assert br.state("k") == BREAKER_HALF_OPEN
        return br, clock

    def test_second_caller_refused_while_probe_in_flight(self):
        br, _ = self.make_half_open()
        assert br.allow("k") is True  # probe slot claimed
        assert br.allow("k") is False  # racer refused
        assert br.allow("k") is False
        assert br.probes == 1
        br.record_success("k")
        assert br.state("k") == BREAKER_CLOSED
        assert br.allow("k") is True  # closed again: attempts flow

    def test_concurrent_probes_admit_exactly_one(self):
        import threading

        br, _ = self.make_half_open()
        n = 8
        barrier = threading.Barrier(n)
        admitted = []

        def racer():
            barrier.wait()
            if br.allow("k"):
                admitted.append(True)

        threads = [threading.Thread(target=racer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        assert br.probes == 1

    def test_failed_probe_releases_slot_via_reopen(self):
        br, clock = self.make_half_open(cooldown=10.0)
        assert br.allow("k")
        br.record_failure("k")
        assert br.state("k") == BREAKER_OPEN
        clock.advance(10.0)
        # A fresh half-open period grants a fresh probe slot.
        assert br.allow("k") is True
        assert br.probes == 2

    def test_stale_probe_slot_released_after_cooldown(self):
        # A probe whose caller never reports back (e.g. it died on a
        # non-ReproError) must not wedge the circuit in half-open.
        br, clock = self.make_half_open(cooldown=10.0)
        assert br.allow("k") is True
        assert br.allow("k") is False  # slot held, no report yet
        clock.advance(10.0)
        assert br.allow("k") is True  # slot reclaimed after one cooldown
        assert br.probes == 2

    def test_trip_forces_open(self):
        clock = FakeClock()
        br = CircuitBreaker(10.0, clock=clock)
        assert br.state("k") == BREAKER_CLOSED
        br.trip("k")  # no failures recorded; health-driven ejection
        assert br.state("k") == BREAKER_OPEN
        assert not br.allow("k")
        assert br.trips == 1
        clock.advance(10.0)
        assert br.state("k") == BREAKER_HALF_OPEN
        assert br.allow("k")
        br.record_success("k")
        assert br.state("k") == BREAKER_CLOSED
        assert br.recoveries == 1

    def test_trip_is_idempotent_and_does_not_restart_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(10.0, clock=clock)
        br.trip("k")
        clock.advance(6.0)
        br.trip("k")  # flapping health signal re-trips mid-cooldown
        assert br.trips == 1
        clock.advance(4.0)  # 10s since the FIRST trip
        # If the second trip had restarted the cooldown this would
        # still be open -- the probe must not be postponable forever.
        assert br.state("k") == BREAKER_HALF_OPEN
