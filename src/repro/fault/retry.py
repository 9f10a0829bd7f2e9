"""Failure-containment policies: retry, deadlines, circuit breakers.

Long-running tuning and serving must contain failures instead of
amplifying them: a hung candidate should cost a bounded wait, a flaky
worker a few retries with backoff, and a kernel family that keeps
getting quarantined should be short-circuited instead of re-probed on
every call.  This module holds the three policy objects the engine,
the tuner and the serving fabric thread through their hot paths:

* :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic seeded jitter* (every run produces the same delay
  schedule, so tests and drills stay reproducible);
* :class:`Deadline` -- a wall-clock budget created once and threaded
  down through tuner -> candidate; expiry is a typed
  :class:`~repro.errors.DeadlineExceeded` (or a cooperative early stop
  where partial progress is the better outcome);
* :class:`CircuitBreaker` -- per-key (kernel-family) failure circuit:
  ``closed`` until :data:`FAILURE_THRESHOLD` consecutive failures, then
  ``open`` for a cooldown, then ``half-open`` for a single probe that
  either closes it again or re-opens it.

Everything is clock-injectable (``clock=``) so tests never sleep, and
state changes can be observed through the ambient :mod:`repro.obs`
observer (``retry.attempts``, ``breaker.state``).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError

__all__ = [
    "RetryPolicy",
    "Deadline",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_VALUES",
]


#: Backoff growth factor per retry.
BACKOFF_MULTIPLIER = 2.0
#: Backoff ceiling, seconds.  No schedule in use reaches it: the longest
#: is the supervisor's, 0.05 s then 0.1 s before jitter.
MAX_DELAY_S = 1.0
#: Relative jitter amplitude: retry ``k``'s delay is scaled by a factor
#: drawn uniformly from ``[1 - JITTER, 1 + JITTER]``.
JITTER = 0.1
#: Seeds the jitter draws, so ``delay_s(k)`` is a pure function of
#: ``(policy, k)`` and a replayed run backs off identically.
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    A policy is data, not a loop: the shard supervisor's restarts read
    ``max_attempts`` and :meth:`delay_s` in their own loop (the fabric's
    failover replays at once and takes a plain ``max_attempts``).  The
    delay before retry ``k`` is
    ``base_delay_s * BACKOFF_MULTIPLIER ** (k - 1)``, capped at
    :data:`MAX_DELAY_S` and scaled by a seeded :data:`JITTER` factor.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first one (``1`` = never retry).
    base_delay_s:
        Backoff before the first retry; ``0`` restarts at once (the
        chaos drill's and the tests' configuration).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ReproError("delays must be >= 0")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included.

        Deterministic: the jitter factor for attempt ``k`` is drawn from
        a generator seeded on ``(JITTER_SEED, k)``, independent of every
        other attempt's draw.
        """
        if attempt < 1:
            raise ReproError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.base_delay_s * BACKOFF_MULTIPLIER ** (attempt - 1),
            MAX_DELAY_S,
        )
        if raw <= 0.0:
            return 0.0
        u = np.random.default_rng([JITTER_SEED, attempt]).random()
        return float(raw * (1.0 + JITTER * (2.0 * u - 1.0)))

    def delays(self) -> list[float]:
        """The full backoff schedule (one entry per retry)."""
        return [self.delay_s(k) for k in range(1, self.max_attempts)]


class Deadline:
    """A wall-clock budget, started at construction.

    ``Deadline(None)`` never expires (so call sites can thread one
    unconditionally).  The clock is injectable for tests; workers in
    other processes receive ``remaining()`` seconds and rebuild a local
    deadline rather than pickling this object.
    """

    __slots__ = ("seconds", "_t0", "_clock")

    def __init__(self, seconds: float | None, *, clock=time.monotonic):
        if seconds is not None and seconds < 0:
            raise ReproError(f"deadline seconds must be >= 0, got {seconds}")
        self.seconds = None if seconds is None else float(seconds)
        self._clock = clock
        self._t0 = clock()

    @classmethod
    def coerce(cls, value: "Deadline | float | None") -> "Deadline | None":
        """Pass deadlines through, wrap numbers, keep ``None``."""
        if value is None or isinstance(value, Deadline):
            return value
        if isinstance(value, (int, float)):
            return cls(float(value))
        raise ReproError(
            f"deadline must be a Deadline, seconds or None, "
            f"got {type(value).__name__}"
        )

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left; ``math.inf`` for an unlimited deadline."""
        if self.seconds is None:
            return math.inf
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.seconds is None:
            return "Deadline(unlimited)"
        return f"Deadline({self.seconds:.3f}s, remaining={self.remaining():.3f}s)"


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #

BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

#: Numeric encoding used for the ``breaker.state`` gauge.
BREAKER_STATE_VALUES = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


#: Consecutive failures that trip a closed circuit open.
FAILURE_THRESHOLD = 3


class _Circuit:
    """State of one breaker key."""

    __slots__ = (
        "state",
        "consecutive_failures",
        "opened_at",
        "probe_in_flight",
        "probe_claimed_at",
    )

    def __init__(self):
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probe_in_flight = False
        self.probe_claimed_at = 0.0


class CircuitBreaker:
    """Per-key failure circuit (keys are kernel families in the engine).

    Semantics (per key):

    * ``closed``: attempts flow; :data:`FAILURE_THRESHOLD`
      *consecutive* failures trip the circuit to ``open``.
    * ``open``: :meth:`allow` returns ``False`` until ``cooldown_s`` has
      elapsed, at which point the circuit moves to ``half-open``.
    * ``half-open``: one probe attempt is allowed; success closes the
      circuit, failure re-opens it (and restarts the cooldown).

    Thread-safe.  State transitions are visible via :meth:`state` /
    :meth:`state_value` (fed to the ``breaker.state`` metrics gauge by
    the engine) and :meth:`snapshot`.
    """

    def __init__(self, cooldown_s: float = 30.0, *, clock=time.monotonic):
        if cooldown_s < 0:
            raise ReproError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._circuits: dict[str, _Circuit] = {}
        self._lock = threading.Lock()
        #: Lifetime transition counters (observability / tests).
        self.trips = 0
        self.probes = 0
        self.recoveries = 0

    def _circuit(self, key: str) -> _Circuit:
        circuit = self._circuits.get(key)
        if circuit is None:
            circuit = self._circuits[key] = _Circuit()
        return circuit

    def _refresh(self, circuit: _Circuit) -> None:
        """Apply the time-driven ``open`` -> ``half-open`` transition."""
        if (
            circuit.state == BREAKER_OPEN
            and self._clock() - circuit.opened_at >= self.cooldown_s
        ):
            circuit.state = BREAKER_HALF_OPEN
            circuit.probe_in_flight = False
        if (
            circuit.state == BREAKER_HALF_OPEN
            and circuit.probe_in_flight
            and self._clock() - circuit.probe_claimed_at >= self.cooldown_s
        ):
            # A probe that never reported back (its caller died or an
            # unexpected exception skipped record_*) must not wedge the
            # circuit in half-open forever: release the slot after one
            # cooldown so the next caller can probe again.
            circuit.probe_in_flight = False

    def state(self, key: str) -> str:
        with self._lock:
            circuit = self._circuit(key)
            self._refresh(circuit)
            return circuit.state

    def state_value(self, key: str) -> int:
        """Numeric state for the ``breaker.state`` gauge."""
        return BREAKER_STATE_VALUES[self.state(key)]

    def allow(self, key: str) -> bool:
        """Whether an attempt on ``key`` may proceed right now.

        In ``half-open``, exactly one caller is granted the probe slot
        -- concurrent racers are refused until :meth:`record_success` /
        :meth:`record_failure` resolves the probe (or a full cooldown
        elapses without a report, which releases the slot).
        """
        with self._lock:
            circuit = self._circuit(key)
            self._refresh(circuit)
            if circuit.state == BREAKER_OPEN:
                return False
            if circuit.state == BREAKER_HALF_OPEN:
                if circuit.probe_in_flight:
                    return False
                circuit.probe_in_flight = True
                circuit.probe_claimed_at = self._clock()
                self.probes += 1
            return True

    def record_success(self, key: str) -> None:
        with self._lock:
            circuit = self._circuit(key)
            if circuit.state != BREAKER_CLOSED:
                self.recoveries += 1
            circuit.state = BREAKER_CLOSED
            circuit.consecutive_failures = 0
            circuit.probe_in_flight = False

    def record_failure(self, key: str) -> None:
        with self._lock:
            circuit = self._circuit(key)
            self._refresh(circuit)
            circuit.consecutive_failures += 1
            circuit.probe_in_flight = False
            if circuit.state == BREAKER_HALF_OPEN or (
                circuit.state == BREAKER_CLOSED
                and circuit.consecutive_failures >= FAILURE_THRESHOLD
            ):
                circuit.state = BREAKER_OPEN
                circuit.opened_at = self._clock()
                self.trips += 1

    def trip(self, key: str) -> None:
        """Force the circuit for ``key`` open right now.

        The wiring the serving fabric's health tracker uses: a shard
        whose rolling error/latency window turns sick is *ejected* by
        tripping its circuit, regardless of the consecutive-failure
        count.  The normal cooldown -> half-open -> probe lifecycle then
        governs readmission.  Idempotent while already open (the
        cooldown is NOT restarted, so a flapping health signal cannot
        postpone the probe forever).
        """
        with self._lock:
            circuit = self._circuit(key)
            self._refresh(circuit)
            if circuit.state == BREAKER_OPEN:
                return
            circuit.state = BREAKER_OPEN
            circuit.opened_at = self._clock()
            circuit.probe_in_flight = False
            self.trips += 1

    def snapshot(self) -> dict[str, str]:
        """Current state per key (cooldown transitions applied)."""
        with self._lock:
            for circuit in self._circuits.values():
                self._refresh(circuit)
            return {k: c.state for k, c in self._circuits.items()}
