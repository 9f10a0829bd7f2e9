"""Per-shard health tracking for the serving fabric.

The paper's thesis is that SpMV throughput is won by keeping every
execution unit busy despite irregular *work*; a serving fabric's analogue
is keeping every shard busy despite irregular *failures*.  That needs a
signal: this module maintains, per shard, a rolling window of dispatch
outcomes (ok/error) and latencies, and judges the shard sick when the
window's error rate reaches :data:`MAX_ERROR_RATE`.  Latencies are only
recorded (the fabric's ``stats()`` reports their mean and p99).

The judgment feeds the shard-level
:class:`~repro.fault.retry.CircuitBreaker` in the fabric: a sick shard is
*ejected* (circuit tripped open, key range re-routed to its ring
successors) and later *readmitted* through the breaker's normal
cooldown -> half-open -> single-probe lifecycle.  The split of concerns
mirrors the engine: health decides *when* to trip, the breaker owns the
state machine of coming back.

Everything is deterministic and clock-free (latencies are fed in by the
caller), so seeded chaos drills replay identically.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["HealthPolicy", "ShardHealth"]


#: Window error fraction at or above which a shard is sick.
MAX_ERROR_RATE = 0.5


@dataclass(frozen=True)
class HealthPolicy:
    """The rolling window one shard is judged on.

    Attributes
    ----------
    window:
        Number of most-recent dispatch outcomes the judgment sees.
    min_samples:
        Outcomes required before the window may judge at all -- a fresh
        (or freshly readmitted) shard is healthy by default instead of
        being ejected on its first hiccup.
    """

    window: int = 16
    min_samples: int = 4

    def __post_init__(self):
        if self.window < 1:
            raise ReproError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_samples <= self.window:
            raise ReproError(
                f"min_samples must be in [1, window], got {self.min_samples}"
            )


class ShardHealth:
    """Rolling error/latency window of one shard.  Thread-safe.

    ``record_success`` / ``record_failure`` push outcomes;
    :meth:`healthy` judges the current window against the policy.
    :meth:`reset` clears the window -- called on readmission, so a
    recovered shard is not immediately re-ejected by its pre-ejection
    history.
    """

    def __init__(self, policy: HealthPolicy | None = None):
        self.policy = policy if policy is not None else HealthPolicy()
        self._lock = threading.Lock()
        self._window: deque[tuple[bool, float]] = deque(
            maxlen=self.policy.window
        )
        #: Lifetime counters (survive resets).
        self.n_ok = 0
        self.n_err = 0

    def record_success(self, latency_s: float = 0.0) -> None:
        with self._lock:
            self._window.append((True, float(latency_s)))
            self.n_ok += 1

    def record_failure(self, latency_s: float = 0.0) -> None:
        with self._lock:
            self._window.append((False, float(latency_s)))
            self.n_err += 1

    def samples(self) -> int:
        with self._lock:
            return len(self._window)

    def error_rate(self) -> float:
        """Error fraction of the current window (0.0 when empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            errs = sum(1 for ok, _ in self._window if not ok)
            return errs / len(self._window)

    def mean_latency_s(self) -> float:
        """Mean latency of the current window (0.0 when empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            return sum(lat for _, lat in self._window) / len(self._window)

    def p99_latency_s(self) -> float:
        """99th-percentile latency of the current window (0.0 when empty).

        Nearest-rank on the sorted window -- with the small windows the
        fabric uses this is effectively the max.
        """
        with self._lock:
            if not self._window:
                return 0.0
            lats = sorted(lat for _, lat in self._window)
            rank = max(int(len(lats) * 0.99 + 0.5), 1)
            return lats[min(rank, len(lats)) - 1]

    def healthy(self) -> bool:
        """Judge the window: ``False`` means the shard should be ejected.

        Under :attr:`HealthPolicy.min_samples` outcomes the shard is
        healthy by default (insufficient evidence); after that it is sick
        once its window error rate reaches :data:`MAX_ERROR_RATE`.
        """
        with self._lock:
            n = len(self._window)
            if n < self.policy.min_samples:
                return True
            errs = sum(1 for ok, _ in self._window if not ok)
            return errs / n < MAX_ERROR_RATE

    def reset(self) -> None:
        """Forget the window (lifetime counters survive)."""
        with self._lock:
            self._window.clear()

    def stats(self) -> dict:
        """JSON-able snapshot."""
        return {
            "ok": int(self.n_ok),
            "errors": int(self.n_err),
            "samples": self.samples(),
            "error_rate": round(self.error_rate(), 4),
            "mean_latency_s": round(self.mean_latency_s(), 6),
            "p99_latency_s": round(self.p99_latency_s(), 6),
            "healthy": self.healthy(),
        }
