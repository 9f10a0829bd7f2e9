"""Small measurement helpers shared by the workloads and the tracer."""

from __future__ import annotations

import hashlib
import math
import resource
import time


def total(xs) -> float:
    return float(math.fsum(xs))


def percentile(xs, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(xs)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(xs) -> float:
    return percentile(xs, 50.0)


def hmean(xs) -> float:
    """Harmonic mean of positive values (the paper's suite average)."""
    xs = list(xs)
    return len(xs) / math.fsum(1.0 / x for x in xs)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """How fast the host runs right now: a fixed reference loop, in ms.

    The loop mixes pure Python and NumPy, as the program does, and takes
    about 1.6 ms on a quiet 2 GHz core.  On a shared guest the host's
    speed swings by up to 2x within minutes, which moves every CPU-bound
    wall time with it.  An operation's wall divided by the loop timed next
    to it -- its cost in reference units, ``ref`` -- holds still instead.
    """

    def __init__(self):
        import numpy as np

        self._sort = np.sort
        self._data = np.random.default_rng(0).standard_normal(30_000)

    def ms(self, repeats: int = 3) -> float:
        """The fastest of ``repeats`` runs of the loop."""
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20_000):
                acc += i * i % 7
            self._sort(self._data)
            best = min(best, (time.perf_counter() - t0) * 1e3)
        return best


def drift_probe_ms() -> float:
    """Median of nine reference loops, in ms.

    Run at the start and the end of every run: when the two readings
    differ, the host changed speed during the run, whatever the code did.
    """
    ref = Reference()
    return median([ref.ms(repeats=1) for _ in range(9)])


class Digest:
    """Order-sensitive digest of a workload's outputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, str):
                part = part.encode()
            elif not isinstance(part, bytes):
                part = part.tobytes()
            self._h.update(len(part).to_bytes(8, "little"))
            self._h.update(part)

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
