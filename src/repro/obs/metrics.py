"""Metrics registry: named counters, gauges and histograms with labels.

The registry is the numerical half of the observability layer (the span
tracer is the structural half): engine, tuner, kernels and the
resilience chain increment well-known metrics --
``tuner.plan_cache.hits``, ``fallback.stage_used{stage=...}``,
``fault.injections{site=...}``, ``kernel.launches{kernel=...}`` -- and
the exporters turn the registry into a Prometheus-style text page or a
human table.

Every metric stores one value per label combination (an unlabeled metric
is the empty combination).  All mutation goes through one registry lock:
cheap enough for the simulated hot path and safe for the threaded
server's dispatcher and the fabric's pump thread.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default histogram bucket upper bounds (seconds-ish scale; callers with
#: different ranges pass their own).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: tuple) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class _Metric:
    """Shared plumbing: name, help text, per-label storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._values: dict[tuple, float] = {}

    def value(self, **labels) -> float:
        """Current value for one label combination (0.0 if never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def items(self) -> list[tuple[tuple, float]]:
        """``(label_key, value)`` pairs, insertion-ordered."""
        with self._lock:
            return list(self._values.items())

    def _bump(self, labels: dict, delta: float, absolute: bool = False) -> None:
        key = _label_key(labels)
        with self._lock:
            if absolute:
                self._values[key] = delta
            else:
                self._values[key] = self._values.get(key, 0.0) + delta


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self._bump(labels, float(amount))


class Gauge(_Metric):
    """Point-in-time value; settable and adjustable."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._bump(labels, float(value), absolute=True)

    def add(self, amount: float, **labels) -> None:
        self._bump(labels, float(amount))


class Histogram(_Metric):
    """Bucketed distribution with sum and count per label combination."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        #: label key -> [per-bucket counts..., +Inf count]
        self._counts: dict[tuple, list[int]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        idx = bisect_right(self.buckets, float(value))
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[idx] += 1
            # _values doubles as the running sum; count derives from buckets.
            self._values[key] = self._values.get(key, 0.0) + float(value)

    def count(self, **labels) -> int:
        counts = self._counts.get(_label_key(labels))
        return sum(counts) if counts else 0

    def sum(self, **labels) -> float:
        return self.value(**labels)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def bucket_counts(self, **labels) -> list[int]:
        """Cumulative counts per bucket bound (Prometheus ``le`` style)."""
        counts = self._counts.get(_label_key(labels))
        if counts is None:
            return [0] * (len(self.buckets) + 1)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def items(self) -> list[tuple[tuple, float]]:
        with self._lock:
            return [(k, self._values.get(k, 0.0)) for k in self._counts]


class MetricsRegistry:
    """Get-or-create home for every metric of one :class:`Observer`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kw):
        with self._lock:
            metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric
        created = cls(name, help, self._lock, **kw)
        with self._lock:
            # Another thread may have won the race; first writer sticks.
            metric = self._metrics.setdefault(name, created)
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def as_dict(self) -> dict:
        """``{name: {label_text: value}}`` snapshot (histograms report sums
        plus per-combination counts under ``name.count``)."""
        out: dict[str, dict] = {}
        for metric in self.metrics():
            out[metric.name] = {_label_text(k) or "": v for k, v in metric.items()}
            if isinstance(metric, Histogram):
                out[metric.name + ".count"] = {
                    _label_text(k) or "": metric.count(**dict(k))
                    for k, _ in metric.items()
                }
        return out

    def render_table(self) -> str:
        """Aligned human-readable metric table."""
        rows: list[tuple[str, str]] = []
        for metric in self.metrics():
            for key, value in sorted(metric.items()):
                label = metric.name + _label_text(key)
                if isinstance(metric, Histogram):
                    n = metric.count(**dict(key))
                    text = f"count={n} sum={value:.6g} mean={metric.mean(**dict(key)):.6g}"
                elif float(value).is_integer():
                    text = str(int(value))
                else:
                    text = f"{value:.6g}"
                rows.append((label, text))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {text}" for label, text in rows)
