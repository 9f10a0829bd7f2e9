"""repro.obs -- the observability layer: tracing, metrics, exporters.

One :class:`Observer` bundles a span :class:`~repro.obs.trace.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry`.  The engine, tuner,
kernels, timing model and resilience chain all report through whichever
observer is active; the default :data:`NULL_OBSERVER` swallows
everything at near-zero cost, so an un-observed run is indistinguishable
from the pre-observability engine.

Usage::

    from repro import SpMVEngine
    from repro.obs import Observer

    obs = Observer()
    engine = SpMVEngine(observer=obs)
    engine.multiply(engine.prepare(A), x)
    print(obs.report())            # span tree + metric table
    obs.write_trace("run.jsonl")   # JSON-lines, reload with load_jsonl

Library code that cannot be handed an observer (kernels, the timing
model) reads the ambient one via :func:`active_observer`; the engine
installs its observer with :func:`obs_scope` around every public entry
point, mirroring :func:`repro.fault.injection.fault_scope`.  The ambient
observer is per thread: a scope entered on one thread is invisible on
every other.
"""

from __future__ import annotations

import threading

from .export import console_report, dump_jsonl, load_jsonl, prometheus_text, write_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "obs_scope",
    "active_observer",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "console_report",
    "dump_jsonl",
    "write_jsonl",
    "load_jsonl",
    "prometheus_text",
]


class Observer:
    """Tracer + metrics registry, the unit the engine is handed."""

    enabled = True

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # Convenience pass-throughs so call sites stay one-liners.
    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def counter(self, name: str, help: str = "") -> Counter:
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "", **kw) -> Histogram:
        return self.metrics.histogram(name, help, **kw)

    def report(self, title: str = "") -> str:
        """Console summary: span tree plus metric table."""
        return console_report(self, title=title)

    def write_trace(self, path) -> int:
        """Dump the span forest as JSON-lines; returns the span count."""
        return write_jsonl(self.tracer, path)


class _NullSpan:
    """Reusable no-op span: context manager + dead-end ``set``."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


class _NullMetric:
    """Accepts every mutation, stores nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels):
        pass

    def set(self, value: float, **labels):
        pass

    def add(self, amount: float, **labels):
        pass

    def observe(self, value: float, **labels):
        pass

    def value(self, **labels) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


class NullObserver:
    """The default observer: every hook is a constant-time no-op."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", **kw) -> _NullMetric:
        return _NULL_METRIC

    def report(self, title: str = "") -> str:
        return "(observability disabled)"

    def write_trace(self, path) -> int:
        return 0


#: Shared do-nothing observer (stateless, safe to reuse everywhere).
NULL_OBSERVER = NullObserver()

class _Ambient(threading.local):
    """This thread's ambient observer; the null observer until a scope
    installs another."""

    observer: Observer | NullObserver = NULL_OBSERVER


_AMBIENT = _Ambient()


def active_observer() -> Observer | NullObserver:
    """This thread's observer, installed by the innermost :func:`obs_scope`."""
    return _AMBIENT.observer


class obs_scope:
    """Install ``observer`` as this thread's ambient observer for the
    dynamic extent of a ``with`` block, which binds the observer then
    active.

    ``None`` keeps whatever is already active -- callers with an optional
    observer can wrap unconditionally.
    """

    __slots__ = ("_observer", "_previous")

    def __init__(self, observer: Observer | NullObserver | None):
        self._observer = observer

    def __enter__(self) -> Observer | NullObserver:
        self._previous = previous = _AMBIENT.observer
        if self._observer is None:
            return previous
        _AMBIENT.observer = self._observer
        return self._observer

    def __exit__(self, *exc) -> bool:
        _AMBIENT.observer = self._previous
        return False
