"""Lightweight structured tracing: nested spans over the engine's phases.

A :class:`Span` is one timed region of a run -- ``engine.prepare``,
``tuner.candidate``, ``kernel.yaspmv`` -- with wall-clock bounds plus
arbitrary attributes (simulated time, GFLOPS, stage names, fault sites).
Spans nest: the tracer keeps a per-thread stack, so a span opened while
another is active becomes its child, and spans opened on other threads
(the threaded server's dispatcher, the fabric's pump) start fresh roots
tagged with their thread id instead of corrupting another thread's tree.

The tracer is deliberately tiny -- no sampling, no clock abstraction
beyond ``time.perf_counter`` -- because its consumers are the exporters
in :mod:`repro.obs.export` and the ``repro profile`` CLI, not a
telemetry backend.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed, attributed region; ``children`` are sub-spans."""

    name: str
    span_id: int
    parent_id: int | None = None
    t_start: float = 0.0
    t_end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Wall-clock extent; 0.0 while the span is still open."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (or self) with ``name``, depth-first order."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """Flat JSON-able record (children are linked by ``parent_id``)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            span_id=int(d["span_id"]),
            parent_id=None if d.get("parent_id") is None else int(d["parent_id"]),
            t_start=float(d["t_start"]),
            t_end=None if d.get("t_end") is None else float(d["t_end"]),
            attrs=dict(d.get("attrs", {})),
        )

    def render(self, indent: int = 0, attr_limit: int = 6) -> str:
        """Human-readable tree of this span and its descendants."""
        pad = "  " * indent
        dur = f"{self.duration_s * 1e3:.2f} ms" if self.t_end is not None else "open"
        shown = list(self.attrs.items())[:attr_limit]
        attrs = ", ".join(f"{k}={_short(v)}" for k, v in shown)
        if len(self.attrs) > attr_limit:
            attrs += ", ..."
        line = f"{pad}{self.name}  [{dur}]" + (f"  {{{attrs}}}" if attrs else "")
        return "\n".join([line] + [c.render(indent + 1, attr_limit) for c in self.children])


def _short(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Tracer:
    """Thread-safe collector of span trees.

    ``span()`` is the only producer API::

        with tracer.span("engine.multiply", nnz=nnz) as sp:
            ...
            sp.set(sim_time_s=breakdown.t_total)

    Spans nest per thread; completed roots accumulate in :attr:`roots`.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                name=name,
                span_id=next(self._ids),
                parent_id=parent.span_id if parent else None,
                t_start=time.perf_counter(),
                attrs=dict(attrs),
            )
            if parent is not None:
                parent.children.append(span)
            else:
                if threading.current_thread() is not threading.main_thread():
                    span.attrs.setdefault("thread", threading.current_thread().name)
                self.roots.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.t_end = time.perf_counter()
            stack.pop()

    def spans(self) -> list[Span]:
        """Every recorded span (all roots, depth-first)."""
        with self._lock:
            roots = list(self.roots)
        return [s for root in roots for s in root.walk()]

    def find(self, name: str) -> Span | None:
        """First span with ``name`` across all roots."""
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def render(self) -> str:
        """All root trees, in recording order."""
        with self._lock:
            roots = list(self.roots)
        return "\n".join(root.render() for root in roots)

    def clear(self) -> None:
        with self._lock:
            self.roots = []
