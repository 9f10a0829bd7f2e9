"""Prepare stage clock: where a cold prepare's wall time goes.

``SpMVEngine.prepare`` installs a :class:`StageClock` with
:func:`stage_scope` when its observer is enabled, and exports what it
measured as ``prepare.stage_seconds{stage=...}``.  The code doing the
work wraps each phase in :func:`stage`:

* ``enumerate`` -- the tuner's search-space enumeration;
* ``blocking`` -- extracting block layouts;
* ``convert`` -- building formats from layouts;
* ``plan_build`` -- each profile-only launch (one per group of
  profile-equal candidates) and its clock, and the fold that ranks the
  candidates and replays their kernel-plan lookups;
* ``cache_model`` -- the BCCOO launches' vector-read cache model,
  wherever it runs;
* ``verify`` -- executing and checking the tuned winner;
* ``store`` -- tuning-store lookups and writes.

Stages nest (a verify builds a format, a launch runs the cache model)
and each one is charged its *exclusive* seconds, so the stages add up
to at most the prepare's wall time.  With no clock installed --
whenever the observer is disabled -- :func:`stage` reads one
thread-local attribute and makes no clock call.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator

__all__ = ["StageClock", "stage", "stage_scope", "active_stages"]


class StageClock:
    """Exclusive wall seconds per stage, plus event counts.

    ``counts`` carries what the stages did (``layouts``: block layouts
    the tuner's candidate walk extracted; ``profiles``: the profile-only
    launches it ran; ``geometries``: the launch geometries those
    launches computed, one per distinct (stop positions, tile,
    workgroup size, workgroup count)).
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Open stages: ``[name, start, seconds of nested stages]``.
        self._open: list[list] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._open.pop()
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed - frame[2]
            if self._open:
                self._open[-1][2] += elapsed


#: The active clock, per thread: concurrent prepares (a server's
#: threads) each clock their own stages.
_LOCAL = threading.local()


def active_stages() -> StageClock | None:
    """This thread's clock installed by the innermost :func:`stage_scope`,
    if any."""
    return getattr(_LOCAL, "clock", None)


@contextlib.contextmanager
def stage_scope(clock: StageClock | None) -> Iterator[StageClock | None]:
    """Install ``clock`` on this thread for the dynamic extent (``None``
    keeps the active one)."""
    previous = active_stages()
    if clock is not None:
        _LOCAL.clock = clock
    try:
        yield active_stages()
    finally:
        _LOCAL.clock = previous


_UNCLOCKED = contextlib.nullcontext()


def stage(name: str) -> contextlib.AbstractContextManager:
    """Charge the enclosed work to ``name`` on the active clock."""
    clock = getattr(_LOCAL, "clock", None)
    return _UNCLOCKED if clock is None else clock.stage(name)
