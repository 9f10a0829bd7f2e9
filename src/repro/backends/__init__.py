"""Execution backends: how a prepared format runs, never what it computes.

Both backends run the format's kernel launch; they differ only in the
plan and summation core they hand it.  ``faithful`` builds its plan per
call and sums like the interpreter (the paper's dataflow and every
fault site); ``fast`` caches its plan and sums with vectorized cores.
Both produce bit-identical output and identical cost profiles.  An
engine picks one at construction (``SpMVEngine(backend=...)``); the
auto-tuner ranks candidates on profile-only launches and executes only
its winner, on ``faithful``.
"""

from ..errors import BackendError
from .base import ExecutionBackend
from .faithful import FaithfulBackend
from .fast import FastBackend, FastPlan

__all__ = [
    "ExecutionBackend",
    "FaithfulBackend",
    "FastBackend",
    "FastPlan",
    "get_backend",
]

#: One shared instance per backend: every engine built with a name
#: executes on (and, for ``fast``, caches plans in) the same object.
_BACKENDS: dict[str, ExecutionBackend] = {
    "faithful": FaithfulBackend(),
    "fast": FastBackend(),
}


def get_backend(name: str) -> ExecutionBackend:
    """The shared instance of the backend called ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
