"""Execution backends: how a prepared format runs, never what it computes.

``faithful`` interprets workgroup-by-workgroup (the paper's dataflow and
every fault site); ``fast`` vectorizes across all workgroups at once.
Both produce bit-identical output and identical cost profiles.  An
engine picks one at construction (``SpMVEngine(backend=...)``); the
auto-tuner always ranks candidates on ``faithful``.
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
