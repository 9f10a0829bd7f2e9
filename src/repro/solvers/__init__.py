"""Iterative solvers on top of the SpMV engine and serve layer.

One surface -- :func:`solve`, whose ``method=`` picks the iteration --
plus :class:`SolverSession` for prepare-once/solve-many workflows whose
iterations can stream through a server or fabric and whose values can
be swapped in place between solves.
"""

from .iterative import (
    SOLVE_METHODS,
    SolveResult,
    power_method,
    solve,
)
from .session import SolverSession

__all__ = [
    "SOLVE_METHODS",
    "SolveResult",
    "SolverSession",
    "power_method",
    "solve",
]
