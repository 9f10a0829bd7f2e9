"""repro -- a reproduction of *yaSpMV: Yet Another SpMV Framework on GPUs*
(Yan, Li, Zhang, Zhou; PPoPP 2014) in pure Python over a simulated SIMT
device.

The package implements the paper's three contributions -- the
BCCOO/BCCOO+ sparse formats, the customized matrix-based segmented
sum/scan SpMV kernel with adjacent synchronization, and the auto-tuning
framework -- together with every substrate and comparator the evaluation
needs: a format zoo (COO/CSR/ELL/DIA/HYB/BCSR/BELL/SELL), baseline
kernels (CUSPARSE-, CUSP- and clSpMV-style), a GTX480/GTX680 device
model with coalescing/cache/dispatch/timing components, and a synthetic
version of the paper's 20-matrix suite.

Entry points
------------
:func:`repro.yaspmv`
    One-shot auto-tuned SpMV.
:class:`repro.SpMVEngine`
    Prepare-once / multiply-many engine.
:func:`repro.solve` / :class:`repro.SolverSession`
    Iterative solvers (CG/BiCGSTAB/GMRES/Jacobi) whose iterations can
    stream through the serve layer.
:mod:`repro.formats`, :mod:`repro.kernels`, :mod:`repro.tuning`,
:mod:`repro.gpu`, :mod:`repro.matrices`, :mod:`repro.scan`
    The subsystems, individually usable.
"""

from . import backends, fault, formats, gpu, kernels, matrices, obs, scan, serve, solvers, tuning
from .backends import ExecutionBackend, get_backend
from .core import (
    BaselineResult,
    PreparedMatrix,
    SpMVEngine,
    SpMVResult,
    run_clspmv_best_single,
    run_clspmv_cocktail,
    run_cusp,
    run_cusparse_best,
    yaspmv,
)
from .errors import (
    AdjacentSyncTimeout,
    CircuitOpenError,
    DeadlineExceeded,
    DeviceError,
    FaultInjectedError,
    FormatError,
    FormatNotApplicableError,
    KernelConfigError,
    MatrixGenerationError,
    ReproError,
    ServeTimeout,
    ServerClosedError,
    ServerOverloadedError,
    ShardCrashError,
    TuningError,
    ValidationError,
)
from .fault import CircuitBreaker, Deadline, FaultPlan, FaultSpec, RetryPolicy
from .obs import NullObserver, Observer, obs_scope
from .serve import ServeConfig, ServeFabric, SpMVServer, run_chaos_drill
from .solvers import SolveResult, SolverSession, solve

__version__ = "1.0.0"

__all__ = [
    "backends",
    "fault",
    "formats",
    "solvers",
    "gpu",
    "kernels",
    "matrices",
    "obs",
    "scan",
    "serve",
    "tuning",
    "NullObserver",
    "Observer",
    "obs_scope",
    "ExecutionBackend",
    "get_backend",
    "BaselineResult",
    "PreparedMatrix",
    "SpMVEngine",
    "SpMVResult",
    "run_clspmv_best_single",
    "run_clspmv_cocktail",
    "run_cusp",
    "run_cusparse_best",
    "yaspmv",
    "AdjacentSyncTimeout",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "DeviceError",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "FormatError",
    "FormatNotApplicableError",
    "KernelConfigError",
    "MatrixGenerationError",
    "ReproError",
    "run_chaos_drill",
    "ServeConfig",
    "ServeFabric",
    "ServeTimeout",
    "ServerClosedError",
    "ServerOverloadedError",
    "ShardCrashError",
    "SolveResult",
    "SolverSession",
    "solve",
    "SpMVServer",
    "TuningError",
    "ValidationError",
    "__version__",
]
