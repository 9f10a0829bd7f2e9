"""Iterative solvers driven by the yaSpMV engine and serve layer.

SpMV exists to serve iterative methods -- the paper's introduction
motivates the kernel with exactly these workloads.  This module gives
the engine's prepare-once/multiply-many pattern a solver-shaped API
behind **one surface**:

    solve(A, b, method="cg" | "bicgstab" | "gmres" | "jacobi", ...)

with keyword-only options: ``engine=`` (an :class:`~repro.SpMVEngine`
built with whatever observer, fault plan or breaker the caller
wants), ``deadline=``, and ``server=`` to stream every iteration's
multiply through an :class:`~repro.serve.SpMVServer` or
:class:`~repro.serve.ServeFabric` (admission control, failover and the
value-aware cache all apply; see :class:`~repro.solvers.SolverSession`).
There are no per-method functions: ``method=`` picks the iteration.

Every solver reports a convergence history plus the *simulated device
time* spent in SpMV -- counting only the successful attempt of each
multiply, so a retried/failed-over iteration is never double-billed --
and :class:`SolveResult` speaks the same ``to_dict()``/``summary()``
protocol as :class:`~repro.SpMVResult` and
:class:`~repro.tuning.TuningResult`.

Numerics are plain float64 NumPy, identical whether iterations run
direct or served (the differential tests pin ``np.array_equal`` per
iterate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.engine import SpMVEngine
from ..errors import ReproError, ValidationError
from ..fault.retry import Deadline

__all__ = [
    "SolveResult",
    "solve",
    "power_method",
]

#: Methods :func:`solve` accepts.
SOLVE_METHODS = ("cg", "bicgstab", "gmres", "jacobi")


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``spmv_time_s`` accumulates the simulated device time of every SpMV
    issued -- the quantity the paper's speedups translate into for a
    full solve.  Only the *successful* attempt of each multiply is
    billed: a retried or failed-over iteration contributes its retries
    to ``spmv_retries``/``failovers``, never to the device time.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    spmv_count: int
    spmv_time_s: float
    history: list[float] = field(default_factory=list)
    #: Rayleigh-quotient estimate; set by :func:`power_method` only.
    eigenvalue: float = 0.0
    #: Which :func:`solve` method produced this result.
    method: str = ""
    #: Whether iterations streamed through a server/fabric.
    served: bool = False
    #: Failed multiply attempts recovered by the engine's fallback chain.
    spmv_retries: int = 0
    #: Served requests replayed on a successor shard (fabric only).
    failovers: int = 0
    #: Served requests answered from the prepared-matrix cache.
    cache_hits: int = 0
    #: :meth:`SolverSession.update_values` calls during the solve.
    value_refreshes: int = 0
    #: Wall-clock seconds spent inside multiplies (simulated work is
    #: ``spmv_time_s``; this is the host-side cost, the bench's
    #: "SpMV share" numerator).
    spmv_wall_s: float = 0.0
    #: The solve stopped on an expired ``deadline=`` with the
    #: best-so-far ``x`` (mirrors the tuner's partial-result semantics).
    deadline_expired: bool = False
    #: Per-iteration solution snapshots (``keep_iterates=True`` only) --
    #: what the differential served-vs-direct tests compare bit for bit.
    iterates: list[np.ndarray] | None = None

    # -- the shared result protocol (see SpMVResult / TuningResult) ---- #

    def to_dict(self) -> dict:
        """JSON-able snapshot -- the CLI's and benches' interchange form."""
        return {
            "kind": "solve_result",
            "method": self.method,
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "spmv_count": int(self.spmv_count),
            "spmv_time_s": float(self.spmv_time_s),
            "spmv_wall_s": float(self.spmv_wall_s),
            "spmv_retries": int(self.spmv_retries),
            "served": bool(self.served),
            "failovers": int(self.failovers),
            "cache_hits": int(self.cache_hits),
            "value_refreshes": int(self.value_refreshes),
            "deadline_expired": bool(self.deadline_expired),
            "eigenvalue": float(self.eigenvalue),
            "history": [float(h) for h in self.history],
        }

    def summary(self) -> str:
        """One-line human description of the solve."""
        verdict = (
            "converged"
            if self.converged
            else ("deadline expired" if self.deadline_expired else "NOT converged")
        )
        line = (
            f"{self.method or 'solve'}: {verdict} in {self.iterations} "
            f"iterations (residual {self.residual_norm:.2e}, "
            f"{self.spmv_count} SpMVs, {self.spmv_time_s * 1e3:.2f} ms "
            f"simulated)"
        )
        if self.served:
            line += f" [served, {self.failovers} failovers]"
        if self.spmv_retries:
            line += f" [{self.spmv_retries} retries]"
        return line


# ---------------------------------------------------------------------- #
# The one solver surface
# ---------------------------------------------------------------------- #


def solve(
    A,
    b: np.ndarray,
    method: str = "cg",
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    restart: int = 30,
    engine: SpMVEngine | None = None,
    deadline=None,
    server=None,
    tenant: str = "default",
    timeout_s: float | None = None,
    keep_iterates: bool = False,
) -> SolveResult:
    """Solve ``A x = b`` with the named iterative method.

    Parameters
    ----------
    A:
        A scipy sparse matrix (prepared/auto-tuned once) or a
        :class:`~repro.core.engine.PreparedMatrix` (amortizes tuning
        across solves; requires the engine it was prepared with, or a
        ``server=`` whose engine prepared it).
    method:
        ``"cg"`` (SPD), ``"bicgstab"`` (general), ``"gmres"``
        (restarted GMRES(``restart``), general) or ``"jacobi"``
        (diagonally dominant).
    restart:
        GMRES restart length ``m`` (ignored by the other methods).
    engine:
        The :class:`~repro.SpMVEngine` every multiply runs on.  With no
        ``engine``/``server``, a permissive engine on the default
        backend is built (the solver's default degrades gracefully
        through the fallback chain).  Build your own for strict
        semantics, the ``fast`` backend, an observer, a fault plan or a
        breaker.
    deadline:
        Wall-clock budget in seconds (or a :class:`~repro.fault.
        Deadline`); on expiry the best-so-far ``x`` is returned with
        ``deadline_expired=True`` -- the tuner's partial-result
        semantics applied to solves.
    server:
        An :class:`~repro.serve.SpMVServer` or :class:`~repro.serve.
        ServeFabric`: every iteration's multiply is issued as a served
        request (see :class:`~repro.solvers.SolverSession`).
    tenant, timeout_s:
        Served-request attribution and per-request deadline (the
        fabric's equal-share rotation keys on the tenant).
    keep_iterates:
        Record every iteration's solution snapshot in
        :attr:`SolveResult.iterates` (the differential tests' hook).
    """
    from ..core.engine import PreparedMatrix
    from .session import SolverSession

    # No target can run a bare PreparedMatrix -- fall through and let
    # the session raise its "needs the engine it was prepared with"
    # error instead of conjuring an unrelated engine.
    if engine is None and server is None and not isinstance(A, PreparedMatrix):
        engine = SpMVEngine(policy="permissive")
    session = SolverSession(
        A, engine=engine, server=server, tenant=tenant, timeout_s=timeout_s
    )
    return session.solve(
        b,
        method=method,
        x0=x0,
        tol=tol,
        max_iter=max_iter,
        restart=restart,
        deadline=deadline,
        keep_iterates=keep_iterates,
    )


def _run_solve(
    session,
    b: np.ndarray,
    method: str,
    *,
    x0=None,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    restart: int = 30,
    deadline=None,
    keep_iterates: bool = False,
) -> SolveResult:
    """Shared driver behind :func:`solve` / :meth:`SolverSession.solve`."""
    runner = _RUNNERS.get(method)
    if runner is None:
        raise ValidationError(
            f"method must be one of {SOLVE_METHODS}, got {method!r}"
        )
    nrows, ncols = session.shape
    if nrows != ncols:
        raise ReproError(
            f"solver needs a square system, got {(nrows, ncols)}"
        )
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != nrows:
        raise ValidationError(
            f"b must be a length-{nrows} vector, got shape {b.shape}"
        )
    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline(float(deadline))
    should_stop = (lambda: False) if deadline is None else deadline.expired

    snap = session.counters()
    x, converged, iterations, residual, history, iterates, expired = runner(
        session,
        b,
        x0,
        tol,
        max_iter,
        restart,
        should_stop,
        keep_iterates,
    )
    delta = {k: v - snap[k] for k, v in session.counters().items()}
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=residual,
        spmv_count=delta["spmv_count"],
        spmv_time_s=delta["spmv_time_s"],
        history=history,
        method=method,
        served=session.server is not None,
        spmv_retries=delta["spmv_retries"],
        failovers=delta["failovers"],
        cache_hits=delta["cache_hits"],
        value_refreshes=delta["value_refreshes"],
        spmv_wall_s=delta["spmv_wall_s"],
        deadline_expired=expired,
        iterates=iterates,
    )


# ---------------------------------------------------------------------- #
# Method runners -- pure float64 numerics over a counting multiplier.
# Each returns (x, converged, iterations, residual, history, iterates,
# deadline_expired).  The multiply sequences are identical direct or
# served, which is what makes the differential bit-identity tests hold.
# ---------------------------------------------------------------------- #


def _run_cg(mult, b, x0, tol, max_iter, restart, should_stop, keep_iterates):
    """CG for symmetric positive-definite systems.

    ``x`` and ``r`` are updated in place through one scratch vector, and
    each new ``p`` is one fresh array.  No array handed to ``mult`` is
    written afterwards, since a multiplier may still hold its operand.
    The arithmetic is that of ``x += alpha * p`` and
    ``p = r + beta * p``, so every iterate keeps its bits; ``a.dot(b)``
    runs the same BLAS dot as ``a @ b``, without the ufunc dispatch.
    """
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64)
    iterates = [] if keep_iterates else None

    r = b - mult(x)
    x = x.copy()
    p = r.copy()
    tmp = np.empty_like(b)
    rs = float(r.dot(r))
    history = [math.sqrt(rs)]
    for it in range(1, max_iter + 1):
        if should_stop():
            return x, False, it - 1, history[-1], history, iterates, True
        Ap = mult(p)
        denom = float(p.dot(Ap))
        if denom == 0.0:
            break
        alpha = rs / denom
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        rs_new = float(r.dot(r))
        history.append(math.sqrt(rs_new))
        if iterates is not None:
            iterates.append(x.copy())
        if history[-1] < tol:
            return x, True, it, history[-1], history, iterates, False
        p = r + np.multiply(rs_new / rs, p, out=tmp)
        rs = rs_new
    return x, False, max_iter, history[-1], history, iterates, False


def _run_bicgstab(
    mult, b, x0, tol, max_iter, restart, should_stop, keep_iterates
):
    """BiCGSTAB for general (non-symmetric) systems.

    Inner products are ``a.dot(b)``: the same BLAS dot as ``a @ b``,
    without the ufunc dispatch.
    """
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    iterates = [] if keep_iterates else None

    r = b - mult(x)
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    history = [float(np.linalg.norm(r))]
    for it in range(1, max_iter + 1):
        if should_stop():
            return x, False, it - 1, history[-1], history, iterates, True
        rho_new = float(r_hat.dot(r))
        if rho_new == 0.0:
            break
        beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
        p = r + beta * (p - omega * v) if it > 1 else r.copy()
        v = mult(p)
        denom = float(r_hat.dot(v))
        if denom == 0.0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        if np.linalg.norm(s) < tol:
            x += alpha * p
            history.append(float(np.linalg.norm(s)))
            if iterates is not None:
                iterates.append(x.copy())
            return x, True, it, history[-1], history, iterates, False
        t = mult(s)
        tt = float(t.dot(t))
        if tt == 0.0:
            break
        omega = float(t.dot(s)) / tt
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
        history.append(float(np.linalg.norm(r)))
        if iterates is not None:
            iterates.append(x.copy())
        if history[-1] < tol:
            return x, True, it, history[-1], history, iterates, False
    return x, False, max_iter, history[-1], history, iterates, False


def _run_gmres(mult, b, x0, tol, max_iter, restart, should_stop, keep_iterates):
    """Restarted GMRES(m): Arnoldi with modified Gram-Schmidt + Givens.

    The residual norm after each inner iteration falls out of the
    Givens-rotated right-hand side (``|g[j+1]|``) without forming the
    solution; the solution itself is assembled by back-substitution at
    cycle end (and per iteration under ``keep_iterates``).  Inner
    products are ``a.dot(b)``, as in :func:`_run_bicgstab`.
    """
    n = b.shape[0]
    m = max(1, min(int(restart), n))
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    iterates = [] if keep_iterates else None

    r = b - mult(x)
    beta = float(np.linalg.norm(r))
    history = [beta]
    if beta < tol:
        return x, True, 0, beta, history, iterates, False

    total = 0
    while True:
        V = np.zeros((m + 1, n), dtype=np.float64)
        H = np.zeros((m + 1, m), dtype=np.float64)
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        k = 0
        converged = expired = breakdown = False
        for j in range(m):
            if should_stop():
                expired = True
                break
            w = mult(V[j])
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = float(w.dot(V[i]))
                w = w - H[i, j] * V[i]
            h_next = float(np.linalg.norm(w))
            # Rotate the new column through the accumulated Givens
            # rotations, then zero its subdiagonal with a fresh one.
            for i in range(j):
                tmp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = tmp
            denom = float(np.hypot(H[j, j], h_next))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, h_next / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * h_next
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            k = j + 1
            total += 1
            residual = abs(float(g[j + 1]))
            history.append(residual)
            if iterates is not None:
                iterates.append(_gmres_solution(x, V, H, g, k))
            if residual < tol:
                converged = True
                break
            if h_next == 0.0:
                breakdown = True  # lucky breakdown: Krylov space exhausted
                break
            if total >= max_iter:
                break
            V[j + 1] = w / h_next
        if k:
            x = _gmres_solution(x, V, H, g, k)
        residual = history[-1]
        if converged:
            return x, True, total, residual, history, iterates, False
        if expired:
            return x, False, total, residual, history, iterates, True
        if total >= max_iter or breakdown:
            return x, residual < tol, total, residual, history, iterates, False
        # Restart: true residual for the next cycle.
        r = b - mult(x)
        beta = float(np.linalg.norm(r))
        if beta < tol:
            return x, True, total, beta, history, iterates, False


def _gmres_solution(x, V, H, g, k) -> np.ndarray:
    """Back-substitute the rotated least-squares system, update x."""
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        s = float(g[i]) - float(H[i, i + 1 : k] @ y[i + 1 : k])
        y[i] = s / H[i, i] if H[i, i] != 0.0 else 0.0
    return x + V[:k].T @ y


def _run_jacobi(mult, b, x0, tol, max_iter, restart, should_stop, keep_iterates):
    """Jacobi iteration for diagonally dominant systems.

    Uses the splitting ``x' = x + D^{-1} (b - A x)``; the diagonal is
    extracted once from the prepared matrix's CSR view.
    """
    diag = mult.prepared.reference_csr().diagonal()
    if np.any(diag == 0.0):
        raise ReproError("Jacobi needs a zero-free diagonal")
    inv_d = 1.0 / diag
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    iterates = [] if keep_iterates else None

    history = []
    for it in range(1, max_iter + 1):
        if should_stop():
            last = history[-1] if history else float(np.linalg.norm(b))
            return x, False, it - 1, last, history, iterates, True
        r = b - mult(x)
        history.append(float(np.linalg.norm(r)))
        if history[-1] < tol:
            return x, True, it - 1, history[-1], history, iterates, False
        x = x + inv_d * r
        if iterates is not None:
            iterates.append(x.copy())
    return x, False, max_iter, history[-1], history, iterates, False


_RUNNERS = {
    "cg": _run_cg,
    "bicgstab": _run_bicgstab,
    "gmres": _run_gmres,
    "jacobi": _run_jacobi,
}


def power_method(
    A,
    engine: SpMVEngine | None = None,
    v0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 5_000,
    seed: int = 0,
) -> SolveResult:
    """Power iteration: dominant eigenvalue/vector of a square matrix.

    Not a linear solve, so it stays outside :func:`solve`'s method set;
    it shares the session multiplier and the result protocol.
    """
    from .session import SolverSession

    mult = SolverSession(A, engine=engine)
    n, c = mult.shape
    if n != c:
        raise ReproError(f"solver needs a square system, got {mult.shape}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) if v0 is None else np.array(v0, dtype=np.float64)
    v /= np.linalg.norm(v)

    lam = 0.0
    history = []
    w = mult(v)
    for it in range(1, max_iter + 1):
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break
        v_new = w / norm
        w = mult(v_new)  # reused both for lambda and the next step
        lam_new = float(v_new @ w)
        history.append(abs(lam_new - lam))
        converged = history[-1] < tol
        v, lam = v_new, lam_new
        if converged:
            res = SolveResult(
                v, True, it, history[-1], mult.spmv_count,
                mult.spmv_time_s, history, method="power",
            )
            res.eigenvalue = lam
            return res
    res = SolveResult(
        v, False, max_iter, history[-1] if history else np.inf,
        mult.spmv_count, mult.spmv_time_s, history, method="power",
    )
    res.eigenvalue = lam
    return res
