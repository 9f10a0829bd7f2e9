"""Solver sessions: one prepared matrix, many multiplies, one target.

A :class:`SolverSession` binds a matrix -- prepared once, auto-tuned
once -- to an execution target and turns every solver iteration's
``A @ v`` into a call on that target:

* **direct**: an :class:`~repro.SpMVEngine` multiply (the classic
  in-process path);
* **served**: a request submitted to an :class:`~repro.serve.
  SpMVServer` or :class:`~repro.serve.ServeFabric`, so iterations flow
  through admission control, the value-aware prepared cache, the
  fabric's equal-share tenant rotation and health-aware failover
  exactly like external traffic.

The session is also the solver subsystem's **accountant**.  It tallies
SpMV count, *simulated device time* (billing only the successful
attempt of each multiply -- a retried or failed-over iteration
contributes to ``spmv_retries``/``failovers`` instead of being counted
twice), wall-clock time, serve-cache hits and value refreshes;
:func:`~repro.solvers.solve` reports per-solve deltas of these
counters in :class:`~repro.solvers.SolveResult`.

Time-varying systems use :meth:`update_values`: the structural plan
(tuning point, bit flags, column storage, fast-path gather plans) is
reused and only value buffers are swapped via
:meth:`SpMVEngine.update_values`, then the refreshed matrix is primed
into the serve cache under its new value-aware key.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.engine import PreparedMatrix, SpMVEngine, SpMVResult
from ..errors import ReproError
from ..serve.fabric import ServeFabric
from ..serve.server import SpMVServer
from ..util import as_csr

__all__ = ["SolverSession"]


class SolverSession:
    """Bind a matrix to an engine or serving target for repeated SpMV.

    Parameters
    ----------
    A:
        A scipy sparse matrix (prepared here, once) or an existing
        :class:`~repro.core.engine.PreparedMatrix` (requires ``engine=``
        or a ``server=`` whose engine prepared it).
    engine:
        The engine that owns prepares and value refreshes.  Defaults to
        the server's engine (first shard's for a fabric), or a fresh
        default engine when running direct.
    server:
        Optional :class:`~repro.serve.SpMVServer` or
        :class:`~repro.serve.ServeFabric`; when given, :meth:`multiply`
        submits requests instead of calling the engine.  Threadless
        targets (``start=False``) are pumped synchronously via
        ``drain()``, so deterministic single-threaded tests work
        unchanged.
    tenant, timeout_s:
        Attribution and per-request deadline for served multiplies.
    """

    def __init__(
        self,
        A,
        *,
        engine: SpMVEngine | None = None,
        server=None,
        tenant: str = "default",
        timeout_s: float | None = None,
    ):
        if server is not None and not isinstance(
            server, (SpMVServer, ServeFabric)
        ):
            raise ReproError(
                f"server must be an SpMVServer or ServeFabric, "
                f"got {type(server).__name__}"
            )
        self.server = server
        self.tenant = tenant
        self.timeout_s = timeout_s
        if engine is None and server is not None:
            engine = (
                server.engine
                if isinstance(server, SpMVServer)
                else server.shards[0].engine
            )
        if isinstance(A, PreparedMatrix):
            if engine is None:
                raise ReproError(
                    "a PreparedMatrix needs the engine it was prepared with"
                )
            self.engine = engine
            self.prepared = A
        else:
            self.engine = engine if engine is not None else SpMVEngine()
            self.prepared = self.engine.prepare(as_csr(A))
        if server is not None:
            # Pre-admit the session's prepared matrix so the first served
            # iteration is already a cache hit.  A fabric primes every
            # routable shard (sharing the buffers in process mode, so
            # worker restarts re-warm from the same segments).
            server.prime(self.prepared)

        self.spmv_count = 0
        self.spmv_time_s = 0.0
        self.spmv_wall_s = 0.0
        self.spmv_retries = 0
        self.failovers = 0
        self.cache_hits = 0
        self.value_refreshes = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, int]:
        return (self.prepared.fmt.nrows, self.prepared.fmt.ncols)

    @property
    def served(self) -> bool:
        return self.server is not None

    def counters(self) -> dict:
        """Snapshot of the session's accounting (see :func:`solve`)."""
        return {
            "spmv_count": self.spmv_count,
            "spmv_time_s": self.spmv_time_s,
            "spmv_wall_s": self.spmv_wall_s,
            "spmv_retries": self.spmv_retries,
            "failovers": self.failovers,
            "cache_hits": self.cache_hits,
            "value_refreshes": self.value_refreshes,
        }

    # ------------------------------------------------------------------ #
    # The multiplier
    # ------------------------------------------------------------------ #

    def multiply(self, v: np.ndarray) -> np.ndarray:
        """One accounted ``A @ v`` through the session's target."""
        v = np.asarray(v, dtype=np.float64)
        t0 = time.perf_counter()
        if self.server is None:
            res = self.engine.multiply(self.prepared, v)
            self.spmv_wall_s += time.perf_counter() - t0
            self._account(res)
            return res.y
        if isinstance(self.server, SpMVServer):
            resp = self.server.multiply(
                self.prepared, v, timeout_s=self.timeout_s
            )
        else:
            resp = self.server.multiply(
                self.prepared, v, tenant=self.tenant, timeout_s=self.timeout_s
            )
        self.spmv_wall_s += time.perf_counter() - t0
        self.failovers += resp.failovers
        self.cache_hits += int(resp.cache_hit)
        self._account(resp.result)
        return resp.y

    __call__ = multiply

    def _account(self, res: SpMVResult) -> None:
        """Bill one multiply: successful attempt's device time only.

        ``res.time_s`` already covers just the winning stage of the
        fallback chain; failed attempts surface as ``spmv_retries`` so a
        recovered iteration is never double-billed.
        """
        self.spmv_count += 1
        self.spmv_time_s += res.time_s
        if res.failure is not None:
            self.spmv_retries += sum(
                1 for a in res.failure.attempts if not a.ok
            )

    # ------------------------------------------------------------------ #
    # Incremental value refresh
    # ------------------------------------------------------------------ #

    def update_values(self, new_values) -> PreparedMatrix:
        """Swap the matrix's values, keeping the structural plan.

        Delegates to :meth:`SpMVEngine.update_values` (tuning point and
        block structure reused, value buffers rebuilt, fast-path plans
        migrated), rebinds the session to the refreshed matrix and
        primes it into the serve target's cache(s) under its new
        value-aware key.  The sparsity pattern must be identical; see
        :meth:`PreparedMatrix.with_values`.
        """
        self.prepared = self.engine.update_values(self.prepared, new_values)
        self.value_refreshes += 1
        if self.server is not None:
            self.server.prime(self.prepared)
        return self.prepared

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def solve(
        self,
        b: np.ndarray,
        method: str = "cg",
        *,
        x0: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iter: int = 10_000,
        restart: int = 30,
        deadline=None,
        keep_iterates: bool = False,
    ):
        """Run :func:`~repro.solvers.solve` against this session.

        Repeated calls reuse the prepared matrix (and its tuning) --
        solve, :meth:`update_values`, solve again is the intended loop
        for time-varying systems.
        """
        from .iterative import _run_solve

        return _run_solve(
            self,
            b,
            method,
            x0=x0,
            tol=tol,
            max_iter=max_iter,
            restart=restart,
            deadline=deadline,
            keep_iterates=keep_iterates,
        )
