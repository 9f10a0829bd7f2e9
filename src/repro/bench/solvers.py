"""Solver bench: served vs direct iteration streams, identity-gated,
plus the incremental value-refresh speedup.

Two contracts are measured and asserted:

1. **Serving is transparent.**  A CG/GMRES solve whose every iteration
   streams through an :class:`~repro.serve.SpMVServer` must be
   *bit-identical*, iterate for iterate, to the in-process solve --
   the serve layer may add latency, never semantics.  Iterations/s and
   the SpMV share of wall clock are recorded for both paths.
2. **Value refresh beats re-prepare.**  For a time-varying system,
   :meth:`~repro.SpMVEngine.update_values` (structural plan reused,
   value buffers swapped) must be at least :data:`REFRESH_SPEEDUP_FLOOR`
   times faster than a full :meth:`~repro.SpMVEngine.prepare` of the
   new matrix on the medium bench matrix, with a bit-identical product
   and a migrated (not rebuilt) fast-path plan.

:func:`run_solver_bench` returns a JSON-able report;
:func:`solver_bench_passed` applies the CI gate.  The
``benchmarks/bench_solvers.py`` job and the ``solver-smoke`` CI lane
both funnel through here and write
``benchmarks/results/BENCH_solvers.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import sparse

from ..backends import get_backend
from ..core.engine import SpMVEngine
from ..serve.server import ServeConfig, SpMVServer
from ..solvers.session import SolverSession

__all__ = [
    "REFRESH_SPEEDUP_FLOOR",
    "run_solver_bench",
    "solver_bench_passed",
    "write_solver_bench",
]

#: Acceptance floor: swapping values must beat re-preparing (which
#: re-tunes and rebuilds the format) by at least this factor.
REFRESH_SPEEDUP_FLOOR = 5.0


def _solver_systems(cap_nnz: int) -> dict:
    """Deterministic solvable systems sized to roughly ``cap_nnz``.

    CG gets an SPD tridiagonal (the 1-D Poisson stencil, shifted); GMRES
    a seeded random sparse matrix made strongly diagonally dominant.
    """
    n_tri = max(min(cap_nnz // 3, 200_000), 50)
    tri = sparse.diags(
        [-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n_tri, n_tri), format="csr"
    )
    density = 0.05
    n_rand = max(int(np.sqrt(cap_nnz / density)), 50)
    rand = sparse.random(
        n_rand, n_rand, density=density,
        random_state=np.random.default_rng(7), format="csr",
    )
    rand = (rand + sparse.eye(n_rand) * 10.0).tocsr()
    return {"cg": tri, "gmres": rand}


def _run_one(session: SolverSession, b, method: str, tol: float,
             max_iter: int) -> tuple[dict, object]:
    t0 = time.perf_counter()
    res = session.solve(b, method=method, tol=tol, max_iter=max_iter,
                        keep_iterates=True)
    wall = time.perf_counter() - t0
    row = {
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "wall_s": wall,
        "iterations_per_s": res.iterations / wall if wall > 0 else None,
        "spmv_count": int(res.spmv_count),
        "spmv_time_s": float(res.spmv_time_s),
        "spmv_wall_s": float(res.spmv_wall_s),
        "spmv_share": res.spmv_wall_s / wall if wall > 0 else None,
        "cache_hits": int(res.cache_hits),
        "residual_norm": float(res.residual_norm),
    }
    return row, res


def run_solver_bench(
    device: str = "gtx680",
    cap_nnz: int = 60_000,
    methods: tuple = ("cg", "gmres"),
    tol: float = 1e-10,
    max_iter: int = 2_000,
) -> dict:
    """Benchmark served vs direct solves plus the value-refresh path."""
    systems = _solver_systems(cap_nnz)
    fast = get_backend("fast")

    solver_rows = []
    for method in methods:
        A = systems[method]
        b = np.ones(A.shape[0])
        # One engine, one prepare: both paths solve the same
        # PreparedMatrix, so the comparison isolates the serve layer.
        eng = SpMVEngine(device=device, backend="fast")
        prep = eng.prepare(A)

        direct_sess = SolverSession(prep, engine=eng)
        direct_row, direct = _run_one(direct_sess, b, method, tol, max_iter)

        server = SpMVServer(eng, ServeConfig(batch_window_s=0.0), start=False)
        try:
            served_sess = SolverSession(prep, engine=eng, server=server)
            hashed0 = server.stats()["key_hashed"]  # after the prime
            served_row, served = _run_one(served_sess, b, method, tol, max_iter)
            # Every iteration submits the primed handle: matched, never hashed.
            served_row["key_hashed"] = server.stats()["key_hashed"] - hashed0
        finally:
            server.close()

        bit_identical = bool(
            np.array_equal(direct.x, served.x)
            and direct.history == served.history
            and len(direct.iterates) == len(served.iterates)
            and all(
                np.array_equal(d, s)
                for d, s in zip(direct.iterates, served.iterates)
            )
        )
        solver_rows.append(
            {
                "method": method,
                "shape": list(A.shape),
                "nnz": int(A.nnz),
                "direct": direct_row,
                "served": served_row,
                "bit_identical": bit_identical,
                "serve_overhead": (
                    served_row["wall_s"] / direct_row["wall_s"]
                    if direct_row["wall_s"] > 0 else None
                ),
            }
        )

    # ----- incremental value refresh vs full re-prepare ----- #
    A = systems["cg"]
    eng = SpMVEngine(device=device, backend="fast")
    prep = eng.prepare(A)
    x = np.random.default_rng(0).standard_normal(A.shape[1])
    eng.multiply(prep, x)  # materialize the fast path's cached plan
    A2 = (A * 1.5).tocsr()

    refreshes_before = fast.n_value_refreshes
    t0 = time.perf_counter()
    refreshed = eng.update_values(prep, A2)
    t_swap = time.perf_counter() - t0
    migrated = fast.n_value_refreshes - refreshes_before

    t0 = time.perf_counter()
    fresh = eng.prepare(A2)
    t_full = time.perf_counter() - t0

    y_refreshed = eng.multiply(refreshed, x).y
    y_fresh = eng.multiply(fresh, x).y
    refresh = {
        "matrix_nnz": int(A.nnz),
        "swap_s": t_swap,
        "full_prepare_s": t_full,
        "speedup": t_full / t_swap if t_swap > 0 else float("inf"),
        "plan_hits": int(migrated),
        "plan_hit_rate": float(migrated >= 1),
        "structural_plan_reused": bool(refreshed.point is prep.point),
        "bit_identical": bool(np.array_equal(y_refreshed, y_fresh)),
    }

    return {
        "kind": "bench_solvers",
        "device": device,
        "cap_nnz": cap_nnz,
        "tol": tol,
        "solves": solver_rows,
        "value_refresh": refresh,
        "all_bit_identical": (
            all(r["bit_identical"] for r in solver_rows)
            and refresh["bit_identical"]
        ),
        "refresh_speedup_floor": REFRESH_SPEEDUP_FLOOR,
    }


def solver_bench_passed(report: dict) -> tuple[bool, list[str]]:
    """The CI gate: identity, convergence, and the refresh floor."""
    reasons = []
    for row in report["solves"]:
        if not row["bit_identical"]:
            reasons.append(
                f"{row['method']}: served solve is not bit-identical "
                f"to the direct solve"
            )
        for path in ("direct", "served"):
            if not row[path]["converged"]:
                reasons.append(f"{row['method']}: {path} solve did not converge")
    refresh = report["value_refresh"]
    if not refresh["bit_identical"]:
        reasons.append("value refresh: refreshed product differs from re-prepare")
    if not refresh["structural_plan_reused"]:
        reasons.append("value refresh: tuning point was rebuilt, not reused")
    if refresh["speedup"] < report["refresh_speedup_floor"]:
        reasons.append(
            f"value refresh: swap is only {refresh['speedup']:.1f}x faster "
            f"than re-prepare (floor {report['refresh_speedup_floor']}x)"
        )
    return (not reasons, reasons)


def write_solver_bench(report: dict, path) -> None:
    """Persist the report as pretty-printed JSON."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
