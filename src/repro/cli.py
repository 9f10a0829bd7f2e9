"""Command-line interface: ``python -m repro <command>``.

Gives the library's main workflows a shell entry point:

* ``info``      -- list devices, formats, kernels and the matrix suite;
* ``tune``      -- auto-tune a matrix (suite name or ``.mtx`` file) and
  print the winning configuration; ``--trace out.jsonl`` dumps the
  tuning trace as JSON lines;
* ``multiply``  -- run one simulated SpMV and report the profile;
* ``profile``   -- run the full prepare/tune/convert/execute pipeline
  under an :class:`~repro.obs.Observer` and print the span tree plus
  the metrics table (``--json out.jsonl`` dumps the raw trace);
* ``serve``     -- replay a JSON-lines request workload through the
  concurrent serving layer (micro-batching + prepared-matrix cache) and
  print the serving report; ``--shards N`` serves through the sharded
  fabric (consistent hashing + health-aware failover) instead of a
  single server;
* ``chaos``     -- differential chaos drill: replay a workload through
  the sharded fabric while a seeded fault plan kills/slows/corrupts
  shards, and diff every response against a single pristine server
  (non-zero exit on any bit difference or a vacuous run);
* ``solve``     -- run an iterative solver (CG/BiCGSTAB/GMRES/Jacobi)
  on a matrix; ``--shards N`` streams every iteration's SpMV through
  the sharded fabric and ``--compare-direct`` requires the served solve
  to be bit-identical, iterate for iterate, to the in-process one
  (non-zero exit on any difference or non-convergence);
* ``footprint`` -- print the Table 3 row for a matrix;
* ``compare``   -- run the full comparator panel on a matrix;
* ``verify``    -- validate format invariants and check the kernel
  output against the full CSR reference (non-zero exit on mismatch);
* ``bench``     -- time the ``fast`` backend against ``faithful`` on
  the suite, exact-compare every output, and write
  ``benchmarks/results/BENCH_kernels.json`` (non-zero exit if ``fast``
  loses bit-identity or is slower anywhere).

``profile`` and ``verify`` accept ``--fault SPEC`` (e.g.
``stale_grp_sum:p=0.5,seed=7``) to run under an injected fault plan.

``multiply``, ``profile``, ``serve`` and ``verify`` build their own
engine and accept ``--backend {faithful,fast}`` (see
:mod:`repro.backends`): ``faithful`` interprets workgroups exactly like
the paper's kernels, ``fast`` is the bit-identical vectorized path.
``tune`` ranks on profile-only launches and checks its winner on
``faithful``; ``chaos`` and ``solve`` use the fabric's and
:func:`repro.solve`'s defaults.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _load_matrix(arg: str, cap: int):
    from .matrices import get_spec, read_matrix_market

    if arg.endswith(".mtx"):
        return arg, read_matrix_market(arg)
    spec = get_spec(arg)
    return spec.name, spec.load(scale=spec.scale_for_nnz(cap))


def _cmd_info(args) -> int:
    from .formats import available_formats
    from .gpu import available_devices
    from .kernels import available_kernels
    from .matrices import SUITE

    print("devices :", ", ".join(sorted(available_devices())))
    print("formats :", ", ".join(sorted(available_formats())))
    print("kernels :", ", ".join(sorted(available_kernels())))
    print("suite   :")
    for spec in SUITE:
        print(
            f"  {spec.name:16s} {spec.rows}x{spec.cols}  "
            f"nnz={spec.nnz}  nnz/row={spec.nnz_per_row}  [{spec.family}]"
        )
    return 0


def _cmd_tune(args) -> int:
    from .gpu import get_device
    from .tuning import AutoTuner, TuningResult

    name, A = _load_matrix(args.matrix, args.cap)
    store = None
    if args.store:
        from .tuning import TuningStore

        store = TuningStore(args.store)
        cached = store.get(A, args.device)
        if cached is not None:
            res = TuningResult.from_store(cached)
            print(f"{name}: warm start from {args.store}")
            print(res.summary())
            return 0
    observer = None
    if args.trace:
        from .obs import Observer

        observer = Observer()
    retry = None
    if args.max_retries is not None:
        from .fault import RetryPolicy

        retry = RetryPolicy(max_attempts=args.max_retries + 1)
    checkpoint = None
    if args.checkpoint:
        from .tuning import TuningCheckpoint

        checkpoint = TuningCheckpoint(args.checkpoint, resume=args.resume)
    plan_scope = None
    if args.fault:
        from .fault import FaultPlan
        from .fault.injection import fault_scope

        plan_scope = fault_scope(FaultPlan.parse(args.fault))
    tuner = AutoTuner(
        get_device(args.device),
        mode=args.mode,
        workers=args.workers,
        observer=observer,
        deadline=args.deadline if args.deadline > 0 else None,
        checkpoint=checkpoint,
        retry=retry,
    )
    if plan_scope is not None:
        with plan_scope:
            res = tuner.tune(A)
    else:
        res = tuner.tune(A)
    if store is not None:
        store.put(A, args.device, res.best_point)
        print(f"saved configuration to {args.store}")
    print(f"{name}:")
    print(res.summary())
    if observer is not None:
        from .obs import write_jsonl

        n = write_jsonl(observer, args.trace)
        print(f"wrote {n} spans to {args.trace}")
    return 0


def _cmd_multiply(args) -> int:
    from .core import SpMVEngine
    from .gpu import TimingModel, get_device
    from .tuning import TuningStore

    name, A = _load_matrix(args.matrix, args.cap)
    x = np.random.default_rng(args.seed).standard_normal(A.shape[1])
    store = TuningStore(args.store) if args.store else None
    eng = SpMVEngine(device=args.device, plan_store=store, backend=args.backend)
    res = eng.multiply(eng.prepare(A), x)
    err = np.abs(res.y - A @ x).max()
    print(f"{name}:")
    print(TimingModel(get_device(args.device)).explain(res.stats, nnz=res.nnz))
    print(f"max |y - A@x| = {err:.2e}")
    return 0 if err < 1e-6 else 1


def _cmd_profile(args) -> int:
    from .core import SpMVEngine
    from .obs import Observer, console_report, write_jsonl
    from .tuning import TuningStore

    from .fault import CircuitBreaker, RetryPolicy

    name, A = _load_matrix(args.matrix, args.cap)
    x = np.random.default_rng(args.seed).standard_normal(A.shape[1])
    store = TuningStore(args.store) if args.store else None
    obs = Observer()
    # ``validate=True`` + permissive policy routes the multiply through
    # the resilience chain, so the fallback counters show up even on a
    # healthy run (``fallback.stage_used{stage="tuned"}``).  The explicit
    # retry policy and breaker materialize the containment metrics
    # (``retry.attempts``, ``watchdog.timeouts``, ``breaker.state``) in
    # the profile output.
    eng = SpMVEngine(
        device=args.device,
        plan_store=store,
        observer=obs,
        validate=True,
        policy="permissive",
        fault_plan=args.fault or None,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        breaker=CircuitBreaker(failure_threshold=3, cooldown_s=30.0),
        backend=args.backend,
    )
    prepared = eng.prepare(A)
    res = eng.multiply(prepared, x)
    print(console_report(obs, title=f"{name}: {res.summary()}"))
    if args.json:
        n = write_jsonl(obs, args.json)
        print(f"wrote {n} spans to {args.json}")
    return 0


def _cmd_serve(args) -> int:
    from .core import SpMVEngine
    from .obs import Observer, console_report
    from .errors import ValidationError
    from .serve import (
        ServeConfig,
        ServeFabric,
        SpMVServer,
        load_requests,
        run_replay,
    )

    obs = Observer()
    config = ServeConfig(
        max_batch=args.max_batch,
        batch_window_s=args.window,
        queue_depth=args.queue_depth,
        cache_budget_bytes=(
            None if args.budget_mb <= 0 else int(args.budget_mb * 2**20)
        ),
    )
    try:
        specs = load_requests(args.requests)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def make_engine(_index=0):
        return SpMVEngine(device=args.device, fault_plan=args.fault or None,
                          policy="permissive" if args.fault else "strict",
                          backend=args.backend)

    if args.shards > 1:
        server = ServeFabric(
            args.shards,
            device=args.device,
            engine_factory=make_engine,
            serve_config=config,
            observer=obs,
            start=not args.sync,
        )
    else:
        server = SpMVServer(
            make_engine(), config, observer=obs, start=not args.sync
        )
    try:
        report = run_replay(specs, server)
    finally:
        server.close()
    print(report.summary())
    if args.shards > 1:
        stats = report.stats
        print(f"shards   : {stats.get('live_shards', args.shards)}/"
              f"{args.shards} live, {stats.get('failovers', 0)} failovers, "
              f"{stats.get('quota_rejections', 0)} quota rejections")
    if args.verbose:
        print()
        print(console_report(obs, title="serving profile"))
    return 0 if report.failed == 0 and report.max_abs_err < 1e-6 else 1


def _cmd_chaos(args) -> int:
    from .serve import run_chaos_drill

    report = run_chaos_drill(
        shards=args.shards,
        seed=args.seed,
        cap_nnz=args.cap,
        requests_per_matrix=args.requests_per_matrix,
        kills=args.kills,
        slows=args.slows,
        corrupt_shards=args.corrupt,
        device=args.device,
        processes=args.processes,
        worker_hangs=args.worker_hangs,
        reply_timeout_s=args.reply_timeout,
    )
    print(report.summary())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote report to {args.json}")
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    from scipy import sparse

    from .serve import ServeFabric
    from .solvers import solve
    from .util import as_csr

    name, A = _load_matrix(args.matrix, args.cap)
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        print(f"error: {name} is {A.shape[0]}x{A.shape[1]}; "
              f"solvers need a square system", file=sys.stderr)
        return 2
    if args.shift:
        # Diagonal boost: makes suite matrices solvable by Jacobi/CG
        # without changing their sparsity structure.
        A = as_csr(A + sparse.eye(A.shape[0]) * args.shift)
    n = A.shape[0]
    if args.rhs == "ones":
        b = np.ones(n)
    else:
        b = np.random.default_rng(args.seed).standard_normal(n)

    common = dict(
        method=args.method, tol=args.tol, max_iter=args.max_iter,
        restart=args.restart, keep_iterates=args.shards > 0,
    )
    direct = None
    if args.shards == 0 or args.compare_direct:
        direct = solve(A, b, **common)
        print(f"{name} direct : {direct.summary()}")

    served = None
    if args.shards > 0:
        plan_scope = None
        if args.fault:
            from .fault import FaultPlan
            from .fault.injection import fault_scope

            plan_scope = fault_scope(FaultPlan.parse(args.fault))
        # Threadless fabric: deterministic scheduling, so a seeded fault
        # plan injects the same failovers on every run.
        fabric = ServeFabric(args.shards, device=args.device, start=False)
        try:
            if plan_scope is not None:
                with plan_scope:
                    served = solve(A, b, server=fabric, **common)
            else:
                served = solve(A, b, server=fabric, **common)
        finally:
            fabric.close()
        print(f"{name} served : {served.summary()}")

    ok = all(r.converged for r in (direct, served) if r is not None)
    if direct is not None and served is not None:
        identical = (
            np.array_equal(direct.x, served.x)
            and direct.history == served.history
            and len(direct.iterates) == len(served.iterates)
            and all(
                np.array_equal(d, s)
                for d, s in zip(direct.iterates, served.iterates)
            )
        )
        print(f"bit-identical: {identical}")
        ok = ok and identical
    return 0 if ok else 1


def _cmd_footprint(args) -> int:
    from .formats import footprint_report

    name, A = _load_matrix(args.matrix, args.cap)
    rep = footprint_report(A, name=name)
    mb = lambda b: "N/A" if b is None else f"{b / 2**20:.2f} MB"
    print(f"{name} ({A.shape[0]}x{A.shape[1]}, nnz {A.nnz}):")
    print(f"  COO         {mb(rep.coo)}")
    print(f"  ELL         {mb(rep.ell)}")
    print(f"  best single {mb(rep.best_single)} ({rep.best_single_format})")
    print(f"  cocktail    {mb(rep.cocktail)}")
    print(f"  BCCOO       {mb(rep.bccoo)} "
          f"(block {rep.bccoo_block[0]}x{rep.bccoo_block[1]})")
    return 0


def _cmd_compare(args) -> int:
    from .bench import compare_systems
    from .gpu import get_device

    name, A = _load_matrix(args.matrix, args.cap)
    scores = compare_systems(A, get_device(args.device))
    print(f"{name} on {args.device}:")
    for sys_name, score in sorted(
        scores.items(), key=lambda kv: -kv[1].gflops
    ):
        print(f"  {sys_name:16s} {score.gflops:7.2f} GFLOPS  ({score.variant})")
    return 0


def _cmd_verify(args) -> int:
    from .core import SpMVEngine
    from .fault.validation import validate_format, verify_output
    from .tuning import TuningStore

    name, A = _load_matrix(args.matrix, args.cap)
    x = np.random.default_rng(args.seed).standard_normal(A.shape[1])
    store = TuningStore(args.store) if args.store else None
    # With an injected fault plan, run permissive so the fallback chain
    # recovers and the reference check below still decides the verdict
    # (strict would abort with FaultInjectedError before reporting).
    eng = SpMVEngine(
        device=args.device,
        plan_store=store,
        fault_plan=args.fault or None,
        policy="permissive" if args.fault else "strict",
        validate="auto" if not args.fault else True,
        backend=args.backend,
    )
    prepared = eng.prepare(A)

    fmt_report = validate_format(prepared.fmt)
    print(fmt_report.summary())

    res = eng.multiply(prepared, x)
    if res.failure is not None:
        print(f"fallback: {res.failure.fallback_used} "
              f"({len(res.failure.attempts)} attempt(s))")
    out_report = verify_output(
        prepared.reference_csr(), x, res.y, n_samples=None
    )
    print(out_report.summary())
    ok = fmt_report.ok and out_report.ok
    print(f"{name}: {'VERIFIED' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    from .bench.backends import run_backend_sweep, sweep_passed, write_sweep

    baseline = None
    if args.compare:
        from .bench.compare import load_snapshot
        from .errors import ValidationError

        baseline_path = args.baseline or args.out
        try:
            # Load *before* the sweep runs: --out usually points at the
            # same file the sweep will overwrite.
            baseline = load_snapshot(baseline_path)
        except ValidationError as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    report = run_backend_sweep(
        device=args.device, cap_nnz=args.cap, repeats=args.repeats
    )
    for row in report["matrices"]:
        print(
            f"  {row['matrix']:16s} nnz={row['nnz']:8d} "
            f"faithful={row['faithful_s'] * 1e3:8.2f}ms "
            f"fast={row['fast_s'] * 1e3:7.3f}ms "
            f"x{row['speedup']:6.1f} "
            f"{'identical' if row['bit_identical'] else 'MISMATCH'}"
        )
    print(
        f"geomean speedup {report['geomean_speedup']:.1f}x, "
        f"min {report['min_speedup']:.1f}x, "
        f"bit-identical: {report['all_bit_identical']}"
    )
    if args.out:
        write_sweep(report, args.out)
        print(f"wrote report to {args.out}")
    passed, reasons = sweep_passed(report)
    for reason in reasons:
        print(f"FAIL: {reason}", file=sys.stderr)
    if baseline is not None:
        from .bench.compare import compare_snapshots

        cmp = compare_snapshots(
            baseline, report,
            threshold=args.threshold,
            calibrate=args.calibrate,
        )
        print()
        print(cmp.summary())
        if not cmp.passed:
            for delta in cmp.regressions:
                print(
                    f"FAIL: {delta.metric} regressed "
                    f"{delta.adjusted_change:+.1%} "
                    f"(threshold {args.threshold:.0%})",
                    file=sys.stderr,
                )
            passed = False
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="yaSpMV reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand that constructs its own engine --
    # ``parents=[backend_parent]`` keeps the flag's name, choices and
    # help text identical everywhere.
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend", default="faithful", choices=["faithful", "fast"],
        help="execution backend: 'faithful' interprets workgroups like "
             "the paper's kernels, 'fast' is the bit-identical "
             "vectorized path (see docs/backends.md)")

    sub.add_parser("info", help="list devices, formats, kernels, suite")

    def matrix_args(p):
        p.add_argument("matrix", help="Table 2 name or a .mtx file")
        p.add_argument("--device", default="gtx680", choices=["gtx680", "gtx480"])
        p.add_argument("--cap", type=int, default=150_000,
                       help="nnz cap for suite matrices (scale)")
        p.add_argument("--store", default="",
                       help="JSON tuning store: reuse/persist tuned configs")

    p_tune = sub.add_parser("tune", help="auto-tune a matrix")
    matrix_args(p_tune)
    p_tune.add_argument("--mode", default="pruned", choices=["pruned", "exhaustive"])
    p_tune.add_argument("--workers", type=int, default=1,
                        help="parallel tuning workers, forked, mapping the "
                             "matrix from shared memory (results are "
                             "identical to serial; only faster)")
    p_tune.add_argument("--trace", default="",
                        help="write the tuning trace to this JSON-lines file")
    p_tune.add_argument("--deadline", type=float, default=0.0,
                        help="wall-clock budget in seconds (0 = unlimited); "
                             "on expiry the best-so-far wins and the result "
                             "is marked partial")
    p_tune.add_argument("--max-retries", type=int, default=None,
                        help="pool rebuilds after a worker crash before "
                             "falling back to serial evaluation")
    p_tune.add_argument("--checkpoint", default="",
                        help="crash-safe journal: completed candidates are "
                             "appended here as they finish")
    p_tune.add_argument("--resume", action="store_true",
                        help="with --checkpoint: skip candidates already "
                             "journaled by a previous matching run")
    p_tune.add_argument("--fault", default="",
                        help="fault-plan spec, e.g. "
                             "tuner.worker_crash:p=1.0,count=1,seed=3")

    p_mul = sub.add_parser(
        "multiply", help="run one simulated SpMV", parents=[backend_parent]
    )
    matrix_args(p_mul)
    p_mul.add_argument("--seed", type=int, default=0)

    p_prof = sub.add_parser(
        "profile",
        help="prepare/tune/convert/execute under an observer; print the "
             "span tree and metrics table",
        parents=[backend_parent],
    )
    matrix_args(p_prof)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--fault", default="",
                        help="fault-plan spec, e.g. stale_grp_sum:p=0.5,seed=7")
    p_prof.add_argument("--json", default="",
                        help="also write the trace to this JSON-lines file")

    p_srv = sub.add_parser(
        "serve",
        help="replay a JSON-lines request workload through the serving "
             "layer (micro-batching + prepared-matrix cache)",
        parents=[backend_parent],
    )
    p_srv.add_argument("--requests", required=True,
                       help="JSON-lines workload; each line e.g. "
                            '{"matrix": "QCD", "count": 16, "seed": 0}')
    p_srv.add_argument("--device", default="gtx680",
                       choices=["gtx680", "gtx480"])
    p_srv.add_argument("--max-batch", type=int, default=32,
                       help="largest SpMM coalescing batch")
    p_srv.add_argument("--window", type=float, default=0.002,
                       help="batch window in seconds (0 = only coalesce "
                            "what is already queued)")
    p_srv.add_argument("--queue-depth", type=int, default=256,
                       help="admission-control queue bound")
    p_srv.add_argument("--budget-mb", type=float, default=256.0,
                       help="prepared-matrix cache byte budget in MiB "
                            "(<= 0 = unbounded)")
    p_srv.add_argument("--sync", action="store_true",
                       help="threadless replay (deterministic batching)")
    p_srv.add_argument("--fault", default="",
                       help="fault-plan spec injected under the engine, "
                            "e.g. stale_grp_sum:p=0.5,seed=7")
    p_srv.add_argument("--verbose", action="store_true",
                       help="also print the serve.* span tree and metrics")
    p_srv.add_argument("--shards", type=int, default=1,
                       help="> 1 serves through the sharded fabric "
                            "(consistent hashing + health-aware failover)")

    p_chaos = sub.add_parser(
        "chaos",
        help="differential chaos drill: faulted fabric vs one pristine "
             "server, bit-identical or non-zero exit",
    )
    p_chaos.add_argument("--shards", type=int, default=3,
                         help="fabric shard count")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="seeds the fault plan and the workload")
    p_chaos.add_argument("--device", default="gtx680",
                         choices=["gtx680", "gtx480"])
    p_chaos.add_argument("--cap", type=int, default=4_000,
                         help="nnz cap for the drill's suite matrices")
    p_chaos.add_argument("--requests-per-matrix", type=int, default=3,
                         help="requests per (matrix, value refresh)")
    p_chaos.add_argument("--kills", type=int, default=1,
                         help="serve.shard_crash budget (shards killed "
                              "mid-flight)")
    p_chaos.add_argument("--slows", type=int, default=0,
                         help="serve.shard_slow budget (shards slowed)")
    p_chaos.add_argument("--processes", action="store_true",
                         help="run shards as forked worker processes: kills "
                              "become real SIGKILLs the supervisor must "
                              "recover from, plus an autoscale up/down "
                              "cycle and a shared-memory leak check")
    p_chaos.add_argument("--worker-hangs", type=int, default=0,
                         help="seeded worker-hang budget (process mode): "
                              "workers that go silent until the heartbeat "
                              "or reply timeout SIGKILLs them")
    p_chaos.add_argument("--reply-timeout", type=float, default=15.0,
                         help="seconds a process shard waits on its worker "
                              "before declaring it hung")
    p_chaos.add_argument("--corrupt", type=int, default=0,
                         help="shards whose dispatches are detected-corrupt")
    p_chaos.add_argument("--json", default="",
                         help="also write the report to this JSON file")

    p_solve = sub.add_parser(
        "solve",
        help="iterative solve (cg/bicgstab/gmres/jacobi); --shards N "
             "streams every iteration through the sharded fabric and "
             "--compare-direct diffs it against the in-process solve",
    )
    matrix_args(p_solve)
    p_solve.add_argument("--method", default="bicgstab",
                         choices=["cg", "bicgstab", "gmres", "jacobi"])
    p_solve.add_argument("--tol", type=float, default=1e-10,
                         help="residual-norm convergence threshold")
    p_solve.add_argument("--max-iter", type=int, default=10_000)
    p_solve.add_argument("--restart", type=int, default=30,
                         help="GMRES restart length (ignored elsewhere)")
    p_solve.add_argument("--rhs", default="ones", choices=["ones", "random"],
                         help="right-hand side: all-ones or seeded gaussian")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed for --rhs random")
    p_solve.add_argument("--shift", type=float, default=0.0,
                         help="add shift*I before solving (diagonal boost "
                              "for suite matrices)")
    p_solve.add_argument("--shards", type=int, default=0,
                         help="> 0 solves through a threadless sharded "
                              "fabric (every iteration a served request)")
    p_solve.add_argument("--fault", default="",
                         help="fault-plan spec active during the served "
                              "solve, e.g. serve.shard_crash:p=0.5,count=1,"
                              "seed=7")
    p_solve.add_argument("--compare-direct", action="store_true",
                         help="with --shards: also run the in-process "
                              "solve and require bit-identical iterates")

    p_fp = sub.add_parser("footprint", help="Table 3 row for a matrix")
    matrix_args(p_fp)

    p_cmp = sub.add_parser("compare", help="yaSpMV vs all comparators")
    matrix_args(p_cmp)

    p_ver = sub.add_parser(
        "verify", help="validate format invariants + full reference check",
        parents=[backend_parent],
    )
    matrix_args(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--fault", default="",
                       help="fault-plan spec, e.g. stale_grp_sum:p=0.5,seed=7")

    p_bench = sub.add_parser(
        "bench",
        help="time fast vs faithful on the suite; exact-compare outputs; "
             "non-zero exit if fast loses bit-identity or is slower",
    )
    p_bench.add_argument("--device", default="gtx680",
                         choices=["gtx680", "gtx480"])
    p_bench.add_argument("--cap", type=int, default=150_000,
                         help="nnz cap for suite matrices (scale)")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="best-of-N timing repeats per backend")
    p_bench.add_argument("--compare", action="store_true",
                         help="diff this sweep against a previous snapshot "
                              "and exit non-zero on any metric regressing "
                              "past --threshold")
    p_bench.add_argument("--baseline", default="",
                         help="baseline snapshot for --compare (default: "
                              "the existing file at --out)")
    p_bench.add_argument("--threshold", type=float, default=0.15,
                         help="fractional regression tolerance for "
                              "--compare (default 0.15 = 15%%)")
    p_bench.add_argument("--calibrate", action="store_true",
                         help="remove the median cross-runner drift before "
                              "applying --threshold (for comparing against "
                              "a baseline recorded on another machine)")
    p_bench.add_argument("--out",
                         default="benchmarks/results/BENCH_kernels.json",
                         help="write the JSON report here ('' to skip)")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "tune": _cmd_tune,
    "multiply": _cmd_multiply,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "solve": _cmd_solve,
    "footprint": _cmd_footprint,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
