"""Run one benchmark workload; the last line printed is its JSON result.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's entry points, prints the per-layer
metrics, writes the spans to ``perfbench/out/`` and reports the tracing
overhead.  Run from the repository root; the program is imported from
``src/``, so there is nothing to build.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before NumPy loads: steadier timings, and CG
# iteration counts that repeat exactly.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: The end-to-end metrics every untraced run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "prepare_ref": "ref",
    "op_ref": "ref",
    "iterations": "count",
    "sim_gflops_hmean": "GFLOPS",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tune", "serve", "solve"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' runs each workload in seconds (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None, tamper=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import repro
    from perfbench import tracing, workloads
    from perfbench.measure import drift_probe_ms

    import_s = time.perf_counter() - _T0
    drift_start = drift_probe_ms()
    sizes = workloads.TINY if args.size == "tiny" else workloads.sizes_for(args.seconds)
    run = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder() if args.trace else workloads.NO_TRACE
    uninstall = tracing.instrument(rec) if args.trace else None
    try:
        outcome = run(args.seed, sizes, rec, import_s, tamper or workloads.untouched)
        rec.observe("backend.live_plans", repro.get_backend("fast").plan_count())
        t_end = time.perf_counter()
    finally:
        if uninstall is not None:
            uninstall()
    drift_end = drift_probe_ms()

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} size={args.size}"
    )
    for line in outcome.notes:
        print(f"  {line}")
    print(f"  output digest: {outcome.digest}")
    print(
        f"  host drift probe: {drift_start:.2f} ms at start, {drift_end:.2f} ms "
        f"at end ({(drift_end / drift_start - 1) * 100:+.1f}%)"
    )
    OUT.mkdir(exist_ok=True)
    untraced_path = OUT / f"untraced-{args.workload}-seed{args.seed}-{args.size}.json"
    if args.trace:
        metrics = _traced_report(args, rec, t_end, outcome, untraced_path, tracing)
    else:
        for name, unit in END_TO_END.items():
            print(f"  {name:<18} {outcome.metrics[name]:>14.6g} {unit}")
        untraced_path.write_text(json.dumps(outcome.metrics))
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _traced_report(args, rec, t_end, outcome, untraced_path, tracing) -> dict:
    """Print the per-layer table and tracing overhead; returns the metrics."""
    layers = tracing.layer_metrics(rec, t_end)
    for name, unit, _better, definition in tracing.LAYER_METRICS:
        value, samples = layers[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={samples:<8} {definition}")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl"
    n_spans = rec.write_jsonl(spans_path)
    wall = t_end - rec.t0
    cost = tracing.span_cost_s()
    print(
        f"  spans: {n_spans} written to {spans_path.relative_to(ROOT)}; they cover "
        f"{layers['trace.coverage'][0]:.1%} of the {wall:.2f}s run"
    )
    print(
        f"  tracing overhead, estimated: {n_spans} spans x {cost * 1e6:.2f} us = "
        f"{n_spans * cost:.3f}s ({n_spans * cost / wall:.1%} of the traced run)"
    )
    if untraced_path.is_file():
        untraced = json.loads(untraced_path.read_text())
        diffs = ", ".join(
            f"{name} {outcome.metrics[name] / untraced[name] - 1:+.1%}"
            for name in ("setup_s", "prepare_ref", "op_ref")
        )
        print(f"  tracing overhead, traced vs untraced run of this seed: {diffs}")
    else:
        print("  tracing overhead vs untraced: run --trace 0 with this seed first")
    return {
        name: {"value": layers[name][0], "unit": unit}
        for name, unit, _better, _definition in tracing.LAYER_METRICS
    }


if __name__ == "__main__":
    sys.exit(main())
