"""Backend benchmark: the vectorized ``fast`` path vs the ``faithful``
workgroup interpreter, identity-gated.

The fast backend's whole reason to exist is *measured wall clock with
zero semantic drift*: every suite matrix is multiplied on both backends,
the outputs exact-compared (``np.array_equal``, not allclose), and the
per-matrix speedup recorded.  Both halves of the contract are asserted,
not just printed:

1. **Bit-identity everywhere.**  Any matrix where ``fast`` differs from
   ``faithful`` by even one ULP fails the run.
2. **fast is never slower**, and on medium matrices (>= 20k nnz, where
   interpreter overhead dominates) it must clear a 10x floor.

The 2x2 and 1x4 block points are swept too, gated on both halves of
:func:`~repro.bench.backends.sweep_passed`, without a snapshot.

The report is snapshot to ``benchmarks/results/BENCH_kernels.json`` --
the same artifact the ``bench-kernels`` CI job and ``repro bench``
produce -- so a regression shows up as a reviewable JSON diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.backends import (
    MEDIUM_NNZ,
    run_backend_sweep,
    sweep_passed,
    write_sweep,
)
from repro.bench.report import render_table
from repro.matrices import load_suite
from repro.tuning import TuningPoint

from conftest import bench_cap, bench_names, record_table

RESULTS_DIR = Path(__file__).parent / "results"

#: Acceptance floor: on matrices big enough that per-workgroup Python
#: overhead dominates the interpreter, vectorization must win by 10x.
MEDIUM_SPEEDUP_FLOOR = 10.0


@pytest.fixture(scope="module")
def matrices():
    mats = load_suite(cap_nnz=min(bench_cap(), 150_000))
    names = bench_names()
    if names:
        mats = {k: v for k, v in mats.items() if k in names}
    return mats


@pytest.fixture(scope="module")
def sweep(matrices):
    return run_backend_sweep(matrices=matrices, repeats=3)


def test_backend_sweep(sweep):
    headers = ["matrix", "nnz", "faithful", "fast", "speedup", "identical"]
    rows = [
        [
            r["matrix"],
            str(r["nnz"]),
            f"{r['faithful_s'] * 1e3:.2f} ms",
            f"{r['fast_s'] * 1e3:.3f} ms",
            f"{r['speedup']:.1f}x",
            "yes" if r["bit_identical"] else "NO",
        ]
        for r in sweep["matrices"]
    ]
    rows.append([
        "geomean", "", "", "", f"{sweep['geomean_speedup']:.1f}x",
        "yes" if sweep["all_bit_identical"] else "NO",
    ])
    record_table(
        "bench_backends",
        render_table(headers, rows, title="fast backend vs faithful interpreter"),
    )
    write_sweep(sweep, RESULTS_DIR / "BENCH_kernels.json")

    passed, reasons = sweep_passed(sweep)
    assert passed, "; ".join(reasons)


def test_bit_identity_everywhere(sweep):
    broken = [r["matrix"] for r in sweep["matrices"] if not r["bit_identical"]]
    assert not broken, f"fast output drifted from faithful on: {broken}"


def test_medium_matrices_clear_speedup_floor(sweep):
    medium = [r for r in sweep["matrices"] if r["nnz"] >= MEDIUM_NNZ]
    assert medium, "no medium matrices in the sweep (cap too small?)"
    slowest = min(medium, key=lambda r: r["speedup"])
    assert slowest["speedup"] >= MEDIUM_SPEEDUP_FLOOR, (
        f"{slowest['matrix']}: fast is only {slowest['speedup']:.1f}x over "
        f"faithful (floor {MEDIUM_SPEEDUP_FLOOR:.0f}x, nnz {slowest['nnz']})"
    )


@pytest.mark.parametrize(
    "point",
    [TuningPoint(block_height=2, block_width=2), TuningPoint(block_width=4)],
    ids=["2x2", "1x4"],
)
def test_blocked_points_pass(matrices, point):
    # The snapshot stays the 1x1 sweep; blocked points run the two-pass
    # CSR cores and are gated on identity and speed only.
    report = run_backend_sweep(matrices=matrices, repeats=3, point=point)
    passed, reasons = sweep_passed(report)
    assert passed, "; ".join(reasons)
