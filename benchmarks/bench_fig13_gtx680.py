"""Figure 13: throughput comparison on the (simulated) GTX680.

yaSpMV (auto-tuned) vs CUSPARSE-best, CUSP, clSpMV best single and
clSpMV COCKTAIL, across the 20-matrix suite, reported in GFLOPS
(2*nnz/t) with the paper's harmonic-mean summary and speedups.

Paper's headline numbers on GTX680: +65% average / +229% max over
CUSPARSE; +70% average / +195% max over COCKTAIL.

The pytest-benchmark measurements time the library's actual hot paths:
one prepared yaSpMV execution and one comparator execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import harmonic_mean, render_comparison, render_speedups
from repro.core import SpMVEngine, run_cusparse_best
from repro.gpu import GTX680
from repro.matrices import get_spec

from conftest import record_table

DEVICE = GTX680


@pytest.fixture(scope="module")
def comparison(suite_comparison):
    rows = suite_comparison(DEVICE)
    text = render_comparison(rows, DEVICE.name, "Figure 13")
    text += "\n\n" + render_speedups(rows)
    record_table("fig13_gtx680", text)
    return rows


def test_fig13_yaspmv_beats_cusparse_on_average(comparison, benchmark):
    """The headline claim: higher H-mean throughput than CUSPARSE."""

    def hmeans():
        ya = harmonic_mean(r.scores["yaspmv"].gflops for r in comparison)
        cu = harmonic_mean(r.scores["cusparse"].gflops for r in comparison)
        return ya, cu

    ya, cu = benchmark(hmeans)
    assert ya > cu


def test_fig13_yaspmv_beats_cusp_everywhere(comparison, benchmark):
    """CUSP's COO kernel shares the balance but pays 2x the bytes."""

    def count_wins():
        return sum(
            1 for r in comparison if r.scores["yaspmv"].gflops > r.scores["cusp"].gflops
        )

    wins = benchmark(count_wins)
    assert wins >= int(0.9 * len(comparison))


def test_fig13_wins_majority_of_suite(comparison, benchmark):
    """yaSpMV should win most matrices (the paper loses only Dense)."""

    def wins():
        n = 0
        for r in comparison:
            best = max(r.scores.values(), key=lambda s: s.gflops)
            n += best.system == "yaspmv"
        return n

    count = benchmark(wins)
    assert count >= len(comparison) // 2


def test_yaspmv_execution_speed(benchmark, cap_nnz):
    """Wall-clock of one prepared simulated-yaSpMV execution."""
    spec = get_spec("FEM/Harbor")
    A = spec.load(scale=spec.scale_for_nnz(cap_nnz))
    x = np.ones(A.shape[1])
    eng = SpMVEngine(DEVICE)
    from repro.tuning import TuningPoint

    prep = eng.prepare(A, point=TuningPoint())
    benchmark(lambda: eng.multiply(prep, x))


def test_cusparse_selection_speed(benchmark, cap_nnz):
    """Wall-clock of the CUSPARSE-best comparator on one matrix."""
    spec = get_spec("Economics")
    A = spec.load(scale=spec.scale_for_nnz(min(cap_nnz, 50_000)))
    x = np.ones(A.shape[1])
    benchmark.pedantic(
        lambda: run_cusparse_best(A, x, DEVICE), rounds=3, iterations=1
    )
