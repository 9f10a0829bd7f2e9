"""Figure 15: throughput comparison on the (simulated) GTX480.

Same protocol as Figure 13 on the Fermi device model.  Paper's headline
numbers on GTX480: +42% average / +150% max over CUSPARSE; +40% average
/ +162% max over COCKTAIL; the paper's one loss here is Epidemiology
(ELL via CUSPARSE-HYB wins).

The extra shape assertion is the cross-device one: because Kepler's
FLOP/byte ratio is twice Fermi's, yaSpMV's *relative* advantage (which
comes from moving fewer bytes) should be at least as large on the
GTX680 as on the GTX480 -- exactly what the paper reports (65% vs 42%
over CUSPARSE).
"""

from __future__ import annotations

import pytest

from repro.bench import harmonic_mean, render_comparison, render_speedups
from repro.gpu import GTX480, GTX680

from conftest import record_table


@pytest.fixture(scope="module")
def comparison(suite_comparison):
    rows = suite_comparison(GTX480)
    text = render_comparison(rows, GTX480.name, "Figure 15")
    text += "\n\n" + render_speedups(rows)
    record_table("fig15_gtx480", text)
    return rows


def test_fig15_yaspmv_beats_cusparse_on_average(comparison, benchmark):
    def hmeans():
        ya = harmonic_mean(r.scores["yaspmv"].gflops for r in comparison)
        cu = harmonic_mean(r.scores["cusparse"].gflops for r in comparison)
        return ya, cu

    ya, cu = benchmark(hmeans)
    assert ya > cu


def test_fig15_yaspmv_beats_cocktail_on_average(comparison, benchmark):
    def hmeans():
        ya = harmonic_mean(r.scores["yaspmv"].gflops for r in comparison)
        ct = harmonic_mean(r.scores["clspmv_cocktail"].gflops for r in comparison)
        return ya, ct

    ya, ct = benchmark(hmeans)
    assert ya > ct


def test_cross_device_advantage_shape(comparison, suite_comparison, benchmark):
    """yaSpMV's edge over CUSPARSE grows (or holds) from Fermi to Kepler.

    The GTX680 rows are Figure 13's when both figures run in one session.
    """
    rows680 = suite_comparison(GTX680)

    def advantage(rows):
        ya = harmonic_mean(r.scores["yaspmv"].gflops for r in rows)
        cu = harmonic_mean(r.scores["cusparse"].gflops for r in rows)
        return ya / cu

    adv480 = advantage(comparison)
    adv680 = benchmark.pedantic(lambda: advantage(rows680), rounds=1, iterations=1)
    assert adv680 >= adv480 * 0.9  # paper: 1.65 vs 1.42 (adv680 > adv480)
